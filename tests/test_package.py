"""The package's public names: each module's ``__all__`` is its API, and
``charvar`` re-exports the union of the ``__all__`` of the modules it imports."""

from __future__ import annotations

import ast
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import charvar

# the modules `import charvar` loads; claims and cli are imported on demand
PACKAGE_MODULES = (
    "errors", "flows", "polytope", "repvar", "sampler", "sigma", "su2", "tau", "tolerances"
)

# the package's exports before each module's __all__ became its only list,
# less the abelian diagonalization that repvar no longer has, the section's
# error type for a base point where its closed form was not finite, and the
# group logarithm, which nothing called, with its error type
FROZEN_EXPORTS = {
    "errors": [
        "CharVarError", "ZeroVector", "OutsidePolytope",
        "DegenerateGenerator", "FiberSolveFailure",
        "PreconditionViolated", "RelationViolated", "ClassificationAmbiguity",
    ],
    "su2": [
        "GroupElement", "AlgebraElement", "StabilizerType", "mul", "conjugate",
        "commutator", "distance", "is_central", "exp_alg", "trace_angle",
        "haar_sample", "conjugator_nullspace", "find_conjugator", "stabilizer_type",
    ],
    "repvar": [
        "Representation", "relation_residual", "new_checked", "is_abelian", "class_equal",
    ],
    "polytope": [
        "Polytope", "PolytopeTag", "Region", "RegionKind", "SimplexPoint",
        "QuotientMatrix", "TILDE_DELTA", "STD_DELTA", "HALF_STD_DELTA", "M_P",
        "NU_NORMALIZATION_NOTE", "moment_coordinates", "moment_mu",
        "mu_lambda_coordinates", "mu_lambda", "nu_P3", "trace_triple",
        "boundary_commutation_check", "write_simplex_csv",
    ],
    "flows": [
        "TorusElement", "FlowGenerators", "FlowIdentityReport", "generators", "act",
        "verify_flow_identities",
    ],
    "tau": ["FiberCoordinates", "section", "fiber_coordinates", "tau"],
    "sigma": [
        "Stratum", "Piece", "SigmaFixedPoint", "DIAG_I", "InjectivityReport", "J",
        "sigma", "sigma_fixed_conjugator", "classify_fixed_point", "pillow_point",
        "blowup_point", "rp2_fiber_point", "n2_interval", "certify_interval_injectivity",
    ],
    "sampler": ["Target", "SampleSpec", "sample", "density_witness", "strict_inclusion_witness"],
    "tolerances": ["Tolerances", "DEFAULT"],
}
ADDED_EXPORTS = {"sampler": ["sample_batches"]}


def _module(name: str):
    return sys.modules[f"charvar.{name}"]


def _loaded_by_import() -> set[str]:
    """The submodules a fresh `import charvar` loads."""
    src = str(Path(charvar.__file__).resolve().parents[1])
    probe = "import json, sys, charvar; print(json.dumps(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return {name for name in json.loads(out.stdout) if name.startswith("charvar.")}


def test_every_module_declares_its_api():
    names = [info.name for info in pkgutil.iter_modules(charvar.__path__)]
    assert set(names) == {*PACKAGE_MODULES, "claims", "cli"}
    assert _loaded_by_import() == {f"charvar.{name}" for name in PACKAGE_MODULES}
    for name in names:
        module = importlib.import_module(f"charvar.{name}")
        assert "__all__" in vars(module), name
        assert len(set(module.__all__)) == len(module.__all__), name
        for export in module.__all__:
            assert hasattr(module, export), (name, export)


def test_package_all_is_the_union_of_its_modules():
    assert len(set(charvar.__all__)) == len(charvar.__all__)
    union = [export for name in PACKAGE_MODULES for export in _module(name).__all__]
    assert sorted(charvar.__all__) == sorted(union)
    for name in PACKAGE_MODULES:
        for export in _module(name).__all__:
            assert getattr(charvar, export) is getattr(_module(name), export), (name, export)
    # the package attributes sigma and tau are the functions, not the submodules
    assert inspect.isfunction(charvar.sigma) and inspect.isfunction(charvar.tau)


def test_exports_kept_and_only_one_added():
    for name in PACKAGE_MODULES:
        want = FROZEN_EXPORTS[name] + ADDED_EXPORTS.get(name, [])
        assert sorted(_module(name).__all__) == sorted(want), name
    frozen = [export for names in FROZEN_EXPORTS.values() for export in names]
    assert len(frozen) == 77
    assert set(charvar.__all__) - set(frozen) == {"sample_batches"}


def test_star_import_gives_the_api_only():
    namespace: dict = {}
    exec("from charvar import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(charvar.__all__)
    for name in ("su2", "polytope"):
        namespace = {}
        exec(f"from charvar.{name} import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(_module(name).__all__)


# repvar imports the product without using it: perfbench/test_perfbench.py checks
# that the tracer restores every name it patched, repvar.mul among them
UNUSED_IMPORTS = {("repvar", "mul")}


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read_names(tree: ast.AST) -> set[str]:
    """The names a module reads, in its code or in its quoted annotations."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for note in filter(None, _annotations(tree)):
        for node in ast.walk(note):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _read_names(ast.parse(node.value, mode="eval"))
    return names


def _imported_names(tree: ast.AST) -> set[str]:
    """The names a module's imports bind, less __future__ features and star imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {alias.asname or alias.name for alias in node.names if alias.name != "*"}
    return names


def test_every_imported_name_is_used():
    unused = set()
    for path in sorted(Path(charvar.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        unused |= {(path.stem, name) for name in _imported_names(tree) - _read_names(tree)}
    assert unused == UNUSED_IMPORTS


def test_every_public_error_is_named_outside_errors():
    # a public error type that no other module names is one that nothing raises
    named = set()
    for path in Path(charvar.__file__).parent.glob("*.py"):
        if path.stem != "errors":
            named |= _read_names(ast.parse(path.read_text()))
    assert set(_module("errors").__all__) - {"CharVarError"} - named == set()

"""In-memory span tracer for the charvar benchmark.

The package binds its functions with ``from .su2 import mul`` and the like,
so one function object sits under several module-level names.  ``Tracer``
replaces the traced public functions at every such name in ``charvar.*``
with a wrapper that records one span per call: name, start, end, parent
span, run id (the benchmark round), batch elements and a per-function
outcome value.  A span's duration is the wrapped call alone; the wrapper's
own bookkeeping (probes included) is timed separately, so it is charged
neither to the call nor to its parent.  Spans are kept in typed arrays
(not Python objects, so the garbage collector never walks them) and turned
into per-layer metrics when the run ends.  Nothing here is imported by the program itself.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from typing import Callable, Optional

import numpy as np


def _batch(out) -> int:
    """Elements in a batched result: GroupElement, Representation or array."""
    if hasattr(out, "q"):
        return out.q.size // 4
    if hasattr(out, "g1"):
        return out.g1.q.size // 4
    return int(np.size(out))


def _exact_center(q: np.ndarray) -> bool:
    return not np.any(q[..., 1:]) and bool(np.all(np.abs(q[..., 0]) == 1.0))


def _probe_mul(args, out):
    a, b = args[0], args[1]
    return _batch(out), float(_exact_center(b.q) or _exact_center(a.q))


def _probe_batch(args, out):
    return _batch(out), 0.0


def _probe_found(args, out):
    return 0, float(out is not None)


def _probe_dim(args, out):
    return 0, float(out.shape[1])


def _probe_truth(args, out):
    return 0, float(bool(out))


# (module, function, probe).  A probe maps (positional args, result) to
# (batch elements, outcome value); it runs after the span it describes has
# closed, inside the wrapper's own time.
TRACED: list[tuple[str, str, Optional[Callable]]] = [
    ("su2", "mul", _probe_mul),
    ("su2", "commutator", None),
    ("su2", "exp_alg", None),
    ("su2", "conjugate", _probe_batch),
    ("su2", "find_conjugator", _probe_found),
    ("su2", "conjugator_nullspace", _probe_dim),
    ("repvar", "relation_residual", _probe_batch),
    ("repvar", "is_abelian", None),
    ("repvar", "class_equal", _probe_truth),
    ("polytope", "moment_coordinates", None),
    ("polytope", "mu_lambda", None),
    ("polytope", "mu_lambda_coordinates", None),
    ("polytope", "write_simplex_csv", None),
    ("flows", "act", _probe_batch),
    ("flows", "generators", None),
    ("flows", "verify_flow_identities", None),
    ("tau", "section", None),
    ("tau", "fiber_coordinates", None),
    ("tau", "tau", None),
    ("sigma", "sigma_fixed_conjugator", None),
    ("sigma", "classify_fixed_point", None),
    ("sigma", "certify_interval_injectivity", None),
    ("cli", "rep_to_obj", None),
    ("cli", "run_sigma_certification", None),
]

# Generator functions: one span per next() call, one item per yield.
TRACED_GENERATORS = [("sampler", "sample"), ("cli", "read_jsonl")]

STAGES = ("sample", "flow", "moment")


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` swap the
    wrappers in and out so untraced rounds run the program unmodified."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.errors: list[str] = [""]
        self.name = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.parent = array("l")
        self.run = array("l")
        self.elems = array("q")
        self.value = array("d")
        self.err = array("i")
        self.outer = array("d")  # whole wrapper time: span plus bookkeeping
        self.run_id = 0
        self._stack: list[int] = []
        self._patches = self._plan()

    # -- span recording ----------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        sid = len(self.t0)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.elems.append(0)
        self.value.append(0.0)
        self.err.append(0)
        self.t1.append(0.0)
        self.outer.append(0.0)
        self._stack.append(sid)
        self.t0.append(time.perf_counter())
        return sid

    def _close(self, sid: int, error: Optional[BaseException]) -> None:
        self.t1[sid] = time.perf_counter()
        self._stack.pop()
        if error is not None:
            kind = type(error).__name__
            if kind not in self.errors:
                self.errors.append(kind)
            self.err[sid] = self.errors.index(kind)

    def _wrap(self, name_of: Callable, fn: Callable, probe: Optional[Callable]):
        def traced(*args, **kwargs):
            enter = time.perf_counter()
            sid = self._open(name_of(args))
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(sid, exc)
                self.outer[sid] = time.perf_counter() - enter
                raise
            self._close(sid, None)
            if probe is not None:
                self.elems[sid], self.value[sid] = probe(args, out)
            self.outer[sid] = time.perf_counter() - enter
            return out

        return traced

    def _wrap_generator(self, name_id: int, fn: Callable):
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def steps():
                while True:
                    enter = time.perf_counter()
                    sid = self._open(name_id)
                    try:
                        item = next(inner)
                    except StopIteration:
                        self._close(sid, None)
                        self.outer[sid] = time.perf_counter() - enter
                        return
                    except BaseException as exc:
                        self._close(sid, exc)
                        self.outer[sid] = time.perf_counter() - enter
                        raise
                    self._close(sid, None)
                    self.elems[sid] = 1
                    self.outer[sid] = time.perf_counter() - enter
                    yield item

            return steps()

        return traced

    # -- patching ----------------------------------------------------------

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every name to replace."""
        wrappers: dict[int, object] = {}
        originals: dict[int, object] = {}
        for module, func, probe in TRACED:
            fn = getattr(importlib.import_module(f"charvar.{module}"), func)
            name_id = self._id(f"{module}.{func}")
            wrappers[id(fn)] = self._wrap(lambda args, i=name_id: i, fn, probe)
            originals[id(fn)] = fn
        for module, func in TRACED_GENERATORS:
            fn = getattr(importlib.import_module(f"charvar.{module}"), func)
            wrappers[id(fn)] = self._wrap_generator(self._id(f"{module}.{func}"), fn)
            originals[id(fn)] = fn
        cli = importlib.import_module("charvar.cli")
        stage_ids = {s: self._id(f"cli.stage.{s}") for s in STAGES}
        other = self._id("cli.main")
        wrappers[id(cli.main)] = self._wrap(
            lambda args: stage_ids.get(args[0][0] if args and args[0] else "", other),
            cli.main,
            None,
        )
        originals[id(cli.main)] = cli.main

        patches = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "charvar" or mod_name.startswith("charvar.")):
                continue
            for attr, value in vars(mod).items():
                if id(value) in originals and value is originals[id(value)]:
                    patches.append((mod, attr, value, wrappers[id(value)]))
        # verification suites are reached through a dict, not a module name
        for suite, fn in getattr(cli, "_SUITES", {}).items():
            wrapper = self._wrap(lambda args, i=self._id(f"cli.verify.{suite}"): i, fn, None)
            patches.append((cli._SUITES, suite, fn, wrapper))
        return patches

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            _assign(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            _assign(owner, attr, original)

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "t0": np.frombuffer(self.t0),
            "t1": np.frombuffer(self.t1),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "run": np.frombuffer(self.run, dtype=np.int64),
            "elems": np.frombuffer(self.elems, dtype=np.int64),
            "value": np.frombuffer(self.value),
            "err": np.frombuffer(self.err, dtype=np.int32),
            "outer": np.frombuffer(self.outer),
        }

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), errors=np.array(self.errors), **self.arrays()
        )

    def top_level(self) -> dict[str, list[int]]:
        """[calls, elems] per span name, for spans with no traced parent."""
        a = self.arrays()
        out: dict[str, list[int]] = {}
        for i in np.flatnonzero(a["parent"] < 0):
            entry = out.setdefault(self.names[a["name"][i]], [0, 0])
            entry[0] += 1
            entry[1] += int(a["elems"][i])
        return out

    def metrics(self, names) -> dict[str, float]:
        """The named per-layer metrics, each found from its name
        ``<module>.<function>.<stat>``; the caller adds trace.rounds and
        trace.overhead_pct."""
        a = self.arrays()
        dur = a["t1"] - a["t0"]
        has_parent = a["parent"] >= 0
        # a child's whole wrapper time, bookkeeping included, is taken out
        # of its parent's self time
        child = np.bincount(
            a["parent"][has_parent], weights=a["outer"][has_parent], minlength=dur.size
        )
        self_s = dur - child
        ambiguous = (
            self.errors.index("ClassificationAmbiguity")
            if "ClassificationAmbiguity" in self.errors
            else -1
        )

        def select(name):
            return a["name"] == self._name_ids.get(name, -1)

        def stat(prefix: str, key: str) -> float:
            m = select(prefix)
            n = int(np.count_nonzero(m))
            if key == "calls":
                return n
            if key in ("elems", "items"):
                return int(a["elems"][m].sum())
            if key == "self_s":
                return float(self_s[m].sum())
            if key in ("p50_ms", "p99_ms"):
                q = 50.0 if key == "p50_ms" else 99.0
                return float(np.percentile(dur[m], q) * 1e3) if n else 0.0
            if key == "failures":
                return int(np.count_nonzero(a["err"][m]))
            if key == "ambiguous":
                return int(np.count_nonzero(a["err"][m] == ambiguous))
            if key == "ns_per_elem":
                e = int(a["elems"][m].sum())
                return float(self_s[m].sum() / e * 1e9) if e else 0.0
            # ratios and means of the recorded outcome value
            return float(a["value"][m].mean()) if n else 0.0

        out: dict[str, float] = {}
        for name in names:
            if name.startswith("trace."):
                continue
            if name == "tau.section_per_tau":
                taus = stat("tau.tau", "calls")
                out[name] = stat("tau.section", "calls") / taus if taus else 0.0
            elif name.startswith(("cli.stage.", "cli.verify.")):
                out[name] = float(dur[select(name[: -len("_s")])].sum())
            else:
                prefix, key = name.rsplit(".", 1)
                out[name] = stat(prefix, key)
        out["trace.spans"] = int(dur.size)
        return out


def _assign(owner, attr, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)

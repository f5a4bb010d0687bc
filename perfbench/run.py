"""Run one charvar benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {stream,ensemble,certify} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: charvar is imported from ``src/``
next to this directory, never from an installed copy.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it carries run metadata.  With
``--trace 0`` the metrics are the end-to-end ones, measured untraced for S
seconds; with ``--trace 1`` they are the per-layer ones, from rounds run
alternately untraced and traced.  The metric names and units are read from
``BENCHMARK.json`` at the checkout root.  Exit code 0 when every output
check passed, 1 when one failed, 2 when the sources are missing.
"""

import time

_T0 = time.perf_counter()  # set-up time is measured from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

# BLAS is pinned to one thread before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Later performance claims must also hold on this seed, which is not used
# while a change is being written.
HELD_OUT_SEED = 7919

SETUP_REPEATS = 5

# The host this was tuned on is a shared 2-vCPU VM whose speed drifts by up
# to 1.7x within seconds.  Every timing is therefore also expressed in
# reference seconds: a fixed loop that uses no charvar code is timed next to
# each round (and each set-up), and REF_NOMINAL_S is that loop's duration on
# the undisturbed host.  It only fixes the unit: changing it rescales every
# past figure alike.  The raw figures go to the metadata.
REF_NOMINAL_S = 0.03
REF_ITERATIONS = 1000

# Minimum traffic of one su2.mul element, computed from the formula (two
# float64 quaternions in, one out; 16 mul + 12 add for the product, 4 mul +
# 3 add + 1 sqrt + 4 div to renormalize), not measured.
MUL_COMPUTED = {"bytes_per_elem": 96, "flops_per_elem": 40}


def reference_seconds() -> float:
    """Duration of the reference loop: small-array numpy calls and float
    arithmetic in the interpreter, the mix charvar's scalar paths run."""
    import numpy as np

    a, b, acc = np.arange(4.0), np.ones(4), 0.0
    start = time.perf_counter()
    for i in range(REF_ITERATIONS):
        c = a * b + np.cross(a[1:], b[1:]).sum()
        acc += float(c[0]) + i * 0.5
    return time.perf_counter() - start


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=["stream", "ensemble", "certify"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics, in the
    order ``BENCHMARK.json`` lists them."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def _import_sources():
    package = SRC / "charvar"
    if not (package / "__init__.py").is_file():
        print(f"error: no charvar sources at {package}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import charvar

    if Path(charvar.__file__).resolve().parent != package.resolve():
        print(f"error: imported charvar from {charvar.__file__}, not {package}", file=sys.stderr)
        raise SystemExit(2)


def _setup_seconds(args) -> tuple[float, float]:
    """(set-up seconds, reference seconds) of one fresh interpreter."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up run failed: {proc.stderr.strip()}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["setup_s"], out["ref_s"]


def _metadata(args, wl, extra: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "l3_size": l3.read_text().strip() if l3.is_file() else "unknown",
        "loop": "closed, 1 caller, 1 process",
        "su2_mul_computed": MUL_COMPUTED,
        "ref_nominal_s": REF_NOMINAL_S,
    }
    meta.update(wl.describe())
    meta.update(extra)
    return meta


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def _untraced(args, wl, workloads):
    """Rounds until ``--seconds`` have passed, the reference loop timed
    between rounds, and SETUP_REPEATS set-up interpreters spread evenly
    among them."""
    results, refs, setups = [], [reference_seconds()], []
    elapsed = 0.0  # rounds and reference loops; set-up interpreters excluded
    while not results or elapsed < args.seconds:
        due = len(setups) * args.seconds / SETUP_REPEATS
        if len(setups) < SETUP_REPEATS and elapsed >= due:
            setups.append(_setup_seconds(args))
            refs[-1] = reference_seconds()
        start = time.perf_counter()
        results.append(wl.run_round(len(results), workloads.Window()))
        refs.append(reference_seconds())
        elapsed += time.perf_counter() - start
    while len(setups) < SETUP_REPEATS:
        setups.append(_setup_seconds(args))
    raw = [r.items / r.seconds for r in results]
    # rate in items per reference second, from the loop timed either side
    rates = [x * (a + b) / (2.0 * REF_NOMINAL_S) for x, a, b in zip(raw, refs, refs[1:])]
    attempted = sum(r.items for r in results)
    failed = sum(r.failed for r in results)
    values = {
        "items_per_s": statistics.median(rates),
        "setup_s": statistics.median(s * REF_NOMINAL_S / ref for s, ref in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": 1.0 - failed / attempted,
    }
    metrics = {k: {"value": values[k], "unit": u} for k, u in _metric_units("end_to_end").items()}
    extra = {
        "rounds": len(results),
        "items_per_s_quartiles": _quartiles(rates),
        "raw_items_per_s_quartiles": _quartiles(raw),
        "ref_s_quartiles": _quartiles(refs),
        "raw_setup_s": [s for s, _ in setups],
        "setup_ref_s": [ref for _, ref in setups],
    }
    return metrics, attempted, failed, True, extra


def _traced(args, wl, workloads):
    import tracer

    rounds = max(1, round(args.seconds / (2.0 * wl.round_s)))
    tr = tracer.Tracer()
    plain, traced = [], []
    for i in range(rounds):
        plain.append(wl.run_round(i, workloads.Window()))
        tr.run_id = i
        traced.append(wl.run_round(i, workloads.Window(tr)))
    units = _metric_units("per_layer")
    values = tr.metrics(units)
    values["trace.rounds"] = rounds
    values["trace.overhead_pct"] = 100.0 * (
        sum(r.seconds for r in traced) / sum(r.seconds for r in plain) - 1.0
    )
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
    tr.save(spans)
    # tracing must not change what the program computes
    same = all(p.digest == t.digest for p, t in zip(plain, traced))
    both = plain + traced
    extra = {"rounds": rounds, "spans_file": str(spans.relative_to(ROOT)), "traced_outputs_identical": same}
    return metrics, sum(r.items for r in both), sum(r.failed for r in both), same, extra


def main(argv=None) -> int:
    args = _parse(argv)
    _import_sources()
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=OUT)
    try:
        wl = workloads.make(args.workload, args.seed, workdir)
        wl.warm_up()
        if args.setup_only:
            setup = time.perf_counter() - _T0
            ref = statistics.median(reference_seconds() for _ in range(3))
            print(json.dumps({"setup_s": setup, "ref_s": ref}))
            return 0
        run = _traced if args.trace else _untraced
        metrics, attempted, failed, consistent, extra = run(args, wl, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = failed == 0 and consistent
    print(json.dumps({"meta": _metadata(args, wl, extra)}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

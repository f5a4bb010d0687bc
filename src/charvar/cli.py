"""Command-line front end: sampling, flowing, involutions, verification.

Formats: JSONL for representation streams, CSV for point clouds, JSON for reports.
A run is a deterministic function of its flags: all randomness flows from ``--seed``.
Each input line is decoded once, and each chunk is checked by one repvar.new_checked inside
the one retry that also runs the stage's map; a refusal names the earliest bad line over
parse, check and map.  Output chunks render from one float array through one template each.

An --out file is written in place: it is opened without truncation and cut, on every exit
(a refusal's included), to what this run wrote, so it holds the same bytes as a fresh file
would.  A target that is not a regular file (/dev/null, a FIFO, a terminal) is written to
and never cut.  One file named by both --in and --out is refused before anything is written.

Exit codes: 0 success, 1 verification failures, 2 flag, config, input or path
errors, 3 solve failures.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import stat
import sys
from itertools import islice
from typing import IO, Iterator, Optional, Sequence

import numpy as np

from .claims import _SUITES, _fixed_point_stream, run_sigma_certification, run_verify
from .errors import (
    ClassificationAmbiguity,
    DegenerateGenerator,
    OutsidePolytope,
    PreconditionViolated,
    RelationViolated,
    _relabelled,
)
from .flows import TorusElement, act
from .polytope import _CSV_HEADER, M_P, _moment_rows, moment_coordinates
from .repvar import _SLOTS, Representation, new_checked, relation_residual
from .sampler import _CHUNK, SampleSpec, Target, sample_batches
from .sigma import classify_fixed_point
from .tau import tau
from .tolerances import DEFAULT, Tolerances

__all__ = ["main"]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

# A line is json.dumps of its row's dict.  Every value the CLI writes is finite: slots
# are unit-checked or built from finite draws, the other columns finite functions of
# them.  json.dumps writes a finite float as float.__repr__, which %r gives for the Python
# floats of tolist (not for np.float64).  Stratum names and piece values are plain ASCII.
_BODY = ", ".join([*(f'"{key}": [%r, %r, %r, %r]' for key in _SLOTS), '"residual": %r'])
_BODY += ', "mu": [%r, %r, %r], "mu_lambda": [%r, %r, %r]'
_LINE = "{" + _BODY + "}\n"
_TAGGED = "{" + _BODY + ', "stratum": "%s", "piece": "%s"}\n'


def _rep_columns(rho: Representation) -> np.ndarray:
    """The (n, 23) columns of a batch's lines: 16 slot components, residual, mu, mu_lambda."""
    mu = moment_coordinates(rho)
    slots = rho.slots().reshape(-1, 16)
    return np.column_stack([slots, relation_residual(rho), mu, M_P.apply_inverse(mu)])


def _lines(rho: Representation) -> str:
    """The JSONL lines of a batch, one _LINE per row of its columns."""
    return "".join(_LINE % tuple(row) for row in _rep_columns(rho).tolist())


def rep_to_obj(rho: Representation) -> dict:
    """JSON-ready dict for one representation: its line, parsed."""
    return json.loads(_lines(rho[None]))


# An integer reads as the float it names (huge ones as inf), so a slot holds JSON floats only.
_DECODER = json.JSONDecoder(parse_int=float)


def _quadruple(text: str) -> list:
    """The four slots of a JSONL line, each a list of four floats, not yet checked as units."""
    obj = _DECODER.decode(text)
    if not isinstance(obj, dict):
        raise PreconditionViolated("input line is not a JSON object")
    for key in _SLOTS:
        if key not in obj:
            raise PreconditionViolated(f"input line lacks slot {key!r}")
        if type(obj[key]) is not list or any(type(x) is not float for x in obj[key]):
            raise PreconditionViolated(f"slot {key!r} must hold numbers")
        if len(obj[key]) != 4:
            raise PreconditionViolated(f"slot {key!r} must hold four components")
    return [obj[key] for key in _SLOTS]


def _classes(texts: Sequence[str], tol: float) -> Representation:
    """The classes of JSONL lines, each decoded once and checked by one new_checked at tol.
    At the first line not an object of four numbers per slot, the lines before it are
    checked, then PreconditionViolated names its row."""
    rows, refusal = [], None
    for text in texts:
        try:
            rows.append(_quadruple(text))
        except (ValueError, PreconditionViolated) as bad:  # JSONDecodeError is a ValueError
            refusal = PreconditionViolated(str(bad))
            refusal.row = (len(rows),)
            break
    q = np.array(rows, dtype=float).reshape(-1, 4, 4)
    rho = new_checked(*Representation.from_slots(q).elements(), tol=tol)
    if refusal is not None:
        raise refusal
    return rho


def _before_refusal(check, numbers: tuple, rows) -> Iterator[tuple]:
    """Yield (numbers, check(rows)); at a refusal, what this yields for the rows before its
    row, then its error, naming its line (library maps refuse a batch whole).  check may
    compose maps: one that refuses names its earliest bad row, but a later map has not yet
    run on the rows before it, so they may still refuse at an earlier row."""
    try:
        out = check(rows)
    except (PreconditionViolated, DegenerateGenerator, OutsidePolytope,
            ClassificationAmbiguity) as bad:
        if i := bad.row[0]:  # the row the refusal names
            yield from _before_refusal(check, numbers[:i], rows[:i])
        raise _relabelled(bad, f"line {numbers[i]}")
    yield numbers, out


def read_jsonl(stream: IO[str], rel_tol: float, step=lambda rho: rho) -> Iterator[tuple]:
    """(line numbers, step(classes)) of JSONL lines in batches of up to _CHUNK lines, the
    classes checked by _classes at rel_tol; at a bad line, the same for the lines before
    it, then its error, naming the earliest bad line over parse, check and step."""
    lines = ((n, text) for n, text in enumerate((raw.strip() for raw in stream), 1) if text)

    def check(texts: Sequence[str]):
        return step(_classes(texts, rel_tol))

    while chunk := list(islice(lines, _CHUNK)):
        yield from _before_refusal(check, *zip(*chunk))


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def _in_place(path: str, flags: int) -> int:
    """open()'s os.open with O_TRUNC cleared, so _opened writes over a file in place."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


@contextlib.contextmanager
def _opened(path: Optional[str]) -> Iterator[IO[str]]:
    """The output at path, closed on exit; without a path, stdout, which is left open.
    A regular file is written from its start without being truncated first, and cut on
    every exit, normal or by a refusal, to what was written: the bytes a fresh file would
    hold.  Any other target (/dev/null, a FIFO, a terminal) is never cut."""
    if not path:
        yield sys.stdout
        return
    with open(path, "w", opener=_in_place) as out:
        try:
            yield out
        finally:
            if stat.S_ISREG(os.fstat(out.fileno()).st_mode):
                out.truncate()  # flushes, then cuts at the position written to


@contextlib.contextmanager
def _piped(args: argparse.Namespace) -> Iterator[tuple[IO[str], IO[str]]]:
    """The input (--in, or stdin) and the output (--out through _opened) of a JSONL stage.
    One file named by both is refused before the output is opened, as writing it would
    overwrite the lines not yet read."""
    paths = (args.infile, args.out)
    if all(paths) and os.path.exists(args.out) and os.path.samefile(*paths):
        raise PreconditionViolated(f"--in and --out name one file: {args.out!r}")
    source = open(args.infile) if args.infile else contextlib.nullcontext(sys.stdin)
    with source as src, _opened(args.out) as out:
        yield src, out


def _parse_triple(text: str, flag: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise PreconditionViolated(f"{flag} expects three comma-separated numbers")
    try:
        values = np.array([float(p) for p in parts])
    except ValueError:
        raise PreconditionViolated(f"{flag} expects numbers, got {text!r}") from None
    if not np.isfinite(values).all():
        raise PreconditionViolated(f"{flag} expects finite numbers, got {text!r}")
    return values


def _tolerances(args: argparse.Namespace) -> Tolerances:
    tol = getattr(args, "tol", None)
    return DEFAULT if tol is None else Tolerances(tol)


def cmd_sample(args: argparse.Namespace) -> int:
    base = None if args.base is None else _parse_triple(args.base, "--base")
    spec = SampleSpec(
        count=args.count, seed=args.seed, target=Target(args.target), base=base,
        conjugate=args.conjugate,
    )
    with _opened(args.out) as out:
        for rho in sample_batches(spec):
            out.write(_lines(rho))
    return 0


def cmd_flow(args: argparse.Namespace) -> int:
    if args.t is None:  # optional at parse time, so that a t= config line can set it
        raise PreconditionViolated("flow needs --t phi1,phi2,phi3 (or a t= config line)")
    phi = _parse_triple(args.t, "--t")
    t = TorusElement(float(phi[0]), float(phi[1]), float(phi[2]))
    with _piped(args) as (src, out):
        for _, moved in read_jsonl(src, DEFAULT.rel, functools.partial(act, t)):
            out.write(_lines(moved))
    return 0


def cmd_moment(args: argparse.Namespace) -> int:
    tol = _tolerances(args)

    def rows(rho: Representation) -> str:
        return _moment_rows(moment_coordinates(rho), quotient=args.quotient, tol=tol.poly)

    with _piped(args) as (src, out):
        out.write(_CSV_HEADER)
        for _, text in read_jsonl(src, tol.rel, rows):
            out.write(text)
    return 0


def cmd_tau(args: argparse.Namespace) -> int:
    tol = _tolerances(args)
    bad = 0
    with _piped(args) as (src, out):
        for _, rho in read_jsonl(src, tol.rel):
            image = tau(rho)
            if args.check:
                # tau is a word map, so tau(tau(rho)) is rho slot by slot up to roundoff
                bad += int(np.count_nonzero(~(tau(image).slot_distance(rho) < tol.mat)))
            out.write(_lines(image))
    return 1 if bad else 0


def cmd_fixed_points(args: argparse.Namespace) -> int:
    classify = functools.partial(classify_fixed_point, tol=_tolerances(args).mat)
    batches = _fixed_point_stream(args.count, np.random.default_rng(args.seed))
    with _opened(args.out) as out:
        for start, batch in zip(range(1, args.count + 1, _CHUNK), batches):
            numbers = tuple(range(start, start + batch.batch_shape[0]))
            for _, point in _before_refusal(classify, numbers, batch):
                tags = zip(point.stratum.tolist(), point.piece.tolist())
                rows = zip(_rep_columns(point.rep).tolist(), tags)
                out.write("".join(_TAGGED % (*row, s.name, p.value) for row, (s, p) in rows))
    return 0


def cmd_certify_sigma(args: argparse.Namespace) -> int:
    report = run_sigma_certification(args.samples, args.seed, _tolerances(args), args.grid)
    with _opened(args.out) as out:
        out.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 1 if report["violations"] else 0


def cmd_verify(args: argparse.Namespace) -> int:
    report = run_verify(args.suite, samples=args.samples, seed=args.seed, tol=_tolerances(args))
    sys.stdout.write(report.to_json() + "\n")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _at_least(minimum: int):
    """Integer converter with a floor: the count, grid and seed flags and their config keys."""

    def convert(text: str) -> int:
        if int(text) < minimum:
            raise ValueError(text)
        return int(text)

    convert.__name__ = f"integer >= {minimum}"  # argparse names the type in its message
    return convert


_SEED = _at_least(0)
_COUNT = _at_least(1)
_GRID = _at_least(2)


def _flag(text: str) -> bool:
    word = text.lower()
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return False
    raise ValueError(text)


def _config_actions(commands: dict) -> dict:
    """command -> key -> action of each long flag of each subcommand but --help
    (whose default is SUPPRESS): the keys a config line may set."""
    return {
        name: {
            flag[2:]: action
            for action in sp._actions
            if action.default is not argparse.SUPPRESS
            for flag in action.option_strings
            if flag.startswith("--")
        }
        for name, sp in commands.items()
    }


def _load_config(path: str, commands: dict, command: str) -> dict:
    """dest -> value of the key=value lines of a config file that `command`
    takes.  A key of another command is checked by its flag, then ignored."""
    keyed, values = _config_actions(commands), {}
    with open(path, "r") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise PreconditionViolated(f"{path}:{lineno}: expected key=value")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            actions = {name: keys[key] for name, keys in keyed.items() if key in keys}
            if not actions:
                raise PreconditionViolated(f"{path}:{lineno}: unknown key {key!r}")
            for name, action in actions.items():
                try:  # read as the flag reads it: its type (_flag if on/off), its choices
                    value = (_flag if action.nargs == 0 else action.type or str)(val)
                    if action.choices is not None and value not in action.choices:
                        raise ValueError(val)
                except ValueError:
                    raise PreconditionViolated(
                        f"{path}:{lineno}: bad value for {key}: {val!r}"
                    ) from None
                if name == command:
                    values[action.dest] = value
    return values


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its command -> subparser map, built on the first call
    and shared by every later one."""
    parser = argparse.ArgumentParser(
        prog="charvar",
        description="Sample, flow, and verify conjugacy classes of"
        " commutator-relation quadruples in SU(2).",
    )
    parser.add_argument("--config", help="key=value file supplying flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sample", help="draw representations and write JSONL")
    sp.add_argument("--count", type=_COUNT, default=10)
    sp.add_argument("--seed", type=_SEED, default=0)
    sp.add_argument(
        "--target",
        choices=[t.value for t in Target],
        default="interior",
    )
    sp.add_argument("--base", help="x1,x2,x3 interior base point (pins the fiber)")
    sp.add_argument("--conjugate", action="store_true")
    sp.add_argument("--out")
    sp.set_defaults(handler=cmd_sample)

    fp = sub.add_parser("flow", help="apply a twist triple to a JSONL stream")
    fp.add_argument("--t", help="phi1,phi2,phi3 twist angles (required: flag or t= line)")
    fp.add_argument("--in", dest="infile")
    fp.add_argument("--out")
    fp.set_defaults(handler=cmd_flow)

    mp = sub.add_parser("moment", help="trace coordinates of a JSONL stream as CSV")
    mp.add_argument("--in", dest="infile")
    mp.add_argument("--out")
    mp.add_argument("--quotient", action="store_true", help="emit simplex coordinates")
    mp.add_argument("--tol", type=float)
    mp.set_defaults(handler=cmd_moment)

    tp = sub.add_parser("tau", help="apply the involution (h1 g1, h1^-1, h2 g2, h2^-1)")
    tp.add_argument("--in", dest="infile")
    tp.add_argument("--out")
    tp.add_argument("--check", action="store_true", help="verify the involution squares to id")
    tp.add_argument("--tol", type=float)
    tp.set_defaults(handler=cmd_tau)

    xp = sub.add_parser("fixed-points", help="sample swap-fixed classes with tags")
    xp.add_argument("--count", type=_COUNT, default=20)
    xp.add_argument("--seed", type=_SEED, default=0)
    xp.add_argument("--out")
    xp.add_argument("--tol", type=float)
    xp.set_defaults(handler=cmd_fixed_points)

    cp = sub.add_parser("certify-sigma", help="certify the swap fixed-locus suites")
    cp.add_argument("--samples", type=_COUNT, default=100)
    cp.add_argument("--seed", type=_SEED, default=0)
    cp.add_argument("--grid", type=_GRID, default=10)
    cp.add_argument("--out")
    cp.add_argument("--tol", type=float)
    cp.set_defaults(handler=cmd_certify_sigma)

    vp = sub.add_parser("verify", help="run a verification suite, print a JSON report")
    vp.add_argument("--suite", choices=["all", *sorted(_SUITES)], default="all")
    vp.add_argument("--samples", type=_COUNT, default=200)
    vp.add_argument("--seed", type=_SEED, default=0)
    vp.add_argument("--tol", type=float)
    vp.set_defaults(handler=cmd_verify)

    return parser, sub.choices


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            # flags override config-file values: install them as this command's
            # defaults for one more parse, then put the shared parser's back
            values = _load_config(args.config, commands, args.command)
            sp = commands[args.command]
            saved = {dest: sp.get_default(dest) for dest in values}
            sp.set_defaults(**values)
            try:
                args = parser.parse_args(argv)
            finally:
                sp.set_defaults(**saved)
        return args.handler(args)
    except SystemExit as stop:  # argparse reports flag errors with code 2
        code = stop.code
        return code if isinstance(code, int) else 2
    except (
        RelationViolated,
        OutsidePolytope,
        DegenerateGenerator,
        ClassificationAmbiguity,
    ) as bad:
        print(f"solve failure: {bad}", file=sys.stderr)
        return 3
    except PreconditionViolated as bad:
        print(f"error: {bad}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as bad:  # a path that cannot be opened or decoded
        print(f"error: {bad}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

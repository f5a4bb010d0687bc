"""The batched flows, polytope, tau, sigma and density verify suites, the chunked
sampler (every target), the sigma fixed-point stream and the batched sigma, density
and flow-identity constructions, against the per-item loops they replaced.

The oracles below build one sample at a time (for interior samples: base
point, torus angles, Haar conjugator, each drawn just before it is used) and
check it before drawing the next.  The batched code must make the same draws
in the same order and report the same trials, failures and residuals, bit for
bit.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import sys
from unittest import mock

import numpy as np
import pytest

from charvar import claims, su2
from charvar.claims import (
    _ID,
    _density_suite,
    _fixed_point_stream,
    _flows_suite,
    _near_boundary_draw,
    _nonkernel_torus,
    _polytope_suite,
    _pure_unit,
    _sigma_suite,
    _tau_suite,
    run_sigma_certification,
    run_verify,
)
from charvar.errors import (
    CharVarError,
    ClassificationAmbiguity,
    OutsidePolytope,
    PreconditionViolated,
)
from charvar.flows import TorusElement, act, verify_flow_identities
from charvar.polytope import (
    M_P,
    STD_DELTA,
    TILDE_DELTA,
    SimplexPoint,
    boundary_commutation_check,
    moment_mu,
    mu_lambda,
    mu_lambda_coordinates,
    trace_triple,
)
from charvar.repvar import Representation, _class_equal, class_equal, is_abelian, relation_residual
from charvar.sampler import (
    _CHUNK,
    SampleSpec,
    Target,
    _build,
    _diag,
    _draw,
    _interior_base,
    _random_axis,
    _random_torus,
    density_witness,
    sample,
    sample_batches,
)
from charvar.sigma import (
    DIAG_I,
    Piece,
    SigmaFixedPoint,
    Stratum,
    blowup_point,
    certify_interval_injectivity,
    classify_fixed_point,
    n2_interval,
    pillow_point,
    rp2_fiber_point,
    sigma_fixed_conjugator,
)
from charvar.su2 import (
    AlgebraElement,
    GroupElement,
    StabilizerType,
    _cross,
    commutator,
    exp_alg,
    haar_sample,
    stabilizer_type,
)
from charvar.tau import section, tau
from charvar.tolerances import DEFAULT, EPS_CENTER, Tolerances
from test_sigma import EVERY_PIECE, diag, every_piece_batch, swap_rep

sigma_module = importlib.import_module("charvar.sigma")  # the package's sigma is the function


def single_interior(rng, base=None, conjugate=True):
    x = _interior_base(rng) if base is None else base
    rho = act(_random_torus(rng), section(x))
    return rho.conjugated(haar_sample(rng)) if conjugate else rho


def flows_oracle(n, rng, tol):
    failures = 0
    res = {"relation-after-flow": 0.0, "intertwine-h2": 0.0, "intertwine-h1": 0.0, "kernel-fix": 0.0}
    for i in range(n):
        rho = single_interior(rng)
        ok = True
        moved = act(_random_torus(rng), rho)
        r = float(relation_residual(moved))
        res["relation-after-flow"] = max(res["relation-after-flow"], r)
        ok &= r < tol.mat
        ident = verify_flow_identities(rho, float(rng.uniform(0.0, 2.0 * np.pi)))
        res["intertwine-h2"] = max(res["intertwine-h2"], float(ident.residual_h2))
        res["intertwine-h1"] = max(res["intertwine-h1"], float(ident.residual_h1))
        ok &= ident.passed(tol.mat)
        k = act(TorusElement.kernel(), rho).slot_distance(rho)
        res["kernel-fix"] = max(res["kernel-fix"], k)
        ok &= k == 0.0
        if i % 10 == 0:
            ok &= not class_equal(act(_nonkernel_torus(rng), rho), rho, tol=tol.mat)
        failures += 0 if ok else 1
    return n, failures, res


def polytope_oracle(n, rng, tol):
    failures = 0
    res = {
        "tetra-membership": -np.inf,
        "vertex-bijection": 0.0,
        "quotient-interior": -np.inf,
        "section-roundtrip": 0.0,
    }
    a, b = haar_sample(rng, (n,)), haar_sample(rng, (n,))
    for i in range(n):
        margin = float(TILDE_DELTA.margin(trace_triple(a[i], b[i])))
        res["tetra-membership"] = max(res["tetra-membership"], margin)
        failures += margin > tol.poly

    small = n // 10 + 1
    for _ in range(small):  # each near-boundary row at its own tolerances
        eps, t1, t2 = _near_boundary_draw(rng)
        bump = exp_alg(AlgebraElement(np.array([eps, 0.0, 0.0])))
        rho = Representation(_diag(0.1), _diag(t1), _diag(0.2), bump * _diag(t2))
        failures += not boundary_commutation_check(rho, 10.0 * eps, 10.0 * eps)
    for _ in range(small):
        failures += not boundary_commutation_check(single_interior(rng), tol.poly, tol.mat)

    images = (M_P.m.astype(np.int64) @ STD_DELTA.vertices.astype(np.int64).T).T
    got = {tuple(int(x) for x in v) for v in images}
    if got != {tuple(int(x) for x in v) for v in TILDE_DELTA.vertices.astype(np.int64)}:
        failures += 1
        res["vertex-bijection"] = 1.0

    for _ in range(small):
        m = float(STD_DELTA.margin(mu_lambda_coordinates(single_interior(rng))))
        res["quotient-interior"] = max(res["quotient-interior"], m)
        failures += m >= 0.0
    for _ in range(small):
        x = rng.uniform(0.05, 0.45, size=3)
        if float(STD_DELTA.margin(x)) <= -0.02:
            err = float(np.max(np.abs(mu_lambda_coordinates(section(x)) - x)))
            res["section-roundtrip"] = max(res["section-roundtrip"], err)
            failures += err > 100.0 * tol.f
    return n + 3 * small, failures, res


def tau_oracle(n, rng, tol):
    failures = 0
    res = {"moment-drift": 0.0, "involution": 0.0, "reversal": 0.0}
    for _ in range(n):
        rho = single_interior(rng)
        image = tau(rho)
        drift = float(np.max(np.abs(mu_lambda_coordinates(image) - mu_lambda_coordinates(rho))))
        t = _random_torus(rng)
        involution = tau(image).slot_distance(rho)
        reversal = tau(act(t, rho)).slot_distance(act(t.inverse(), image))
        res["moment-drift"] = max(res["moment-drift"], drift)
        res["involution"] = max(res["involution"], involution)
        res["reversal"] = max(res["reversal"], reversal)
        ok = drift < 100.0 * tol.f and involution < tol.mat and reversal < tol.mat
        failures += 0 if ok else 1
    return n, failures, res


def sigma_oracle(n, rng, tol):
    failures = 0
    res = {"pillow-conjugator": 0.0}
    small = max(n // 10, 1)

    for _ in range(n):
        rho = pillow_point(haar_sample(rng), haar_sample(rng))
        k, fixed = sigma_fixed_conjugator(rho, tol=tol.mat)
        if not fixed:
            failures += 1
            continue
        dev = float(min(np.linalg.norm(k.q - _ID.q), np.linalg.norm(k.q + _ID.q)))
        res["pillow-conjugator"] = max(res["pillow-conjugator"], dev)
        if dev > tol.mat * 10.0:
            failures += 1

    for _ in range(small):
        k1, k2 = _pure_unit(rng), _pure_unit(rng)
        if not class_equal(rp2_fiber_point(k1), rp2_fiber_point(-k1), tol=tol.mat):
            failures += 1
        if float(np.linalg.norm(_cross(k1.vec, k2.vec))) > 1e-2:
            if class_equal(rp2_fiber_point(k1), rp2_fiber_point(k2), tol=tol.mat):
                failures += 1

    for _ in range(small):
        theta, s = rng.uniform(0.3, np.pi - 0.3, size=2)
        report = certify_interval_injectivity(float(theta), float(s), grid=5, tol=tol.mat)
        if not report.passed:
            failures += 1

    one = GroupElement.identity()
    for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        rho = Representation(
            one if signs[0] > 0 else -one,
            one if signs[1] > 0 else -one,
            one if signs[1] > 0 else -one,
            one if signs[0] > 0 else -one,
        )
        if classify_fixed_point(rho, tol=tol.mat).stratum is not Stratum.III:
            failures += 1

    batch = _build([_draw(rng) for _ in range(small)])
    for i in range(small):  # interior classes are never swap-fixed
        if sigma_fixed_conjugator(batch[i], tol=tol.mat)[1]:
            failures += 1
    return n + 4 * small + 4, failures, res


def density_oracle(n, rng, tol):
    failures = 0
    res = {"witness-approach": 0.0}
    for _ in range(n):
        angles = rng.uniform(0.3, np.pi - 0.3, size=4)
        rho = Representation(*(_diag(float(v)) for v in angles))
        near = density_witness(rho, 1e-4)
        gap = near.slot_distance(rho)
        ok = not is_abelian(near, tol.mat)
        ok &= not is_abelian(density_witness(rho, 0.5), tol.mat)
        ok &= not is_abelian(density_witness(rho, 1.0), tol.mat)
        res["witness-approach"] = max(res["witness-approach"], gap)
        ok &= gap < 1e-3
        failures += 0 if ok else 1
    return n, failures, res


def fixed_point_oracle(count, rng, haar=haar_sample):
    """The fixed-point stream built item by item, as lists of slot arrays per
    chunk, and the number of near-commuting pairs drawn again."""
    chunks, redraws = [], 0
    for start in range(0, count, _CHUNK):
        rows = []
        while len(rows) < min(_CHUNK, count - start):
            kind = (start + len(rows)) % 4
            if kind < 2:
                g, h = haar(rng), haar(rng)
                axis = commutator(g, h).vec
                if float(np.linalg.norm(axis)) < 1e-3:
                    redraws += 1
                    continue
                k = GroupElement(np.concatenate(([0.0], AlgebraElement(axis).unit().v)))
                rho = pillow_point(g, h) if kind == 0 else blowup_point(g, h, k)
            elif kind == 2:
                rho = rp2_fiber_point(_pure_unit(rng))
            else:
                theta, s = rng.uniform(0.3, np.pi - 0.3, size=2)
                rho = n2_interval(float(theta), float(s), float(rng.uniform(0.1, np.pi / 2 - 0.1)))
            rows.append(rho.slots())
        chunks.append(rows)
    return chunks, redraws


def classify_oracle(rho, tol=DEFAULT.mat):
    """The point of each quadruple of a batch, one row at a time in row-major order, as
    the classification read them before it returned arrays: at the first row it cannot
    classify, its error, after the points before it.  Kept as the reference."""
    flat = Representation.from_slots(rho.slots().reshape(-1, 4, 4))
    swapped, k, worst = sigma_module._fixedness_solve(flat)
    strata = stabilizer_type(GroupElement(flat.slots()), axis_tol=tol)
    comm = commutator(flat.g1, flat.h1)
    comm_dist = su2.distance(comm, GroupElement.identity())
    tr_dist = np.abs(comm.trace() + 2.0)
    k2 = su2.mul(k, k)
    d_plus = su2.distance(k2, GroupElement.identity())
    d_minus = su2.distance(k2, -GroupElement.identity())
    n2 = np.flatnonzero((worst < tol) & (strata != StabilizerType.FULL) & (comm_dist < tol))
    arc_piece = {}
    if n2.size:
        arc = flat[n2]
        q = k.q.copy()
        q[n2] = sigma_module._pure_imaginary_conjugators(arc, swapped[n2], k[n2], tol).q
        k = GroupElement(q)
        other = Representation(arc.g1, arc.h1, arc.h1.inverse(), arc.g1.inverse())
        ends = sigma_module._stacked(pillow_point(arc.g1, arc.h1), other)
        surface, endpoint = _class_equal(sigma_module._stacked(arc, arc), ends, tol).reshape(2, -1)
        interval = np.where(endpoint, Piece.INTERVAL_ENDPOINT, Piece.INTERVAL_INTERIOR)
        arc_piece = dict(zip(n2.tolist(), np.where(surface, Piece.PILLOW_SURFACE, interval)))
    for i in range(len(worst)):
        if not worst[i] < tol:
            if worst[i] < 10 * tol:
                raise ClassificationAmbiguity("sigma-fixedness residual lies between tol and 10*tol")
            raise PreconditionViolated("class is not sigma-fixed")
        rep, stratum = flat[i], sigma_module._STRATUM_OF[strata[i]]
        if stratum is Stratum.III:
            yield SigmaFixedPoint(rep, DIAG_I, stratum, Piece.CENTRAL_VERTEX)
            continue
        if tol <= comm_dist[i] < 10 * tol:
            raise ClassificationAmbiguity(
                f"[g1,h1] centrality residual {comm_dist[i]:.3e} in the gray zone"
            )
        if i in arc_piece:
            piece = arc_piece[i]
        elif min(d_plus[i], d_minus[i]) >= EPS_CENTER:
            raise ClassificationAmbiguity(
                f"k^2 is not numerically central (residuals {d_plus[i]:.3e}/{d_minus[i]:.3e})"
            )
        elif d_plus[i] < d_minus[i]:
            piece = Piece.PILLOW_INTERIOR
        elif tol <= tr_dist[i] < 10 * tol:
            raise ClassificationAmbiguity(
                f"tr[g1,h1] = -2 residual {tr_dist[i]:.3e} in the gray zone"
            )
        else:
            piece = Piece.RP2_FIBER if tr_dist[i] < tol else Piece.BLOWUP_INTERIOR
        yield SigmaFixedPoint(rep, k[i], stratum, piece)


def flow_identities_oracle(rho, t):
    """The residuals of verify_flow_identities by the public su2 calls."""
    t = np.asarray(t, dtype=np.float64)[..., None]
    etx = exp_alg(AlgebraElement(2.0 * su2.mul(rho.h2, rho.h1).vec * t))
    ety = exp_alg(AlgebraElement(2.0 * su2.mul(rho.h1, rho.h2).vec * t))
    residual_h2 = su2.distance(su2.mul(etx, rho.h2), su2.mul(rho.h2, ety))
    residual_h1 = su2.distance(su2.mul(rho.h1, etx), su2.mul(ety, rho.h1))
    return residual_h2, residual_h1


SUITES = [
    (_flows_suite, flows_oracle),
    (_polytope_suite, polytope_oracle),
    (_tau_suite, tau_oracle),
    (_sigma_suite, sigma_oracle),
    (_density_suite, density_oracle),
]


@pytest.mark.parametrize("suite, oracle", SUITES)
@pytest.mark.parametrize("samples", [1, 10, 37])
@pytest.mark.parametrize("seed", [0, 5, 7919])
def test_suite_equals_per_item_loop(suite, oracle, samples, seed):
    got = suite(samples, np.random.default_rng(seed), DEFAULT)
    want = oracle(samples, np.random.default_rng(seed), DEFAULT)
    assert got == want
    assert all(type(v) is float for v in got[2].values())


def test_suite_counts_failures_per_item():
    # a tolerance nothing meets fails every item of the flows and tau suites,
    # not the batch as one; one everything meets makes every density witness
    # read abelian and every interior point read swap-fixed
    strict = Tolerances(1e-300)
    loose = Tolerances(1e290)
    for suite, oracle in SUITES:
        for tol in (strict, loose):
            got = suite(12, np.random.default_rng(3), tol)
            assert got == oracle(12, np.random.default_rng(3), tol)
            if tol is strict and suite in (_flows_suite, _tau_suite):
                assert got[1] == 12
    assert _density_suite(12, np.random.default_rng(3), loose)[1] == 12
    # 30 samples, 3 of each small check: every projective pair collides, every
    # arc has collisions and every interior point reads fixed
    got = _sigma_suite(30, np.random.default_rng(3), loose)
    assert got == sigma_oracle(30, np.random.default_rng(3), loose)
    assert got[1] == 9


class TinyFirstTurn:
    """A Generator whose torus-angle draws, uniform(0, 2 pi, size=3), all
    start with the angle 1e-20."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def uniform(self, low=0.0, high=1.0, size=None):
        out = self._rng.uniform(low, high, size)
        if (low, high, size) == (0.0, 2.0 * np.pi, 3):
            out[0] = 1e-20
        return out


@pytest.mark.parametrize("samples", [1, 10])
def test_tau_suite_at_a_tiny_turn_equals_per_item_loop(samples):
    # t.inverse() stores -1e-20 mod 2 pi, which is 2 pi exactly; the suite's
    # one act over both directions takes its angles from the draws, and every
    # residual is still the per-item loop's
    assert TorusElement(-1e-20, 0.0, 0.0).phi1 == 2.0 * np.pi
    got = _tau_suite(samples, TinyFirstTurn(samples), DEFAULT)
    assert got == tau_oracle(samples, TinyFirstTurn(samples), DEFAULT)


def _counted_calls(f, *args, names=("find_conjugator",)) -> dict:
    """The calls f(*args) makes to the charvar functions of the given names,
    each counted at every charvar module name bound to it, and its
    np.linalg.svd calls (under "svd")."""
    modules = [m for name, m in sys.modules.items() if name.startswith("charvar")]
    calls: list[str] = []

    def counted(real, name):
        def wrapper(*a, **k):
            calls.append(name)
            return real(*a, **k)

        return wrapper

    with contextlib.ExitStack() as stack:
        for name in names:
            real = next(getattr(m, name) for m in modules if hasattr(m, name))
            wrapper = counted(real, name)
            for m in modules:
                if getattr(m, name, None) is real:
                    stack.enter_context(mock.patch.object(m, name, wrapper))
        stack.enter_context(mock.patch.object(np.linalg, "svd", counted(np.linalg.svd, "svd")))
        f(*args)
    return {name: calls.count(name) for name in (*names, "svd")}


def certify_round(samples=10):
    run_verify("all", samples=10, seed=3)
    run_sigma_certification(samples, seed=3, grid=10)


def test_certify_round_makes_pinned_solves():
    # one certify round: 1 solve in flows (the probes' classes), 4 in sigma
    # (pillow and interior fixedness, projective classes, arc grids, central
    # classification) and 3 in certify-sigma (classification, both N2
    # surfaces, arc grids); one SVD each, plus the N2 rows' pure solve
    assert _counted_calls(certify_round) == {"find_conjugator": 8, "svd": 9}


@pytest.mark.parametrize("samples, chunks", [(10, 1), (_CHUNK + 2, 2)])
def test_certify_round_makes_pinned_builds(samples, chunks):
    # one density witness call and one blow-up build per fixed-point chunk (the
    # second chunk holds a pillow and a blow-up point); the flow identities and
    # the fixed-point builds call the kernels, not the public product or exponential.
    # The products left: 4 in tau, the polytope suite's bump, 2 projective
    # builds, the central classification, and per chunk the classification
    # and blowup_point's k^2; the exponentials: 8 diagonal slots, the bump
    # and the witnesses' conjugators
    names = ("density_witness", "blowup_point", "mul", "exp_alg")
    calls = _counted_calls(certify_round, samples, names=names)
    assert calls == {"density_witness": 1, "blowup_point": chunks, "mul": 8 + 2 * chunks,
                     "exp_alg": 10, "svd": 9 + chunks - 1}


def single_face(rng):
    theta1, theta2 = rng.uniform(0.0, np.pi, size=2)
    if rng.uniform() < 0.5:
        theta2 = -theta2
    a1, a2 = rng.uniform(-np.pi, np.pi, size=2)
    return Representation(_diag(a1), _diag(theta1), _diag(a2), _diag(theta2))


def single_edge(rng):
    g1 = haar_sample(rng)
    axis = AlgebraElement(_random_axis(rng))
    a, b = rng.uniform(-np.pi, np.pi, size=2)
    g2 = exp_alg(AlgebraElement(a * axis.v))
    h2 = exp_alg(AlgebraElement(b * axis.v))
    return Representation(g1, GroupElement.identity(), g2, h2)


def single_vertex(rng):
    one = GroupElement.identity()
    return Representation(haar_sample(rng), one, haar_sample(rng), one)


def single_abelian(rng):
    angles = rng.uniform(-np.pi, np.pi, size=4)
    return Representation(*(_diag(float(a)) for a in angles))


# the sampler's per-item builders before every target was built in batches
SINGLE = {
    Target.BOUNDARY_FACE: single_face,
    Target.BOUNDARY_EDGE: single_edge,
    Target.VERTEX: single_vertex,
    Target.ABELIAN_TORUS: single_abelian,
}


def single_item(spec, rng):
    if spec.target is Target.INTERIOR_UNIFORM_BASE:
        return single_interior(rng, spec.base, spec.conjugate)
    rho = SINGLE[spec.target](rng)
    return rho.conjugated(haar_sample(rng)) if spec.conjugate else rho


@pytest.mark.parametrize("conjugate", [True, False])
@pytest.mark.parametrize(
    "target, base",
    [*(pytest.param(target, None, id=str(target)) for target in Target),
     pytest.param(Target.INTERIOR_UNIFORM_BASE, (0.2, 0.3, 0.1), id="pinned-base")],
)
def test_sample_equals_per_item_construction(target, base, conjugate):
    # one chunk and three more items: the stream crosses a chunk boundary
    spec = SampleSpec(count=_CHUNK + 3, seed=17, target=target, base=base, conjugate=conjugate)
    rng = np.random.default_rng(17)
    want = np.stack([single_item(spec, rng).slots() for _ in range(spec.count)])
    batches = list(sample_batches(spec))
    assert [batch.batch_shape for batch in batches] == [(_CHUNK,), (3,)]
    got = np.concatenate([batch.slots() for batch in batches])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    items = list(sample(spec))
    assert [rho.batch_shape for rho in items] == [()] * spec.count
    assert np.array_equal(np.stack([rho.slots() for rho in items]).view(np.int64), want.view(np.int64))



def same_bits(a: Representation, b: Representation) -> bool:
    return np.array_equal(a.slots().view(np.int64), b.slots().view(np.int64))


def stack(*parts: Representation) -> Representation:
    slots = np.concatenate([p.slots() for p in parts])
    return Representation(*(GroupElement(slots[:, i]) for i in range(4)))


def test_density_witness_rows_are_single_calls():
    # abelian starts on random common axes
    rng = np.random.default_rng(23)
    angles = rng.uniform(0.3, np.pi - 0.3, size=(40, 4)) * rng.choice([-1.0, 1.0], size=(40, 4))
    rho = Representation(*(_diag(angles[:, i]) for i in range(4))).conjugated(haar_sample(rng, (40,)))
    for t in (0.0, 1e-4, 0.5, 1.0):
        batch = density_witness(rho, t)
        assert batch.batch_shape == (40,)
        for i in range(40):
            assert same_bits(batch[i], density_witness(rho[i], t))
    # one path parameter per quadruple, the ends of the path included
    t = rng.uniform(0.0, 1.0, size=40)
    t[:4] = 0.0, 1e-4, 0.5, 1.0
    batch = density_witness(rho, t)
    assert batch.batch_shape == (40,)
    for i in range(40):
        assert same_bits(batch[i], density_witness(rho[i], float(t[i])))
        assert same_bits(batch[i], density_witness(rho, float(t[i]))[i])


def test_rp2_fiber_point_rows_are_single_calls():
    k = _pure_unit(np.random.default_rng(29), (40,))
    batch = rp2_fiber_point(k)
    assert batch.batch_shape == (40,)
    for i in range(40):
        assert same_bits(batch[i], rp2_fiber_point(k[i]))


def test_fixedness_read_rows_are_single_calls():
    # fixed rows (pillow, projective, arc points) and unfixed interior rows
    rng = np.random.default_rng(31)
    rho = stack(
        pillow_point(haar_sample(rng, (8,)), haar_sample(rng, (8,))),
        rp2_fiber_point(_pure_unit(rng, (8,))),
        n2_interval(0.9, 0.4, np.linspace(0.0, np.pi / 2, 8)),
        _build([_draw(rng) for _ in range(8)]),
    )
    k, fixed = sigma_fixed_conjugator(rho, DEFAULT.mat)
    assert fixed.tolist() == [True] * 24 + [False] * 8
    for i in range(32):
        k_i, fixed_i = sigma_fixed_conjugator(rho[i], DEFAULT.mat)
        assert k_i.batch_shape == () and isinstance(fixed_i, bool)
        assert fixed_i == fixed[i]
        assert np.array_equal(k.q[i].view(np.int64), k_i.q.view(np.int64))


@pytest.mark.parametrize("moment", [moment_mu, mu_lambda])
def test_moment_map_rows_are_single_calls(moment):
    # interior, swap, projective and abelian (boundary) rows as one 2-D
    # batch, read in row-major order with one tolerance per quadruple
    rng = np.random.default_rng(41)
    angles = rng.uniform(0.3, np.pi - 0.3, size=(4, 4))
    flat = stack(
        _build([_draw(rng) for _ in range(4)]),
        pillow_point(haar_sample(rng, (4,)), haar_sample(rng, (4,))),
        rp2_fiber_point(_pure_unit(rng, (4,))),
        Representation(*(_diag(angles[:, i]) for i in range(4))),
    )
    tol = np.repeat([1e-12, 1e-9, 1e-6, 1e-3], 4)
    points = moment(Representation.from_slots(flat.slots().reshape(2, 8, 4, 4)), tol)
    assert isinstance(points, list) and len(points) == 16
    for i, point in enumerate(points):
        single = moment(flat[i], tol[i])
        assert isinstance(single, SimplexPoint)
        assert np.array_equal(single.x.view(np.int64), point.x.view(np.int64))
        assert (single.region, single.polytope) == (point.region, point.polytope)
    one = moment(flat[:1])  # a batch of one is a batch
    assert isinstance(one, list) and isinstance(one[0], SimplexPoint)
    # a row outside refuses the whole batch and names itself, on a 2-D batch too
    tol[5] = -1.0  # no point lies that far inside
    square = Representation.from_slots(flat.slots().reshape(2, 8, 4, 4))
    for rho, row in ((flat, (5,)), (square, (0, 5))):
        with pytest.raises(OutsidePolytope) as raised:
            moment(rho, tol)
        assert raised.value.row == row and str(raised.value).endswith(f" (row {row})")
    # the rows before it are the points the batch's prefix reads
    assert [p.region for p in moment(flat[:5], tol[:5])] == [p.region for p in points[:5]]


def test_batched_preconditions_hold_on_every_row():
    rng = np.random.default_rng(37)
    angles = rng.uniform(0.3, np.pi - 0.3, size=(5, 4))
    rho = Representation(*(_diag(angles[:, i]) for i in range(4)))
    density_witness(rho, 0.5)
    central = rho.slots().copy()
    central[3, 1] = [1.0, 0.0, 0.0, 0.0]  # one central slot in one row
    nonabelian = rho.slots().copy()
    nonabelian[2, 0] = haar_sample(rng).q  # one row leaves the torus
    for slots in (central, nonabelian):
        with pytest.raises(PreconditionViolated):
            density_witness(Representation(*(GroupElement(slots[:, i]) for i in range(4))), 0.5)
    k = _pure_unit(rng, (5,)).q.copy()
    k[4] = haar_sample(rng).q  # k^2 != -1 in one row
    with pytest.raises(PreconditionViolated):
        rp2_fiber_point(GroupElement(k))


def stream_bits(count, rng) -> list:
    return [batch.slots() for batch in _fixed_point_stream(count, rng)]


@pytest.mark.parametrize("count", [*range(1, 10), 40, 257])
@pytest.mark.parametrize("seed", [0, 3, 5, 7919])
def test_fixed_point_stream_equals_per_item_loop(count, seed):
    # 257 crosses a chunk boundary; every slot bit and the generator's state
    # after the stream are the per-item loop's
    rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = stream_bits(count, rng)
    want, _ = fixed_point_oracle(count, want_rng)
    assert [len(chunk) for chunk in got] == [len(chunk) for chunk in want]
    for chunk, rows in zip(got, want):
        assert np.array_equal(chunk.view(np.int64), np.stack(rows).view(np.int64))
    assert rng.bit_generator.state == want_rng.bit_generator.state


def commuting_haar(rng, shape=()):
    """haar_sample, with every draw whose scalar part exceeds 0.3 turned onto
    the z axis: a pair of two such draws commutes and is drawn again."""
    q = haar_sample(rng, shape).q
    if shape or q[0] <= 0.3:
        return GroupElement(q)
    return GroupElement(np.array([q[0], 0.0, 0.0, np.sqrt(1.0 - q[0] * q[0])]))


@pytest.mark.parametrize("count", [9, 40])
def test_fixed_point_stream_redraws_commuting_pairs(count):
    rng, want_rng = np.random.default_rng(3), np.random.default_rng(3)
    with mock.patch.object(claims, "haar_sample", commuting_haar):
        got = stream_bits(count, rng)
    want, redraws = fixed_point_oracle(count, want_rng, haar=commuting_haar)
    assert redraws > 0
    assert np.array_equal(got[0].view(np.int64), np.stack(want[0]).view(np.int64))
    assert rng.bit_generator.state == want_rng.bit_generator.state


def assert_points_equal_oracle(rho, tol=DEFAULT.mat):
    """classify_fixed_point of a batch: arrays of the batch's shape whose rows are the
    per-row loop's points, conjugators bit for bit."""
    point, want = classify_fixed_point(rho, tol), list(classify_oracle(rho, tol))
    shape = rho.batch_shape
    assert point.rep is rho
    assert point.conjugator.batch_shape == point.stratum.shape == point.piece.shape == shape
    assert point.stratum.ravel().tolist() == [p.stratum for p in want]
    assert point.piece.ravel().tolist() == [p.piece for p in want]
    bits = np.stack([p.conjugator.q for p in want]).view(np.int64)
    assert np.array_equal(point.conjugator.q.reshape(-1, 4).view(np.int64), bits)


@pytest.mark.parametrize(
    "rows", [range(7), [3, 4, 5, 0], [0, 1, 2, 6], [6, 6, 6, 6], [5], [2, 0, 4]]
)
def test_classification_rows_equal_per_row_loop(rows):
    batch = Representation.from_slots(every_piece_batch().slots()[list(rows)])
    assert_points_equal_oracle(batch)
    assert [p.piece for p in classify_oracle(batch)] == [EVERY_PIECE[r] for r in rows]


@pytest.mark.parametrize("shape", [(2, 3), (3, 1), (1, 7)])
def test_classification_of_a_2d_batch_equals_per_row_loop(shape):
    rows = every_piece_batch().slots()[: shape[0] * shape[1]]
    assert_points_equal_oracle(Representation.from_slots(rows.reshape(shape + (4, 4))))


@pytest.mark.parametrize("seed", [0, 3, 7919])
def test_classification_of_stream_chunks_equals_per_row_loop(seed):
    chunks = list(_fixed_point_stream(_CHUNK + 37, np.random.default_rng(seed)))
    assert [chunk.batch_shape for chunk in chunks] == [(_CHUNK,), (37,)]
    for chunk in chunks:
        assert_points_equal_oracle(chunk)


# the checks of the classification, by the start of their messages, in the order they run
CHECKS = ("sigma-fixedness", "class is not sigma-fixed", "[g1,h1] centrality",
          "k^2 is not numerically central", "tr[g1,h1] = -2")


def check_of(refusal: Exception) -> str:
    return next(check for check in CHECKS if str(refusal).startswith(check))


@pytest.mark.parametrize("seed", range(12))
def test_classification_refuses_where_the_per_row_loop_stops(seed):
    # at --tol 0.1 the 40-item stream of each seed holds a gray-zone row: of
    # the centrality check, and of the trace check at seeds 6 and 7
    tol = Tolerances(0.1).mat
    batch = next(_fixed_point_stream(40, np.random.default_rng(seed)))
    before = []
    with pytest.raises(CharVarError) as want:
        for point in classify_oracle(batch, tol):
            before.append(point)
    with pytest.raises(CharVarError) as got:
        classify_fixed_point(batch, tol)
    assert type(got.value) is type(want.value) is ClassificationAmbiguity
    assert got.value.row == (len(before),)
    assert check_of(got.value) == check_of(want.value)
    assert check_of(got.value) == ("tr[g1,h1] = -2" if seed in (6, 7) else "[g1,h1] centrality")
    value = float(str(got.value).removesuffix(f" (row {got.value.row})").rsplit(": ", 1)[1])
    assert f" {value:.3e} " in str(want.value)
    if before:  # the rows before it classify as the per-row loop read them
        assert_points_equal_oracle(batch[: len(before)], tol)


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
def test_classification_refuses_the_first_bad_row_by_its_first_check(order):
    # a pillow point, a centrality gray-zone point (fails the third check)
    # and a class that is not sigma-fixed (fails the second), in every order
    gray = pillow_point(diag(0.7), su2.mul(exp_alg(AlgebraElement(np.array([2e-9, 0.0, 0.0]))), diag(1.3)))
    unfixed = act(TorusElement(0.9, 0.0, 0.0), swap_rep(np.random.default_rng(93)))
    rows = np.stack([every_piece_batch().slots()[0], gray.slots(), unfixed.slots()])
    batch = Representation.from_slots(rows[list(order)])
    with pytest.raises(CharVarError) as want:
        list(classify_oracle(batch))
    with pytest.raises(CharVarError) as got:
        classify_fixed_point(batch)
    first = min(order.index(1), order.index(2))
    assert type(got.value) is type(want.value)
    assert type(got.value) is (ClassificationAmbiguity if order[first] == 1 else PreconditionViolated)
    assert got.value.row == (first,)
    assert check_of(got.value) == check_of(want.value)


def test_flow_identities_equal_public_call_chain():
    rng = np.random.default_rng(43)
    rho = _build([_draw(rng) for _ in range(12)])
    slots = rho.slots().copy()
    slots[0, 1] = [1.0, 0.0, 0.0, 0.0]  # h1 exactly central: the exact-centre branch
    slots[1, 3] = [-1.0, 0.0, 0.0, 0.0]
    slots[2, 1], slots[2, 3] = [-1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]
    rho = Representation.from_slots(slots)
    # times at multiples of pi/2, and times where |X| t is one (the trig snap)
    norm = 2.0 * np.linalg.norm(su2.mul(rho.h2, rho.h1).vec, axis=-1)
    quarter = np.arange(12) * (np.pi / 2)
    snapped = np.where(norm > 0.0, quarter / np.where(norm > 0.0, norm, 1.0), 0.0)
    cases = [(rho, t) for t in (quarter, snapped, rng.uniform(0.0, 2.0 * np.pi, 12), 0.37)]
    cases += [(rho[i], t[i]) for i in range(12) for t in (quarter, snapped)]
    cases += [(rho[5], quarter)]  # one quadruple at many times
    for r, t in cases:
        report = verify_flow_identities(r, t)
        for got, want in zip((report.residual_h2, report.residual_h1), flow_identities_oracle(r, t)):
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64))

"""The batched flows and tau verify suites, and the chunked interior sampler,
against the per-item loops they replaced.

The oracles below build one interior sample at a time (base point, torus
angles, Haar conjugator, each drawn just before it is used) and check it
before drawing the next.  The batched code must make the same draws in the
same order and report the same trials, failures and residuals, bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from charvar.cli import _flows_suite, _nonkernel_torus, _tau_suite
from charvar.flows import TorusElement, act, verify_flow_identities
from charvar.polytope import mu_lambda_coordinates
from charvar.repvar import class_equal, relation_residual
from charvar.sampler import (
    _CHUNK,
    SampleSpec,
    Target,
    _abelian_sample,
    _edge_sample,
    _face_sample,
    _interior_base,
    _random_torus,
    _vertex_sample,
    sample,
)
from charvar.su2 import haar_sample
from charvar.tau import section, tau
from charvar.tolerances import DEFAULT


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


@pytest.mark.parametrize("suite, oracle", [(_flows_suite, flows_oracle), (_tau_suite, tau_oracle)])
@pytest.mark.parametrize("samples", [1, 10, 37])
@pytest.mark.parametrize("seed", [0, 5, 7919])
def test_suite_equals_per_item_loop(suite, oracle, samples, seed):
    got = suite(samples, np.random.default_rng(seed), DEFAULT)
    want = oracle(samples, np.random.default_rng(seed), DEFAULT)
    assert got == want
    assert all(type(v) is float for v in got[2].values())


def test_suite_counts_failures_per_item():
    # a tolerance nothing meets fails every item, not the batch as one
    strict = DEFAULT.with_mat(1e-300)
    for suite, oracle in ((_flows_suite, flows_oracle), (_tau_suite, tau_oracle)):
        got = suite(12, np.random.default_rng(3), strict)
        assert got == oracle(12, np.random.default_rng(3), strict)
        assert got[1] == 12


SINGLE = {
    Target.BOUNDARY_FACE: _face_sample,
    Target.BOUNDARY_EDGE: _edge_sample,
    Target.VERTEX: _vertex_sample,
    Target.ABELIAN_TORUS: _abelian_sample,
}


def single_item(spec, rng):
    if spec.target in (Target.INTERIOR_UNIFORM_BASE, Target.FIXED_BASE):
        return single_interior(rng, spec.base, spec.conjugate)
    rho = SINGLE[spec.target](rng)
    return rho.conjugated(haar_sample(rng)) if spec.conjugate else rho


@pytest.mark.parametrize("conjugate", [True, False])
@pytest.mark.parametrize("target", list(Target))
def test_sample_equals_per_item_construction(target, conjugate):
    # one chunk and three more items: the stream crosses a chunk boundary
    base = np.array([0.2, 0.3, 0.1]) if target is Target.FIXED_BASE else None
    spec = SampleSpec(count=_CHUNK + 3, seed=17, target=target, base=base, conjugate=conjugate)
    rng = np.random.default_rng(17)
    got = list(sample(spec))
    assert len(got) == spec.count
    for rho in got:
        want = single_item(spec, rng)
        assert rho.batch_shape == ()
        assert np.array_equal(rho.slots().view(np.int64), want.slots().view(np.int64))


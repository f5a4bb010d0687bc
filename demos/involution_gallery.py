"""
A gallery of the two natural involutions
========================================

The character variety carries two order-two symmetries: an anti-symplectic
one that reverses every twist flow, and a holomorphic one that exchanges the
two handles.  This script evaluates both on concrete tuples and inspects the
fixed locus of the handle swap piece by piece.
"""

import numpy as np

from charvar import (
    DIAG_I,
    J,
    AlgebraElement,
    Piece,
    TorusElement,
    act,
    blowup_point,
    class_equal,
    classify_fixed_point,
    commutator,
    exp_alg,
    moment_coordinates,
    n2_interval,
    pillow_point,
    rp2_fiber_point,
    section,
    sigma,
    tau,
)

rng = np.random.default_rng(7)

# ------------------------------------------------------------------
# tau: the word map (h1 g1, h1^-1, h2 g2, h2^-1)
# ------------------------------------------------------------------
x = np.array([0.4, 0.15, 0.3])
rho = section(x)

# the section (h1^(-1/2), h1, h2^(-1/2), h2) is a branch of tau's fixed locus
print("section point fixed by tau      :", class_equal(tau(rho), rho))

# tau is an involution on classes and reflects the twist direction
again = tau(tau(rho))
print("tau is an involution on classes :", class_equal(again, rho))

t = TorusElement(0.8, 1.9, 0.3)
left = tau(act(t, rho))
right = act(t.inverse(), tau(rho))
print("tau reverses the twist flows    :", class_equal(left, right))

# the moment map only sees traces, so tau cannot move it
drift = np.max(np.abs(moment_coordinates(tau(rho)) - moment_coordinates(rho)))
print("moment drift under tau          :", float(drift))

# ------------------------------------------------------------------
# sigma: swapping the two handles
# ------------------------------------------------------------------
# generic points are moved; the fixed locus is a union of explicit pieces
moved = sigma(rho)
print("generic class fixed by sigma    :", class_equal(moved, rho))

# piece 1: the pillow.  Both handles carry the same pair, and the canonical
# example has trace zero in every coordinate: trace angle 1/2 throughout.
pillow = pillow_point(DIAG_I, J)
print("pillow trace angles             :", moment_coordinates(pillow))
print("pillow classified as            :", classify_fixed_point(pillow).piece.value)

# piece 2: the blow-up locus.  Take any non-commuting pair and twist the
# second handle by a half-turn about the commutator axis.
g = exp_alg(AlgebraElement(np.array([0.0, 0.0, 1.1])))
h = exp_alg(AlgebraElement(np.array([0.8, 0.0, 0.0])))
axis = AlgebraElement(commutator(g, h).vec).unit()
k = exp_alg(axis * (np.pi / 2))
blow = blowup_point(g, h, k)
print("blow-up classified as           :", classify_fixed_point(blow).piece.value)

# piece 3: an RP^2 of classes over the commutator-trace -2 corner
fiber = rp2_fiber_point(DIAG_I)
print("RP^2 fiber classified as        :", classify_fixed_point(fiber).piece.value)

# piece 4: the interval family interpolating between a pillow-type endpoint
# and a corner of the fixed locus
# (the three parameters are classified as one batch, read as arrays)
arc = classify_fixed_point(n2_interval(1.1, 0.9, np.array([0.0, 0.7, np.pi / 2])))
labels = ["alpha = 0   ", "alpha = 0.7 ", "alpha = pi/2"]
for label, stratum, piece in zip(labels, arc.stratum, arc.piece):
    print(label, "->", stratum.name, "/", piece.value)

# the classifier also hands back a conjugator witnessing fixedness
witness = classify_fixed_point(blow)
print("classifier agrees on the blow-up:", witness.piece is Piece.BLOWUP_INTERIOR)
print("witness conjugator w-part       :", float(witness.conjugator.w))

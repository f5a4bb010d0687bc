"""
The moment polytope, sampled and certified
==========================================

The normalized rotation angles of a pair (a, b, ab) always land in a
tetrahedron, and a tuple's coordinates touch the boundary exactly when the
tuple is abelian.  This script verifies both statements on a Monte Carlo
cloud, then writes a tagged point cloud to CSV for plotting elsewhere.
"""

import numpy as np

from charvar import (
    TILDE_DELTA,
    SampleSpec,
    Target,
    boundary_commutation_check,
    haar_sample,
    is_abelian,
    moment_mu,
    sample_batches,
    trace_triple,
    write_simplex_csv,
)

rng = np.random.default_rng(501)

# ------------------------------------------------------------------
# a Haar cloud never escapes the tetrahedron
# ------------------------------------------------------------------
n = 20_000
a = haar_sample(rng, shape=(n,))
b = haar_sample(rng, shape=(n,))
# normalized angles (arccos of the scalar part over pi) of a, b and ab
cloud = trace_triple(a, b)
margins = TILDE_DELTA.margin(cloud)
print("points sampled        :", n)
print("largest margin        :", float(margins.max()), "(<= 0 means inside)")
print("points strictly inside:", int((margins < -1e-9).sum()))

# ------------------------------------------------------------------
# the boundary is exactly the abelian locus
# ------------------------------------------------------------------
# sample straight off a face: the generator ensures every tuple commutes;
# each batch of the stream is checked at once
face_stream = sample_batches(SampleSpec(count=300, seed=11, target=Target.BOUNDARY_FACE))
checks = sum(
    int(np.count_nonzero(boundary_commutation_check(rho) & is_abelian(rho)))
    for rho in face_stream
)
print("face samples certified:", checks, "/ 300")

# interior samples, by contrast, are never abelian
interior = sample_batches(SampleSpec(count=300, seed=12, target=Target.INTERIOR_UNIFORM_BASE))
abelian_hits = sum(int(np.count_nonzero(is_abelian(rho))) for rho in interior)
print("abelian interior hits :", abelian_hits, "/ 300")

# ------------------------------------------------------------------
# emit a tagged cloud for external plotting
# ------------------------------------------------------------------
# one moment_mu call per sampled batch
spec = SampleSpec(count=500, seed=99, target=Target.INTERIOR_UNIFORM_BASE)
points = (point for rho in sample_batches(spec) for point in moment_mu(rho))
with open("moment_cloud.csv", "w", encoding="utf-8") as fh:
    rows = write_simplex_csv(points, fh)
print("wrote moment_cloud.csv:", rows, "rows")

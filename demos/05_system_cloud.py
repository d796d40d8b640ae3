"""A dense cloud of scalar-state systems defeating one fixed input.

For single-state dynamics the counterexample family is dense: for every
admissible pole a (outside a finite root set) and every nonzero scale,
there is an input matrix b and an initial state x(0) making the
recorded data rank-deficient. The script samples the family for the
packaged reference input and writes a plot-ready CSV.
"""

import numpy as np

from peu import Signal, sample_system_cloud
from peu.cli import _fixture_path, read_signal_csv

u = read_signal_csv(_fixture_path("ex3_input.csv"))
L = 2

rng = np.random.default_rng(0)
N = 2000
pairs = np.column_stack([rng.uniform(-1, 1, N), rng.uniform(-1, 1, N)])
cloud = sample_system_cloud(u, L, pairs)

print(f"sampled {N} (pole, scale) pairs: {len(cloud.points)} systems emitted, "
      f"{cloud.n_skipped} skipped (zero scale or pole in the root set)")
print(f"re-verified rank-deficient: {cloud.verified_fraction:.1%}")

pt = cloud.points[0]
print(f"example system: a = {pt.a:.4f}, b = {np.round(pt.b, 4)}, "
      f"x(0) = {pt.x0:.4f}, verified = {pt.verified}")

with open("cloud_points.csv", "w") as fh:
    fh.write("a,b1,b2,x0\n")
    # plain Python floats: a numpy scalar's repr is "np.float64(...)"
    for a, (b1, b2), x0 in zip(cloud.a.tolist(), cloud.b.tolist(), cloud.x0.tolist()):
        fh.write(f"{a!r},{b1!r},{b2!r},{x0!r}\n")
print("wrote cloud_points.csv (scatter b1 vs b2, or a vs x0, to see the family)")

# the scale direction is exactly linear: doubling the scale doubles (b, x0)
probe = sample_system_cloud(u, L, [[0.25, 1.0], [0.25, 2.0]])
p1, p2 = probe.points
print(f"linearity in the scale: b doubles {np.allclose(2 * p1.b, p2.b)}, "
      f"x0 doubles {np.isclose(2 * p1.x0, p2.x0)}")

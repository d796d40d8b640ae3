"""From state-level rank deficiency to a visible input-output failure.

The state-level certificate lifts to a single-output system whose
recorded data misses part of the behavior: one annihilator vector kills
every column of the recorded input-output Hankel matrix, while a short
zero-input experiment from a well-chosen initial state produces a
window the annihilator does NOT kill. That window is realizable but not
reachable from the data, so the data fails to parametrize the behavior.
"""

import numpy as np

from peu import (
    Signal,
    check_behavior_equality,
    construct_certificate,
    extend_to_output,
)

rng = np.random.default_rng(21)
n, m, L = 2, 1, 2

# an input annihilated by a random kernel vector: never exciting of order 4
eta = rng.standard_normal(n + L)
eta[-1] = 1.0
T = 12
u = np.zeros(T)
u[: n + L - 1] = rng.standard_normal(n + L - 1)
for t in range(T - n - L + 1):
    u[t + n + L - 1] = -eta[:-1] @ u[t:t + n + L - 1]
u = Signal(u)

cert = construct_certificate(u, n, L)
out = extend_to_output(cert, u)

print(f"output system: first output row equals w = {np.round(cert.w, 4)}")
print(f"recorded output: {np.round(out.y.samples[:, 0], 3)}")
print(f"annihilator length {out.annihilator.size}, "
      f"residual on recorded data {out.residual_annihilation:.2e}")

print(f"\nwitness: zero input for {L} steps from x(0) = w/|w|^2")
print(f"witness output window: {np.round(out.witness_y.samples[:, 0], 4)}")
print(f"annihilator against the witness window: {out.separation_value:.6f} (not 0!)")

check = out.behavior_check
print(f"\nindependent rank check: data span {check.data_span_dim}, "
      f"behavior {check.behavior_dim}, equal: {check.behavior_equal}")

# the same experiment scored against the full-state output map tells the
# same story; the certificate keeps the construction's own simulation of it
full = cert.trajectory
state_check = check_behavior_equality(cert.state_pair(), u, full.y, L)
print(f"state-output view: data span {state_check.data_span_dim} "
      f"of {state_check.behavior_dim}, equal: {state_check.behavior_equal}")

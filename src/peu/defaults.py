"""Package-wide numerical tolerance defaults.

Every rank decision uses one documented policy (see numkit.rank_report).
RTOL and TOL_CERT are the defaults of the keyword arguments (and CLI
options) of the same name. SEED is only the default of the CLI's
``--seed``, which seeds the random draws of ``peu cloud`` and
``peu repro``; no library function draws at random. RTOL also decides
whether a number is a common root of a kernel vector's polynomial
(``numkit.lambda_set``), so root avoidance has no tolerance of its own.

TRAJECTORY_RTOL decides whether recorded data (u, y) are a trajectory
of a given system (``flemma.check_behavior_equality``): the least-squares
misfit of the free output must be at most TRAJECTORY_RTOL times
||y|| + ||y_forced||. The bound is relative only, so rescaling the data
rescales both sides and cannot turn data that are no trajectory into
one; exact zero data pass with a zero misfit. 1e-6 sits far above the
rounding of a recursion over T samples and far below the misfit of data
that are not a trajectory.

The certificate bounds of ``adversary.verify`` are relative as well,
each to the scale of what it checks, so data at scale 0 need residuals
of exactly 0. Residuals of the data (states, annihilation) are judged
at the data's scale ``CounterexampleCertificate.scale(u)`` =
max(max|u|, max|x|); residuals of the model (xi, a supplied B), which
rescaling the data leaves unchanged, at the scale of their own matrices.

- REPLAY_RTOL bounds identities that hold exactly and are evaluated by a
  second route: the closed-form replay of the states, the state
  recursion x(0) = x0, x(t+1) = A x(t) + B u(t), the unit norm of w, and
  ``single_input_family``'s reproduction of the supplied B. Rounding
  leaves about 1e-15 of the scale; an eta 1e-6 off the kernel moves the
  states by about 1e-6 of it, so 1e-8 separates the two at every scale.
- XI_RTOL bounds |xi^T A^i zeta| for i < n-1, relative to max|xi| times
  the largest entry of those Krylov vectors: a backward-stable solve
  leaves about n eps of that, and an xi that is not the Krylov solve
  leaves order 1.
- COND_MAX refuses ``single_input_family``'s S = sum_i eta_i A^i as
  near-singular before it is solved: zeta = S^(-1) B would lose ten of
  its sixteen digits, and a certificate resting on it is unreliable.
"""

RTOL = 1e-9            # relative rank tolerance: tol = RTOL * max(rows, cols) * sigma_max
TOL_CERT = 1e-7        # certificate annihilation residual budget, scaled by data magnitude
TRAJECTORY_RTOL = 1e-6  # trajectory test: output residual over ||y|| + ||y_forced||
REPLAY_RTOL = 1e-8     # exact identities replayed by a second route, over their scale
XI_RTOL = 1e-6         # xi orthogonality, over max|xi| * max|A^i zeta|
COND_MAX = 1e10        # largest condition number of single_input_family's S
SEED = 0               # default of the CLI's --seed

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
"""

RTOL = 1e-9            # relative rank tolerance: tol = RTOL * max(rows, cols) * sigma_max
TOL_CERT = 1e-7        # certificate annihilation residual budget, scaled by data magnitude
TRAJECTORY_RTOL = 1e-6  # trajectory test: output residual over ||y|| + ||y_forced||
SEED = 0               # CLI draw seed when neither --seed nor PEU_SEED is given

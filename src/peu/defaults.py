"""Package-wide numerical tolerance defaults.

Every rank decision uses one documented policy (see numkit.rank_report).
RTOL and TOL_CERT are the defaults of the keyword arguments (and CLI
options) of the same name. SEED is only the default of the CLI's
``--seed``, which seeds the random draws of ``peu cloud`` and
``peu repro``; no library function draws at random. CLUSTER_RADIUS is
set only on ``numkit.polynomial_roots`` and ``numkit.lambda_set``; the
constructions take the radius from the ``RootSet`` that ``lambda_set``
returns.
"""

RTOL = 1e-9            # relative rank tolerance: tol = RTOL * max(rows, cols) * sigma_max
CLUSTER_RADIUS = 1e-6  # merge radius for numerically coincident polynomial roots
TOL_CERT = 1e-7        # certificate annihilation residual budget, scaled by data magnitude
SEED = 0               # CLI draw seed when neither --seed nor PEU_SEED is given

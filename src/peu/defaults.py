"""Package-wide numerical tolerance defaults.

Every rank decision uses one documented policy (see numkit.rank_report).
RTOL and TOL_CERT are the defaults of the keyword arguments (and CLI
options) of the same name. SEED is only the default of the CLI's
``--seed``, which seeds the random draws of ``peu cloud`` and
``peu repro``; no library function draws at random. RTOL also decides
whether a number is a common root of a kernel vector's polynomial
(``numkit.lambda_set``), so root avoidance has no tolerance of its own.
"""

RTOL = 1e-9            # relative rank tolerance: tol = RTOL * max(rows, cols) * sigma_max
TOL_CERT = 1e-7        # certificate annihilation residual budget, scaled by data magnitude
SEED = 0               # CLI draw seed when neither --seed nor PEU_SEED is given

"""Package-wide numerical tolerance defaults.

Every rank decision uses one documented policy (see numkit.rank_report).
RTOL, TOL_CERT and SEED are the defaults of the keyword arguments (and
CLI options) of the same name. CLUSTER_RADIUS is set only on
``numkit.polynomial_roots`` and ``numkit.lambda_set``; the constructions
take the radius from the ``RootSet`` that ``lambda_set`` returns.
"""

RTOL = 1e-9            # relative rank tolerance: tol = RTOL * max(rows, cols) * sigma_max
CLUSTER_RADIUS = 1e-6  # merge radius for numerically coincident polynomial roots
TOL_CERT = 1e-7        # certificate annihilation residual budget, scaled by data magnitude
SEED = 0               # master seed when the caller provides none

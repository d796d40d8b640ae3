"""The benchmark's own checks of what ``peu`` wrote, independent of ``peu``'s code.

Rank claims are re-derived after row equilibration (every row scaled to
unit norm), so a certificate cannot pass merely because one block of the
stacked matrix dwarfs the others. ``RTOL`` sits far above rounding
(~1e-15 relative) and far below the singular-value ratios of the
non-deficient matrices these workloads produce (~1e-3 and up).
"""

from __future__ import annotations

import csv

import numpy as np

from inputs import hankel, pbh_margin

RTOL = 1e-6


def simulate(A, B, x0, u, steps):
    """States x(0)..x(steps) of x(t+1) = A x(t) + B u(t)."""
    x = np.empty((steps + 1, A.shape[0]))
    x[0] = x0
    for t in range(steps):
        x[t + 1] = A @ x[t] + B @ u[t]
    return x


def _equilibrated(M):
    norms = np.linalg.norm(M, axis=1)
    norms[norms == 0.0] = 1.0
    return M / norms[:, None], norms


def deficient_with(z, M):
    """Problems with the claim that ``z`` annihilates M and M lacks full row rank."""
    Ms, norms = _equilibrated(M)
    s = np.linalg.svd(Ms, compute_uv=False)
    problems = []
    if Ms.shape[0] <= Ms.shape[1] and s[-1] > RTOL * s[0]:
        problems.append(f"rank_not_deficient (sigma ratio {s[-1] / s[0]:.2e})")
    if z is not None:
        zs = z * norms
        residual = float(np.linalg.norm(zs @ Ms)) / (float(np.linalg.norm(zs)) * s[0])
        if not residual <= RTOL:
            problems.append(f"annihilation_residual {residual:.2e}")
    return problems


def certificate_problems(cert, u):
    """Re-verify a certificate dict (as ``peu`` writes it) against the input array."""
    n, L = cert["n"], cert["L"]
    A, B = np.asarray(cert["A"]), np.asarray(cert["B"])
    states = np.asarray(cert["states"])
    T = u.shape[0]
    problems = []
    if states.shape != (T - L + 1, n):
        return [f"states shape {states.shape}"]
    own = simulate(A, B, np.asarray(cert["x0"]), u, T - L)
    if np.abs(own - states).max() > 1e-9 * (1.0 + np.abs(own).max()):
        problems.append("states_not_a_trajectory")
    if pbh_margin(A, B) <= 1e-10:
        problems.append("pair_not_controllable")
    z = np.concatenate([np.asarray(cert["v"]), np.asarray(cert["w"])])
    problems += deficient_with(z, np.vstack([hankel(u, L), states.T]))
    return problems


def bundle_problems(cert, system, trajectory, u):
    """Re-verify a counterexample bundle from its three files' parsed contents."""
    A, B = np.asarray(system["A"]), np.asarray(system["B"])
    if not (np.array_equal(A, cert["A"]) and np.array_equal(B, cert["B"])):
        return ["system_json_differs_from_certificate"]
    tu, tx = trajectory
    if not np.array_equal(tu, u):
        return ["trajectory_input_differs"]
    own = simulate(A, B, tx[0], u, u.shape[0])
    if np.abs(own - tx).max() > 1e-9 * (1.0 + np.abs(own).max()):
        return ["trajectory_states_not_a_trajectory"]
    return certificate_problems({**cert, "states": tx[: u.shape[0] - cert["L"] + 1]}, u)


def read_table(path):
    """Header and float rows of a CSV written by ``peu`` (comment lines skipped)."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[0], rows[1:]


def read_trajectory(path, m, n):
    """(u, x) arrays of a t,u*,x*,y* trajectory CSV; x keeps its extra final row."""
    _, rows = read_table(path)
    u = np.array([[float(c) for c in r[1:1 + m]] for r in rows[:-1]])
    x = np.array([[float(c) for c in r[1 + m:1 + m + n]] for r in rows])
    return u, x


def cloud_problems(path, u, L, samples, check_rows):
    """Every point verified, counts add up, and ``check_rows`` points re-derived.

    A re-derived point passes when its state row lies in the row space of
    H_L(u): then [H_L(u); x] gains no rank from the state, which is the
    rank deficiency the point claims, and holds even where H_L(u) alone
    is already deficient.
    """
    with open(path) as fh:
        first = fh.readline()
    try:
        skipped = int(first.rsplit("skipped=", 1)[1])
    except (IndexError, ValueError):
        return ["missing_skipped_count"]
    header, rows = read_table(path)
    m = u.shape[1]
    if header != ["a"] + [f"b{j + 1}" for j in range(m)] + ["x0", "verified"]:
        return [f"header {header}"]
    if len(rows) + skipped != samples:
        return [f"{len(rows)} points + {skipped} skipped != {samples} samples"]
    if any(r[-1] != "1" for r in rows):
        return ["unverified_point"]
    Hu, _ = _equilibrated(hankel(u, L))
    U, s, _ = np.linalg.svd(Hu.T, full_matrices=False)
    basis = U[:, s > RTOL * s[0]]
    problems = []
    for i in np.unique(np.linspace(0, len(rows) - 1, check_rows).astype(int)) if rows else []:
        a, *b, x0 = (float(c) for c in rows[i][:-1])
        x = simulate(np.array([[a]]), np.array([b]), [x0], u, u.shape[0] - L)[:, 0]
        outside = float(np.linalg.norm(x - basis @ (basis.T @ x)))
        if outside > RTOL * float(np.linalg.norm(x)):
            problems.append(f"point {i}: state row leaves the input row space ({outside:.2e})")
    return problems

import csv
import json
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

FIXTURES = Path(__file__).parent.parent / "src" / "peu" / "fixtures"


def _read_table(name):
    with open(FIXTURES / name, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return np.asarray([[float(c) for c in r[1:]] for r in rows[1:]])


@pytest.fixture(scope="session")
def ex2_input():
    """8-sample two-channel reference input (first example set)."""
    return _read_table("ex2_input.csv")


@pytest.fixture(scope="session")
def ex2_states():
    """Published state trajectory for the reference construction."""
    return _read_table("ex2_states.csv")


@pytest.fixture(scope="session")
def ex2_values():
    with open(FIXTURES / "ex2_values.json") as fh:
        vals = json.load(fh)
    return {k: (np.asarray(v, dtype=float) if isinstance(v, list) else v)
            for k, v in vals.items()}


@pytest.fixture(scope="session")
def ex3_input():
    """7-sample two-channel reference input (second example set)."""
    return _read_table("ex3_input.csv")


@pytest.fixture(scope="session")
def ex3_reddot():
    with open(FIXTURES / "ex3_reddot.json") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def ex1_system():
    with open(FIXTURES / "ex1_system.json") as fh:
        obj = json.load(fh)
    import peu

    return peu.StateSpaceSystem(np.asarray(obj["A"], float), np.asarray(obj["B"], float),
                                np.asarray(obj["C"], float), np.asarray(obj["D"], float))


PRINT_HALF_UNIT = 5e-5  # a 4-decimal entry is known only to +-5e-5


class Reading(NamedTuple):
    A: np.ndarray
    zeta: np.ndarray
    shift: float  # largest entry-wise distance from the printed A, zeta
    xi_deviation: float
    failures: list


def _box_step(J, r, bound):
    """Least-squares solution d of J d = r with |d| <= bound: clip and re-solve.

    Entries that leave the box are pinned to its face and the remaining
    ones are solved again, until every entry fits.
    """
    d = np.zeros(J.shape[1])
    free = np.ones(J.shape[1], bool)
    while free.any():
        d[free] = np.linalg.lstsq(J[:, free], r - J[:, ~free] @ d[~free], rcond=None)[0]
        out = free & (np.abs(d) > bound)
        if not out.any():
            break
        d[out] = np.clip(d[out], -bound, bound)
        free &= ~out
    return d


def xi_at_reading(xi_of, A, zeta, xi_published, tol=5e-4):
    """Compare a published xi at the closest reading of the printed A, zeta.

    A published xi computed from unrounded A and zeta cannot be matched
    from their 4-decimal print: xi solves a Krylov system in (A, zeta),
    which amplifies the +-5e-5 print rounding by its condition number.
    This looks for a reading A', zeta' that prints as the given values
    and reproduces xi_published: one linearised step on the central
    finite-difference Jacobian of ``xi_of(A, zeta)`` with respect to the
    entries, in the smallest box (bisected) in which the step still
    reaches xi_published, so that the shift says how far the reading
    has to move rather than where the box ends. It then evaluates
    ``xi_of`` at that reading.

    Returns a Reading whose failures name a shift not under
    PRINT_HALF_UNIT (the reading would not print as the given values)
    and a deviation of xi from xi_published above tol.
    """
    A, zeta = np.asarray(A, float), np.asarray(zeta, float)
    xi_published = np.asarray(xi_published, float)
    n = zeta.size
    p0 = np.concatenate([A.ravel(), zeta])

    def xi_at(p):
        return np.asarray(xi_of(p[: n * n].reshape(n, n), p[n * n:]), float)

    r = xi_published - xi_at(p0)
    eps = 1e-6
    J = np.column_stack([(xi_at(p0 + eps * e) - xi_at(p0 - eps * e)) / (2 * eps)
                         for e in np.eye(p0.size)])

    def reaches(d):
        return np.abs(J @ d - r).max() <= 1e-9 * np.abs(r).max()

    lo, hi = 0.0, PRINT_HALF_UNIT
    d = _box_step(J, r, hi)
    if reaches(d):
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            step = _box_step(J, r, mid)
            if reaches(step):
                hi, d = mid, step
            else:
                lo = mid
    p = p0 + d
    shift = float(np.abs(d).max())
    xi_dev = float(np.abs(xi_at(p) - xi_published).max())
    failures = []
    if not shift < PRINT_HALF_UNIT:
        failures.append(f"reading: shift {shift:.2e} from the printed A, zeta "
                        f"is not under {PRINT_HALF_UNIT:g}")
    if xi_dev > tol:
        failures.append(f"xi at the reading: max deviation {xi_dev:.2e} > {tol:g}")
    return Reading(p[: n * n].reshape(n, n), p[n * n:], shift, xi_dev, failures)


def random_controllable_system(rng, n, m, p, cond_cap=1e8, rtol=1e-9):
    """Draw (A, B, C, D) with (A, B) controllable and a tame Kalman matrix.

    A is scaled to spectral radius <= 0.95 so long trajectories stay at
    the input's magnitude; raw Gaussian dynamics blow states up by
    rho^T and would swamp any single-tolerance rank decision.
    """
    import peu
    from oracles import controllability_matrix

    for _ in range(64):
        A = rng.standard_normal((n, n))
        rho = float(np.abs(np.linalg.eigvals(A)).max())
        if rho > 0.95:
            A *= 0.95 / rho
        B = rng.standard_normal((n, m))
        ok, _ = peu.is_controllable(A, B, rtol)
        if not ok:
            continue
        K = controllability_matrix(A, B)
        if np.linalg.cond(K) <= cond_cap:
            C = rng.standard_normal((p, n))
            D = rng.standard_normal((p, m))
            return peu.StateSpaceSystem(A, B, C, D)
    raise RuntimeError("failed to draw a well-conditioned controllable system")


def non_exciting_input(rng, n, m, L, T, eta=None):
    """Input of length T annihilated by a random (or the given) kernel vector.

    Draws eta with a healthy trailing block, seeds the first n+L-1
    samples, then extends by solving the annihilation recursion for the
    trailing sample of each window; the depth-(n+L) Hankel matrix then
    has a left null vector by construction, so the signal cannot be
    persistently exciting of order n+L. A given ``eta`` is an (n+L, m)
    array with a nonzero last row.
    """
    k = n + L
    assert T >= k - 1
    while eta is None:
        eta = rng.standard_normal((k, m))
        if np.linalg.norm(eta[-1]) <= 0.3:
            eta = None
    tail = eta[-1]
    u = np.zeros((T, m))
    u[: k - 1] = rng.standard_normal((k - 1, m))
    tail_unit = tail / (tail @ tail)
    for t in range(T - k + 1):
        c = -sum(eta[i] @ u[t + i] for i in range(k - 1))
        free = rng.standard_normal(m)
        free -= (tail @ free) / (tail @ tail) * tail
        u[t + k - 1] = c * tail_unit + free
    import peu

    return peu.Signal(u), eta


def certificate_from_json(path):
    """Rebuild a certificate from a ``certificate.json``: its data fields only.

    The stored keys that the certificate reads off its arrays (n, m, L,
    T, x0, short_data_case and the evidence flags) are not passed. The
    evidence fields keep their None defaults and ``trajectory`` is None,
    so ``peu.verify`` sees nothing the construction measured.
    """
    import peu

    with open(path) as fh:
        d = json.load(fh)
    arrays = ("eta", "A", "zeta", "xi", "v", "w", "states")
    return peu.CounterexampleCertificate(
        **{key: np.asarray(d[key], dtype=float) for key in arrays},
        E=tuple(np.asarray(Ei, dtype=float) for Ei in d["E"]),
        rtol=d["rtol"], tol_cert=d["tol_cert"],
    )

"""Independent test oracles: exact rational arithmetic, no floating point.

Used to cross-check the library's factorization-based answers. The
rational Gaussian elimination decides rank exactly for matrices whose
entries are (convertible to) fractions; the rational construction
replica replays the counterexample recursion in exact arithmetic so the
claimed rank deficiency can be confirmed without tolerances.
"""

from fractions import Fraction

import numpy as np


def to_fractions(M):
    return [[Fraction(x) for x in row] for row in np.asarray(M).tolist()]


def exact_rank(M) -> int:
    """Rank by fraction-arithmetic Gaussian elimination with exact pivots."""
    rows = to_fractions(M)
    if not rows or not rows[0]:
        return 0
    n_rows, n_cols = len(rows), len(rows[0])
    rank = 0
    col = 0
    for col in range(n_cols):
        pivot = None
        for r in range(rank, n_rows):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for r in range(rank + 1, n_rows):
            if rows[r][col] != 0:
                factor = rows[r][col] / pv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == n_rows:
            break
    return rank


def expand_from_roots(roots):
    """Coefficients c_0..c_d of prod (z - r) by exact convolution."""
    coeffs = [Fraction(1)]
    for r in roots:
        r = Fraction(r)
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] -= r * c
            nxt[i + 1] += c
        coeffs = nxt
    return [float(c) for c in coeffs]


# -- exact replica of the single-input counterexample construction --------


def _mat_mul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def _mat_vec(A, v):
    return [sum(a * b for a, b in zip(row, v)) for row in A]


def _solve_exact(A, b):
    """Solve A x = b in fractions (A square, nonsingular)."""
    n = len(A)
    aug = [list(row) + [bv] for row, bv in zip(A, b)]
    for i in range(n):
        pivot = next(r for r in range(i, n) if aug[r][i] != 0)
        aug[i], aug[pivot] = aug[pivot], aug[i]
        pv = aug[i][i]
        aug[i] = [x / pv for x in aug[i]]
        for r in range(n):
            if r != i and aug[r][i] != 0:
                f = aug[r][i]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[i])]
    return [row[n] for row in aug]


def exact_single_input_stacked(u_rational, n, L, A_rational, B_rational, eta_rational):
    """Exact-arithmetic stacked [H_L(u); H_1(x)] for the m=1 construction.

    All inputs are fractions (or exactly convertible); returns the
    stacked matrix as fractions. eta must annihilate the depth-(n+L)
    Hankel matrix of u exactly, and spec(A) must avoid its roots, which
    the caller is responsible for.
    """
    u = [Fraction(x) for x in u_rational]
    A = to_fractions(A_rational)
    B = [Fraction(x) for x in B_rational]
    eta = [Fraction(x) for x in eta_rational]
    k = n + L
    T = len(u)

    # S = sum eta_i A^i, zeta = S^{-1} B
    S = [[Fraction(0)] * n for _ in range(n)]
    P = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for i in range(k):
        for r in range(n):
            for c in range(n):
                S[r][c] += eta[i] * P[r][c]
        P = _mat_mul(P, A)
    zeta = _solve_exact(S, B)

    # backward recursion E_{i-1} = A E_i + zeta eta_i (column vectors, m = 1)
    E = {k - 1: [Fraction(0)] * n}
    for i in range(k - 1, -1, -1):
        AE = _mat_vec(A, E[i])
        E[i - 1] = [AE[r] + zeta[r] * eta[i] for r in range(n)]

    x = [[-sum(E[i][r] * u[i] for i in range(k - 1)) for r in range(n)]]
    for t in range(T - L):
        Ax = _mat_vec(A, x[-1])
        x.append([Ax[r] + E[-1][r] * u[t] for r in range(n)])

    stacked = []
    for i in range(L):
        stacked.append([u[i + j] for j in range(T - L + 1)])
    for r in range(n):
        stacked.append([x[t][r] for t in range(T - L + 1)])
    return stacked


# -- loop replica of the closed-form trajectory formulas --------------------


def closed_form_states_loop(A, zeta, eta, E_desc, u_data, n, m, L):
    """Direct evaluation of the constructive trajectory formulas.

    Piecewise: a moving-window combination of the E matrices up to
    t = s := T-L-n+1, then an explicit double sum over Krylov vectors
    for the final n-1 steps. Replays the induction behind the
    construction; simulation must agree to rounding.
    """
    T = u_data.shape[0]
    k = n + L
    s = T - L - n + 1

    def E_at(i):  # E_desc[0] = E_{k-1} ... E_desc[-1] = E_{-1}
        return E_desc[k - 1 - i]

    out = np.empty((T - L + 1, n))
    for t in range(0, s + 1):
        acc = np.zeros(n)
        for i in range(k - 1):
            acc -= E_at(i) @ u_data[t + i]
        out[t] = acc
    A_pows = [np.eye(n)]
    for _ in range(max(n - 2, 0)):
        A_pows.append(A @ A_pows[-1])
    for t in range(1, n):
        acc = np.zeros(n)
        for j in range(t):
            for i in range(j, k - 1):
                acc += A_pows[t - j - 1] @ zeta * float(eta[i - j] @ u_data[i + s])
        for i in range(t, k - 1):
            acc -= E_at(i - t) @ u_data[i + s]
        out[t + s] = acc
    return out

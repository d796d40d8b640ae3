"""Independent test oracles: exact rational arithmetic and direct loops.

Used to cross-check the library's factorization-based answers. The
rational Gaussian elimination decides rank exactly for matrices whose
entries are (convertible to) fractions; the rational construction
replica replays the counterexample recursion in exact arithmetic so the
claimed rank deficiency can be confirmed without tolerances. The loop
oracles spell out, one sample or one block at a time, what the
library computes with stacked array products. The reading oracle is
the CSV readers as they were before one ``np.loadtxt`` call read the
values: ``csv.reader`` rows and one ``float`` call per cell.
"""

import csv
from fractions import Fraction

import numpy as np

from peu.errors import ValidationError
from peu.signals import Signal


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


# -- block-by-block fill of the Markov Toeplitz -------------------------------


def markov_toeplitz_loop(sys, L):
    """Lower block-triangular Toeplitz of D, CB, CAB, ... filled block by block.

    The same Markov parameters, computed by the same products, are
    written one (i, j) block at a time; the library's one-copy fill must
    agree entry for entry.
    """
    p, m = sys.p, sys.m
    markov = [sys.D]
    power = None
    for _ in range(L - 1):
        power = sys.B if power is None else sys.A @ power
        markov.append(sys.C @ power)
    T = np.zeros((L * p, L * m))
    for i in range(L):
        for j in range(i + 1):
            T[i * p:(i + 1) * p, j * m:(j + 1) * m] = markov[i - j]
    return T


# -- the state recursion one sample at a time, and x0 from dense matrices ------


def simulate_loop(sys, x0, u_samples):
    """States x(0..T) and outputs y(0..T-1), four products per sample.

    ``lti.simulate`` takes the input and output terms as stacked
    products outside its loop and must agree bit for bit.
    """
    T = u_samples.shape[0]
    x = np.empty((T + 1, sys.n))
    y = np.empty((T, sys.p))
    x[0] = x0
    for t in range(T):
        y[t] = sys.C @ x[t] + sys.D @ u_samples[t]
        x[t + 1] = sys.A @ x[t] + sys.B @ u_samples[t]
    return x, y


def observability_loop(C, A, L):
    """C, CA, ..., CA^(L-1) stacked, one product per block row."""
    blocks = [np.atleast_2d(C)]
    for _ in range(L - 1):
        blocks.append(blocks[-1] @ A)
    return np.vstack(blocks)


def controllability_matrix(A, B):
    """Kalman matrix [B, AB, ..., A^(n-1) B], one product per block column."""
    blocks = [np.atleast_2d(B)]
    for _ in range(len(A) - 1):
        blocks.append(A @ blocks[-1])
    return np.hstack(blocks)


def reconstruct_x0_dense(sys, u_samples, y_samples):
    """Least-squares x0 against the dense (Tp)x(Tm) Toeplitz and O_T by a loop.

    O(T^2) memory; the library's O(T) reconstruction must agree to
    rounding.
    """
    T = u_samples.shape[0]
    O = observability_loop(sys.C, sys.A, T)
    forced = markov_toeplitz_loop(sys, T) @ u_samples.reshape(-1)
    x0, *_ = np.linalg.lstsq(O, y_samples.reshape(-1) - forced, rcond=None)
    return x0


# -- CSV rows written one cell at a time ----------------------------------------


def signal_csv_loop(v, config):
    """Signal CSV text with every cell formatted by ``repr(float(x))``, row by row."""
    lines = [config.comment_line(), "t," + ",".join(f"u{j + 1}" for j in range(v.dim))]
    for t in range(v.length):
        lines.append(str(t) + "," + ",".join(repr(float(x)) for x in v.samples[t]))
    return "\n".join(lines) + "\n"


def trajectory_csv_loop(u, x, y, config):
    """Trajectory CSV text cell by cell; the last row has empty u and y cells."""
    T = u.length
    names = (["t"] + [f"u{j + 1}" for j in range(u.dim)]
             + [f"x{j + 1}" for j in range(x.dim)]
             + [f"y{j + 1}" for j in range(y.dim)])
    lines = [config.comment_line(), ",".join(names)]
    for t in range(T + 1):
        cells = [str(t)]
        cells += [repr(float(v)) for v in u.samples[t]] if t < T else [""] * u.dim
        cells += [repr(float(v)) for v in x.samples[t]]
        cells += [repr(float(v)) for v in y.samples[t]] if t < T else [""] * y.dim
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def cloud_csv_loop(cloud, config):
    """Cloud CSV text cell by cell: a, b, x0 by ``repr(float(x))``, then 1 or 0."""
    m = cloud.b.shape[1]
    lines = [f"{config.comment_line()} skipped={cloud.n_skipped}",
             ",".join(["a"] + [f"b{j + 1}" for j in range(m)] + ["x0", "verified"])]
    for i in range(len(cloud.a)):
        cells = [cloud.a[i], *cloud.b[i], cloud.x0[i]]
        lines.append(",".join([repr(float(c)) for c in cells] + ["1" if cloud.verified[i] else "0"]))
    return "\n".join(lines) + "\n"


# -- CSV tables read one cell at a time -----------------------------------------


def read_signal_csv_by_cell(path) -> Signal:
    """Read a signal CSV with header t,u1,...,um (comment lines allowed)."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].lstrip().startswith("#")]
    if not rows:
        raise ValidationError(f"{path}: empty signal file")
    header = [c.strip() for c in rows[0]]
    if len(header) < 2 or header[0] != "t":
        raise ValidationError(f"{path}: expected header t,u1,...,um, got {header}")
    m = len(header) - 1
    data = []
    for r in rows[1:]:
        if len(r) != m + 1:
            raise ValidationError(f"{path}: row has {len(r)} cells, expected {m + 1}")
        try:
            data.append([float(c) for c in r[1:]])
        except ValueError as exc:
            raise ValidationError(f"{path}: non-numeric cell: {exc}") from exc
    if not data:
        raise ValidationError(f"{path}: no samples")
    return Signal(np.asarray(data))


def read_trajectory_csv_by_cell(path):
    """Read a t,u*,x*,y* table; returns a dict of signals present.

    Rows with empty cells in a group are excluded from that group's
    signal, so the state keeps its extra final sample.
    """
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].lstrip().startswith("#")]
    if not rows:
        raise ValidationError(f"{path}: empty file")
    header = [c.strip() for c in rows[0]]
    if header[0] != "t":
        raise ValidationError(f"{path}: first column must be t")
    groups = {}
    for idx, name in enumerate(header[1:], start=1):
        key = name.rstrip("0123456789")
        if key not in ("u", "x", "y") or name == key:
            raise ValidationError(f"{path}: unexpected column {name}")
        groups.setdefault(key, []).append(idx)
    out = {}
    for key, cols in groups.items():
        vals = []
        for r in rows[1:]:
            cells = [r[c].strip() if c < len(r) else "" for c in cols]
            if all(cells):
                try:
                    vals.append([float(c) for c in cells])
                except ValueError as exc:
                    raise ValidationError(f"{path}: non-numeric cell: {exc}") from exc
            elif any(cells):
                raise ValidationError(f"{path}: partially filled {key} row")
        if vals:
            out[key] = Signal(np.asarray(vals))
    return out

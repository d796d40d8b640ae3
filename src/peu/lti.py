"""Discrete-time state-space systems: simulation, controllability, behaviors.

A system x(t+1) = A x(t) + B u(t), y(t) = C x(t) + D u(t) is the
quadruple (A, B, C, D). The L-restricted behavior is the set of all
stacked L-long input-output windows the system can produce from some
initial state; ``behavior_basis`` returns an explicit matrix whose
column span equals it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .defaults import RTOL
from .errors import ValidationError
from .numkit import as_matrix, as_vector, rank_report
from .signals import Signal, as_signal

__all__ = [
    "StateSpaceSystem",
    "Trajectory",
    "BehaviorBasis",
    "simulate",
    "is_controllable",
    "observability_matrix",
    "markov_toeplitz",
    "behavior_basis",
]


def _pair(A, B):
    """(A, B) as matrices, refused unless A is square and B has as many rows."""
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValidationError(f"A must be square, got {A.shape}")
    if B.shape[0] != n:
        raise ValidationError(f"B must be {n}xm, got {B.shape}")
    return A, B


@dataclass(frozen=True)
class StateSpaceSystem:
    """Quadruple (A, B, C, D) with shapes (n,n), (n,m), (p,n), (p,m)."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        A, B = _pair(self.A, self.B)
        C = as_matrix(self.C, "C")
        D = as_matrix(self.D, "D")
        n = A.shape[0]
        if C.shape[1] != n:
            raise ValidationError(f"C must be px{n}, got {C.shape}")
        if D.shape != (C.shape[0], B.shape[1]):
            raise ValidationError(f"D must be {C.shape[0]}x{B.shape[1]}, got {D.shape}")
        for name, M in (("A", A), ("B", B), ("C", C), ("D", D)):
            M = M.copy()
            M.setflags(write=False)
            object.__setattr__(self, name, M)

    @classmethod
    def from_state_pair(cls, A, B) -> "StateSpaceSystem":
        """System whose output is the full state: (A, B, I, 0)."""
        A, B = _pair(A, B)
        n = A.shape[0]
        return cls(A, B, np.eye(n), np.zeros((n, B.shape[1])))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    def to_dict(self):
        return {
            "n": self.n, "m": self.m, "p": self.p,
            "A": self.A.tolist(), "B": self.B.tolist(),
            "C": self.C.tolist(), "D": self.D.tolist(),
        }


@dataclass(frozen=True)
class Trajectory:
    """Input u(0..T-1), state x(0..T), output y(0..T-1) of one simulation."""

    u: Signal
    x: Signal
    y: Signal


@dataclass(frozen=True)
class BehaviorBasis:
    """Explicit basis matrix for the L-restricted input-output behavior.

    ``basis`` is [[I_{Lm}, 0], [T_L, O_L]] where O_L stacks C, CA, ...,
    CA^{L-1} and T_L is the block-Toeplitz of Markov parameters D, CB,
    CAB, ...; its column span is the behavior and ``dim`` its dimension
    Lm + rank(O_L).
    """

    L: int
    basis: np.ndarray
    dim: int


def simulate(sys: StateSpaceSystem, x0, u: Signal) -> Trajectory:
    """Run the state recursion from x0 under input u.

    The returned state signal has length T+1 (the post-input state x(T)
    is kept); the output has length T. The input terms B u(t), D u(t)
    and the outputs C x(t) are stacked products outside the loop, which
    only adds A x(t) to the B u(t) already stored in x(t+1). A stacked
    ``np.matmul`` takes each sample's product by the same kernel as
    ``B @ u(t)``, and addition commutes, so the result is the per-step
    recursion's bit for bit. Time and memory are O(T).
    """
    u = as_signal(u)
    x0 = as_vector(x0, "x0")
    if u.dim != sys.m:
        raise ValidationError(f"input dim {u.dim} does not match system m={sys.m}")
    if x0.size != sys.n:
        raise ValidationError(f"x0 size {x0.size} does not match system n={sys.n}")
    T = u.length
    U = u.samples[:, :, None]
    x = np.empty((T + 1, sys.n))
    x[0] = x0
    x[1:] = np.matmul(sys.B, U)[:, :, 0]
    step = sys.A.dot  # bound once: the same gemv as ``A @ x_t``, without the operator lookup
    rows = list(x)
    for x_t, x_next in zip(rows, rows[1:]):
        x_next += step(x_t)
    y = np.matmul(sys.C, x[:T, :, None])[:, :, 0] + np.matmul(sys.D, U)[:, :, 0]
    return Trajectory(u=u, x=Signal(x), y=Signal(y))


def is_controllable(A, B, rtol=RTOL):
    """Popov-Belevitch-Hautus test; returns (verdict, RankReport).

    [A - lambda I, B] must have rank n at each distinct eigenvalue; a
    complex a + ib is tested by the real embedding
    [[A - aI, bI, B, 0], [-bI, A - aI, 0, B]] at rank 2n. An upper
    triangular A gives its diagonal as spectrum (``eigvals`` scatters
    a 30 x 30 Jordan block's by ~eps**(1/30)). The report is the
    weakest eigenvalue's; there is none when n = 0.
    """
    A, B = _pair(A, B)
    eigs = np.diag(A) if not np.tril(A, -1).any() else np.linalg.eigvals(A)
    I, Z = np.eye(len(A)), np.zeros_like(B)
    reports = []
    for lam in np.unique(eigs[eigs.imag >= 0]):
        a, b = lam.real, lam.imag
        M = (np.block([[A - a * I, b * I, B, Z], [-b * I, A - a * I, Z, B]]) if b
             else np.hstack([A - a * I, B]))
        rep = rank_report(M, rtol)
        reports.append((rep.rank - len(M), rep.singular_values[len(M) - 1] / rep.tolerance_used, rep))
    deficit, _, rep = min(reports, key=lambda r: r[:2], default=(0, 0, None))
    return deficit == 0, rep


def observability_matrix(C, A, L) -> np.ndarray:
    """Stack of C, CA, ..., CA^(L-1); shape (L*p, n).

    Built by doubling: once the first k block rows M_k are filled, the
    next k are M_k A^k, and A^2k = A^k A^k. That is about log2(L)
    products, and nothing beyond the result and one n x n power is
    kept. Where A^2k would overflow (an unstable mode that C does not
    see), the doubling stops and the rows advance k at a time by the
    last finite power. With C = x0^T and A^T the rows are the free
    states (A^t x0)^T, t = 0..L-1.
    """
    C = as_matrix(C, "C")
    A = as_matrix(A, "A")
    p = C.shape[0]
    O = np.empty((L * p, C.shape[1]))
    O[:p] = C
    filled, k, power = 1, 1, A  # power = A^k
    while filled < L:
        j = min(k, L - filled)
        start = filled - k
        np.matmul(O[start * p:(start + j) * p], power, out=O[filled * p:(filled + j) * p])
        filled += j
        if filled == 2 * k < L:
            with np.errstate(over="ignore", invalid="ignore"):
                square = power @ power
            if np.isfinite(square).all():
                k, power = filled, square
    return O


def markov_toeplitz(sys: StateSpaceSystem, L) -> np.ndarray:
    """Lower block-triangular Toeplitz of the first L Markov parameters.

    Block (i, j) is D on the diagonal and CA^(i-j-1)B below it; maps a
    stacked input window to the forced part of the output window.

    Block row i is the L-block window of W = [M_{L-1}, ..., M_1, M_0,
    0, ..., 0] (M_k the k-th Markov parameter, then L-1 zero blocks)
    that starts at block L-1-i. The result is one copy out of a
    sliding-window view of W, so it is the only array of its size made.
    """
    p, m = sys.p, sys.m
    markov = [sys.D]
    power = None
    for _ in range(L - 1):
        power = sys.B if power is None else sys.A @ power
        markov.append(sys.C @ power)
    W = np.hstack([*reversed(markov), np.zeros((p, (L - 1) * m))])
    windows = sliding_window_view(W, L * m, axis=1)[:, ::-m]  # (p, L, Lm): [:, i] is block row i
    return windows.transpose(1, 0, 2).copy().reshape(L * p, L * m)


def behavior_basis(sys: StateSpaceSystem, L, rtol=RTOL) -> BehaviorBasis:
    """Basis whose column span is the L-restricted input-output behavior."""
    if L < 1:
        raise ValidationError("L must be at least 1")
    O = observability_matrix(sys.C, sys.A, L)
    T = markov_toeplitz(sys, L)
    Lm = L * sys.m
    top = np.hstack([np.eye(Lm), np.zeros((Lm, sys.n))])
    bottom = np.hstack([T, O])
    dim = Lm + rank_report(O, rtol).rank
    return BehaviorBasis(L=L, basis=np.vstack([top, bottom]), dim=dim)

"""Finite vector-valued signals, block-Hankel matrices, excitation orders.

A signal is a time-major array of samples v(0)..v(T-1). The depth-k
block-Hankel matrix stacks the k-long sliding windows of the signal as
columns; a signal is persistently exciting of order k when that matrix
has full row rank.

The excitation scan does not factor each H_k on its own. Orders come in
groups of ``PE_GROUP``; the orders of one group share one QR factor R of
H_{k'}^T, k' the group's deepest order (capped at the scan's last
order). H_k^T is the first km columns of H_{k'}^T plus the k'-k windows
that start after T-k', so X_k = [R[:km, :km]; those windows] has
X_k^T X_k = H_k H_k^T: the singular values of H_k, from a matrix of
km + k'-k rows instead of T-k+1 columns. k' depends on (T, dim, k)
only, so a shorter scan is an exact prefix of a longer one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .defaults import RTOL
from .errors import ValidationError
from .numkit import rank_report

__all__ = ["Signal", "PEReport", "as_signal", "stack", "hankel", "pe_order", "is_pe"]

# Orders per shared QR factor. One QR of the deepest Hankel matrix of a group
# replaces a factorization of every order's T-long Hankel matrix; a larger
# group makes that QR and the appended window rows grow, a smaller one the
# number of QRs. 8, 16 and 32 time within 2% of each other on record-sized
# scans (T 200-500, dim 1-3).
PE_GROUP = 16


@dataclass(frozen=True)
class Signal:
    """Immutable finite signal: ``samples[t]`` is the dim-vector v(t)."""

    samples: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.samples, dtype=float)
        if a.ndim == 1:
            a = a.reshape(-1, 1)
        if a.ndim != 2:
            raise ValidationError("signal samples must be (length, dim)")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise ValidationError("signal must have positive length and dimension")
        if not np.all(np.isfinite(a)):
            raise ValidationError("signal contains non-finite entries")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "samples", a)

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    @property
    def length(self) -> int:
        return self.samples.shape[0]

    def window(self, start, stop) -> "Signal":
        """Sub-signal of samples v(start)..v(stop-1)."""
        if not (0 <= start < stop <= self.length):
            raise ValidationError(f"window [{start},{stop}) out of range for length {self.length}")
        return Signal(self.samples[start:stop])


def as_signal(v) -> Signal:
    """Pass a ``Signal`` through; wrap anything else (validated by ``Signal``)."""
    return v if isinstance(v, Signal) else Signal(v)


@dataclass(frozen=True)
class PEReport:
    """Per-order excitation ranks for k = 1..floor((T+1)/(dim+1)).

    Beyond that cap the Hankel matrix has more rows than columns, so all
    higher orders are deficient without a factorization. ``max_order``
    is the last order before the first row-rank failure (0 when order 1
    already fails). A report scanned with ``pe_order(..., up_to=K)``
    lists orders 1..min(cap, K) only; its ``max_order`` is then the last
    full-rank order among those scanned, min(true max_order, K).
    """

    max_order: int
    per_order: tuple  # ((k, RankReport), ...)

    def to_dict(self):
        return {
            "max_order": self.max_order,
            "per_order": [
                {"order": k, **report.to_dict()} for k, report in self.per_order
            ],
        }


def _check_depth(v: Signal, L, low=1):
    """Refuse a depth ``L`` outside [low, T] with a ValidationError that names L."""
    if L < low or L > v.length:
        raise ValidationError(f"L={L} out of range [{low}, {v.length}]")


def stack(v: Signal) -> np.ndarray:
    """Time-major stacking of all samples into one long vector."""
    return v.samples.reshape(-1).copy()


def hankel(v: Signal, k: int) -> np.ndarray:
    """Block-Hankel matrix of depth k: block (i, j) is v(i + j).

    Shape (k*dim, T-k+1); columns are the overlapping k-long windows.
    """
    v = as_signal(v)
    T, d = v.length, v.dim
    if not (1 <= k <= T):
        raise ValidationError(f"Hankel depth k={k} out of range [1, {T}]")
    cols = T - k + 1
    H = np.empty((k * d, cols))
    for i in range(k):
        H[i * d:(i + 1) * d, :] = v.samples[i:i + cols].T
    return H


def _pe_cap(v: Signal) -> int:
    """Last order whose Hankel matrix has at least as many columns as rows."""
    return (v.length + 1) // (v.dim + 1)


def _group_depth(k, cap):
    """Depth k' of the QR factor shared by order k's group (k <= k' <= cap)."""
    return min(PE_GROUP * -(-k // PE_GROUP), cap)


def _group_factor(v: Signal, depth):
    """R of the QR factorization of H_depth(v)^T, (depth*dim, depth*dim)."""
    return np.linalg.qr(hankel(v, depth).T, mode="r")


def _order_report(v: Signal, k, depth, R, rtol):
    """Rank report of H_k(v), k <= depth <= cap, from its group's factor R.

    The singular values are those of [R[:km, :km]; W], where W holds the
    windows of length k that start at t = T-depth+1..T-k; tolerance and
    shape are H_k's.
    """
    T, m = v.length, v.dim
    windows = sliding_window_view(v.samples.reshape(-1), k * m)[(T - depth + 1) * m::m]
    X = np.vstack([R[:k * m, :k * m], windows])
    return rank_report(X, rtol, shape=(k * m, T - k + 1))


def pe_order(v: Signal, rtol=RTOL, up_to=None) -> PEReport:
    """Largest persistency-of-excitation order of the signal, with evidence.

    Scans k = 1..floor((T+1)/(dim+1)); orders beyond the cap cannot have
    full row rank by column count. Each order's singular values come from
    its group's shared QR factor (see the module docstring); they equal
    H_k's to rounding, and tolerance and shape are H_k's. A failure at
    some order caps ``max_order`` there even if a later factorization
    were to disagree (an order-k exciting signal is exciting at every
    lower order).

    ``up_to`` (a positive int) stops the scan after order ``up_to`` as
    well; ``None`` scans to the cap. The listed orders are a prefix of
    the full listing, entry for entry, and ``max_order`` is the last
    full-rank order among those scanned: min(true max_order, up_to).
    So ``max_order >= up_to`` holds exactly when the full scan's does.
    """
    v = as_signal(v)
    cap = _pe_cap(v)
    k_stop = cap
    if up_to is not None:
        if up_to < 1:
            raise ValidationError(f"up_to={up_to} must be a positive order")
        k_stop = min(cap, up_to)
    reports = []
    max_order = 0
    failed = False
    factored = R = None
    for k in range(1, k_stop + 1):
        depth = _group_depth(k, cap)
        if depth != factored:
            factored, R = depth, _group_factor(v, depth)
        rep = _order_report(v, k, depth, R, rtol)
        reports.append((k, rep))
        if not failed and rep.full_row_rank:
            max_order = k
        else:
            failed = True
    return PEReport(max_order=max_order, per_order=tuple(reports))


def is_pe(v: Signal, k: int, rtol=RTOL):
    """Whether the signal is persistently exciting of order k.

    Returns (verdict, RankReport) for the depth-k Hankel matrix. Up to
    the scan's cap the report comes from k's group factor, so it equals
    ``pe_order``'s entry for k exactly; beyond the cap H_k has more rows
    than columns and is factored directly.
    """
    v = as_signal(v)
    cap = _pe_cap(v)
    if 1 <= k <= cap:
        depth = _group_depth(k, cap)
        rep = _order_report(v, k, depth, _group_factor(v, depth), rtol)
    else:
        rep = rank_report(hankel(v, k), rtol)
    return rep.full_row_rank, rep

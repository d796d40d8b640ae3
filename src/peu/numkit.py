"""Dense matrix kernel: rank reports, null spaces, common polynomial roots.

Matrices are plain 2-D float64 numpy arrays, validated on entry (finite
entries only). Every single rank decision in the package flows through
``rank_report`` so that each claim carries its singular values and the
tolerance that produced it; ``stacked_deficient`` decides stacks [M; x]
that share M from one SVD of M and never calls a stack deficient that
``rank_report`` calls full. One tolerance rule serves ``rank_report``,
``stacked_deficient`` and ``kernel_basis``: a singular value counts as
nonzero when it exceeds ``rtol * max(rows, cols) * sigma_max`` (plain
``rtol`` when sigma_max is 0), which ``rank_report`` may raise to an
absolute floor ``atol``. ``rank_report(M, shape=...)`` decides for a
larger matrix whose singular values M shares (``signals.pe_order`` passes
a small factor of each Hankel matrix): tolerance and report use that shape.
``kernel_basis`` keeps the SVD's order, so its last column is the
best-annihilating unit vector: one call both decides whether a kernel
exists and supplies that vector; its SVD of a tall matrix is thin, since
only the right singular vectors are read. Every SVD goes through
``_svd``, which retries on the transpose where LAPACK does not converge.
``lambda_set`` holds the common roots of a vector polynomial implicitly
and decides membership by evaluating the polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .defaults import RTOL
from .errors import ValidationError

__all__ = [
    "LambdaSet",
    "RankReport",
    "as_matrix",
    "as_vector",
    "rank_report",
    "stacked_deficient",
    "kernel_basis",
    "lambda_set",
]


def as_matrix(M, name="matrix"):
    """Coerce to a 2-D float array, rejecting NaN/Inf entries."""
    A = np.asarray(M, dtype=float)
    if A.ndim == 1:
        A = A.reshape(1, -1)
    if A.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got ndim={A.ndim}")
    if A.size and not np.all(np.isfinite(A)):
        raise ValidationError(f"{name} contains non-finite entries")
    return A


def as_vector(v, name="vector"):
    """Coerce to a 1-D float array, rejecting NaN/Inf entries."""
    a = np.asarray(v, dtype=float).reshape(-1)
    if a.size and not np.all(np.isfinite(a)):
        raise ValidationError(f"{name} contains non-finite entries")
    return a


@dataclass(frozen=True)
class RankReport:
    """Rank decision together with the evidence that produced it.

    ``rank`` counts singular values strictly above ``tolerance_used``,
    where ``tolerance_used = rtol * max(rows, cols) * sigma_max`` (and
    plain ``rtol`` for an all-zero matrix).
    """

    rank: int
    singular_values: tuple
    tolerance_used: float
    full_row_rank: bool
    full_col_rank: bool
    shape: tuple

    def to_dict(self):
        return {
            "rank": self.rank,
            "singular_values": list(self.singular_values),
            "tolerance_used": self.tolerance_used,
            "full_row_rank": self.full_row_rank,
            "full_col_rank": self.full_col_rank,
            "shape": list(self.shape),
        }


def _tolerance(smax, shape, rtol):
    """The rank tolerance for ``shape`` matrices with largest singular value ``smax``.

    ``smax`` is a float for one matrix or an array with one entry per
    matrix; the result has the same form. Where ``smax`` is 0 the first
    term is 0 and the second is ``rtol``; elsewhere the second term adds
    an exact 0.
    """
    return rtol * max(shape) * smax + rtol * (smax == 0)


def _check_rtol(rtol):
    """Refuse an ``rtol`` that is not a positive finite number (NaN included)."""
    if not 0 < rtol < np.inf:
        raise ValidationError(f"rtol must be positive and finite, got {rtol!r}")


def _svd(A, **kwargs):
    """``np.linalg.svd`` of a matrix or stack, retried on the transpose.

    LAPACK's ``gesdd`` can fail to converge on one orientation of a
    matrix and converge on the other. On ``LinAlgError`` the SVD of the
    transpose is taken and turned back into the SVD of ``A``: the
    singular values are shared and the roles of the two singular
    vector sets swap. Where the first call converges its result is
    returned untouched.
    """
    try:
        return np.linalg.svd(A, **kwargs)
    except np.linalg.LinAlgError:
        out = np.linalg.svd(np.swapaxes(A, -1, -2), **kwargs)
        if not kwargs.get("compute_uv", True):
            return out
        u, s, vh = out
        return np.swapaxes(vh, -1, -2), s, np.swapaxes(u, -1, -2)


def rank_report(M, rtol=RTOL, atol=0.0, shape=None) -> RankReport:
    """Singular-value rank decision for a dense matrix.

    Args:
        M: matrix (anything ``as_matrix`` accepts, including 0-row/0-col).
        rtol: relative tolerance; must be positive and finite.
        atol: optional absolute floor on the tolerance, for callers whose
            matrix can be pure rounding noise relative to an external
            data scale (for example a state row driven by a much larger
            input); 0 keeps the purely relative policy.
        shape: the (rows, cols) of the matrix whose singular values ``M``
            shares, when ``M`` is a smaller stand-in for it (such as a
            triangular factor with the same Gram matrix); the tolerance,
            the full-rank flags and ``RankReport.shape`` then describe
            that matrix. ``None`` means ``M``'s own shape.

    Returns:
        RankReport with non-increasing singular values.
    """
    A = as_matrix(M)
    _check_rtol(rtol)
    if atol < 0:
        raise ValidationError("atol must be non-negative")
    rows, cols = A.shape if shape is None else shape
    if min(rows, cols) != min(A.shape):
        raise ValidationError(f"a {A.shape} matrix cannot share the singular values of a "
                              f"{(rows, cols)} matrix")
    s = _svd(A, compute_uv=False)
    tol = max(_tolerance(float(s[0]) if s.size else 0.0, (rows, cols), rtol), atol)
    rank = int(np.sum(s > tol))
    return RankReport(
        rank=rank,
        singular_values=tuple(float(x) for x in s),
        tolerance_used=float(tol),
        full_row_rank=rank == rows,
        full_col_rank=rank == cols,
        shape=(rows, cols),
    )


def stacked_deficient(M, X, rtol=RTOL):
    """Whether each stack [M; x], x a row of X (as wide as M), lacks full row rank.

    Returns an (N,) bool array for the N rows of X. One SVD of M gives
    its rank r under ``rank_report``'s rule and an orthonormal basis Q of
    its row space. A stack is deficient when r < rows, or when
    ``||x - (x Q) Q^T|| <= rtol * max(rows + 1, cols) * max(sigma_max(M),
    ||x||)`` (plain ``rtol`` where both are 0). Either way the stack's
    (rows+1)-th singular value is at most ``rank_report``'s tolerance for
    it (by interlacing, or by Weyl's inequality), so ``rank_report``
    finds every stack decided deficient here deficient.
    """
    A, S = as_matrix(M), as_matrix(X)
    _check_rtol(rtol)
    rows, cols = A.shape
    _, s, vh = _svd(A, full_matrices=False)
    smax = float(s[0]) if s.size else 0.0
    if np.sum(s > _tolerance(smax, A.shape, rtol)) < rows:
        return np.ones(len(S), dtype=bool)
    c = np.maximum(np.abs(S).max(axis=1, initial=smax), np.finfo(float).tiny)[:, None]
    S = S / c  # scaled by max(sigma_max(M), max |x_j|): no square in a norm over- or underflows
    tol = _tolerance(np.maximum(smax / c[:, 0], np.linalg.norm(S, axis=1)), (rows + 1, cols), rtol)
    return np.linalg.norm(S - S @ vh.T @ vh, axis=1) <= tol


def kernel_basis(M, rtol=RTOL):
    """Orthonormal basis for the right kernel of ``M``.

    Returns a (cols, cols - rank) matrix whose columns K satisfy
    ``M @ K ~ 0`` at the rank tolerance and ``K.T @ K = I``. The columns
    are right singular vectors in order of decreasing singular value, so
    the last one minimizes ``||M v||`` over unit v; a 0-row ``M`` gives
    the identity.
    """
    A = as_matrix(M)
    _check_rtol(rtol)
    # thin where rows >= cols: vh is square either way, and a tall A's full U
    # would be a rows x rows array that is never read
    _, s, vh = _svd(A, full_matrices=A.shape[0] < A.shape[1])  # vh = I where A has no entries
    rank = int(np.sum(s > _tolerance(float(s[0]) if s.size else 0.0, A.shape, rtol)))
    return vh[rank:].T.copy()


@dataclass(frozen=True)
class LambdaSet:
    """The common roots of ``eta(z) = sum_i z**i * eta_i``, held implicitly.

    Membership is decided by evaluating eta, never by finding roots: z
    belongs to the set when ``margin(z) <= rtol``. A root of any
    multiplicity passes at rounding level, where companion-matrix roots
    would split it by about eps**(1/multiplicity). ``eta`` is stored
    scaled to unit Frobenius norm.
    """

    eta: np.ndarray                # (k, m), rows eta_0..eta_{k-1}
    rtol: float

    def margin(self, z):
        """``||eta(z)|| / (||eta||_F * ||(1, z, ..., z**(k-1))||)``, which lies in [0, 1].

        ``z`` is a real or complex number or an array of them; the result
        is a float or an array of ``z``'s shape. Where |z| > 1 the ratio
        is evaluated at 1/z with the coefficients reversed, its exact
        equivalent, so no power of z overflows.
        """
        z = np.asarray(z)
        outside = np.abs(z) > 1
        w = np.where(outside, 1 / np.where(outside, z, 1), z)
        k = len(self.eta)
        powers = np.vander(w.ravel(), k, increasing=True).reshape(w.shape + (k,))
        value = np.where(outside[..., None], powers @ self.eta[::-1], powers @ self.eta)
        ratio = np.minimum(np.linalg.norm(value, axis=-1) / np.linalg.norm(powers, axis=-1), 1.0)
        return float(ratio) if ratio.ndim == 0 else ratio

    def contains(self, z):
        """Whether z is a common root at tolerance ``rtol``, shaped like ``margin(z)``."""
        return self.margin(z) <= self.rtol


def lambda_set(eta, rtol=RTOL) -> LambdaSet:
    """Common roots of the vector polynomial ``sum_i z**i * eta_i``.

    ``eta`` is a sequence of m-vectors (rows of a (k, m) array; a 1-D
    array is treated as m = 1). A coordinate polynomial that is
    identically zero imposes no constraint, since it adds nothing to
    ``||eta(z)||``.

    Raises:
        ValidationError: eta is empty, non-finite or zero, or rtol is not
            positive and finite.
    """
    E = np.asarray(eta, dtype=float)
    if E.ndim == 1:
        E = E.reshape(-1, 1)
    if E.ndim != 2:
        raise ValidationError("eta must be a sequence of coefficient vectors")
    if E.size == 0 or not np.all(np.isfinite(E)):
        raise ValidationError("eta must be non-empty and finite")
    _check_rtol(rtol)
    scale = float(np.abs(E).max())
    if scale == 0.0:
        raise ValidationError("eta must be nonzero")
    E = E / scale  # keeps the norm below from overflowing
    return LambdaSet(eta=E / np.linalg.norm(E), rtol=rtol)

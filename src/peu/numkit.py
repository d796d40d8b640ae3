"""Dense matrix kernel: rank reports, null spaces, polynomial roots.

Matrices are plain 2-D float64 numpy arrays, validated on entry (finite
entries only). Every single rank decision in the package flows through
``rank_report`` so that each claim carries its singular values and the
tolerance that produced it; ``stacked_ranks`` decides a whole stack of
matrices at once by the same rule and returns the ranks only. One
tolerance rule serves ``rank_report``, ``stacked_ranks`` and
``kernel_basis``: a singular value counts as nonzero when it exceeds
``rtol * max(rows, cols) * sigma_max`` (plain ``rtol`` when sigma_max is
0), which ``rank_report`` may raise to an absolute floor ``atol``.
``kernel_basis`` keeps the SVD's order, so its last column is the
best-annihilating unit vector: one call both decides whether a kernel
exists and supplies that vector. Every SVD goes through ``_svd``, which
retries on the transpose where LAPACK does not converge. Complex
arithmetic stays inside this module: callers receive real matrices and
``RootSet`` values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .defaults import CLUSTER_RADIUS, RTOL
from .errors import ValidationError, ZeroPolynomialError

__all__ = [
    "RankReport",
    "RootSet",
    "as_matrix",
    "as_vector",
    "rank_report",
    "stacked_ranks",
    "kernel_basis",
    "polynomial_roots",
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


@dataclass(frozen=True)
class RootSet:
    """Finite set of complex roots, merged at ``cluster_radius``.

    Stored roots are pairwise farther apart than ``cluster_radius``;
    multiple roots collapse onto one representative.
    """

    roots: tuple
    cluster_radius: float

    def __len__(self):
        return len(self.roots)

    def distance(self, z) -> float:
        """Distance from ``z`` to the nearest stored root (inf when empty)."""
        if not self.roots:
            return np.inf
        return min(abs(complex(z) - r) for r in self.roots)

    def contains(self, z) -> bool:
        return self.distance(z) <= self.cluster_radius

    def to_dict(self):
        return {
            "roots": [[r.real, r.imag] for r in self.roots],
            "cluster_radius": self.cluster_radius,
        }


def _tolerance(smax, shape, rtol):
    """The rank tolerance for ``shape`` matrices with largest singular value ``smax``.

    ``smax`` is a float for one matrix or an array with one entry per
    matrix; the result has the same form. Where ``smax`` is 0 the first
    term is 0 and the second is ``rtol``; elsewhere the second term adds
    an exact 0.
    """
    return rtol * max(shape) * smax + rtol * (smax == 0)


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


def rank_report(M, rtol=RTOL, atol=0.0) -> RankReport:
    """Singular-value rank decision for a dense matrix.

    Args:
        M: matrix (anything ``as_matrix`` accepts, including 0-row/0-col).
        rtol: relative tolerance; must be positive.
        atol: optional absolute floor on the tolerance, for callers whose
            matrix can be pure rounding noise relative to an external
            data scale (for example a state row driven by a much larger
            input); 0 keeps the purely relative policy.

    Returns:
        RankReport with non-increasing singular values.
    """
    A = as_matrix(M)
    if rtol <= 0:
        raise ValidationError("rtol must be positive")
    if atol < 0:
        raise ValidationError("atol must be non-negative")
    rows, cols = A.shape
    if rows == 0 or cols == 0:
        s = np.zeros(0)
    else:
        s = _svd(A, compute_uv=False)
    tol = max(_tolerance(float(s[0]) if s.size else 0.0, A.shape, rtol), atol)
    rank = int(np.sum(s > tol))
    return RankReport(
        rank=rank,
        singular_values=tuple(float(x) for x in s),
        tolerance_used=float(tol),
        full_row_rank=rank == rows,
        full_col_rank=rank == cols,
        shape=(rows, cols),
    )


def stacked_ranks(M, rtol=RTOL):
    """Ranks of a stack of matrices, decided as ``rank_report`` decides them.

    Args:
        M: (N, rows, cols) array of N matrices with finite entries.
        rtol: relative tolerance; must be positive.

    Returns:
        (N,) integer array; entry i equals ``rank_report(M[i], rtol).rank``.
        One batched SVD serves the whole stack, and no reports are built.
    """
    S = np.asarray(M, dtype=float)
    if S.ndim != 3:
        raise ValidationError(f"stack must be 3-D, got ndim={S.ndim}")
    if S.size and not np.all(np.isfinite(S)):
        raise ValidationError("matrix contains non-finite entries")
    if rtol <= 0:
        raise ValidationError("rtol must be positive")
    s = _svd(S, compute_uv=False)
    smax = s[:, 0] if s.shape[1] else np.zeros(len(s))
    return np.sum(s > _tolerance(smax, S.shape[1:], rtol)[:, None], axis=1)


def kernel_basis(M, rtol=RTOL):
    """Orthonormal basis for the right kernel of ``M``.

    Returns a (cols, cols - rank) matrix whose columns K satisfy
    ``M @ K ~ 0`` at the rank tolerance and ``K.T @ K = I``. The columns
    are right singular vectors in order of decreasing singular value, so
    the last one minimizes ``||M v||`` over unit v; a 0-row ``M`` gives
    the identity.
    """
    A = as_matrix(M)
    if rtol <= 0:
        raise ValidationError("rtol must be positive")
    rows, cols = A.shape
    if rows == 0 or cols == 0:
        return np.eye(cols)
    _, s, vh = _svd(A, full_matrices=True)
    rank = int(np.sum(s > _tolerance(float(s[0]), A.shape, rtol)))
    return vh[rank:].T.copy()


def _cluster(points, radius):
    """Greedy merge: keep a point only when farther than ``radius`` from all kept ones."""
    reps = []
    for z in sorted(points, key=lambda z: (z.real, z.imag)):
        if all(abs(z - r) > radius for r in reps):
            reps.append(z)
    return tuple(reps)


def polynomial_roots(coeffs, rtol=RTOL, cluster_radius=CLUSTER_RADIUS) -> RootSet:
    """Roots of ``sum_i coeffs[i] * z**i`` via companion-matrix eigenvalues.

    Trailing coefficients below ``rtol * max|c_i|`` are trimmed before the
    companion matrix is formed; a polynomial that trims to a nonzero
    constant has an empty root set. Numerically coincident roots are
    merged at ``cluster_radius``.

    Raises:
        ZeroPolynomialError: all coefficients are numerically zero.
    """
    c = as_vector(coeffs, "coefficients")
    if cluster_radius <= 0:
        raise ValidationError("cluster_radius must be positive")
    if c.size == 0:
        raise ZeroPolynomialError("no coefficients given")
    cmax = float(np.abs(c).max())
    if cmax == 0.0:
        raise ZeroPolynomialError("identically-zero polynomial")
    thr = rtol * cmax
    degree = c.size - 1
    while degree > 0 and abs(c[degree]) <= thr:
        degree -= 1
    if degree == 0:
        if abs(c[0]) <= thr:
            raise ZeroPolynomialError("identically-zero polynomial")
        return RootSet(roots=(), cluster_radius=cluster_radius)
    roots = np.polynomial.polynomial.polyroots(c[: degree + 1])
    return RootSet(roots=_cluster([complex(z) for z in roots], cluster_radius),
                   cluster_radius=cluster_radius)


def lambda_set(eta, rtol=RTOL, cluster_radius=CLUSTER_RADIUS) -> RootSet:
    """Common roots of the vector polynomial ``sum_i z**i * eta_i``.

    ``eta`` is a sequence of m-vectors (rows of a (k, m) array; a 1-D
    array is treated as m = 1). The returned set is the intersection,
    within ``cluster_radius``, of the root sets of the m scalar
    coordinate polynomials; coordinate polynomials that are identically
    zero (relative to the largest entry of eta) impose no constraint.

    Raises:
        ValidationError: eta is numerically zero.
    """
    E = np.asarray(eta, dtype=float)
    if E.ndim == 1:
        E = E.reshape(-1, 1)
    if E.ndim != 2:
        raise ValidationError("eta must be a sequence of coefficient vectors")
    if E.size == 0 or not np.all(np.isfinite(E)):
        raise ValidationError("eta must be non-empty and finite")
    scale = float(np.abs(E).max())
    if scale == 0.0:
        raise ValidationError("eta must be nonzero")
    zero_thr = rtol * scale

    constraint_sets = []
    for j in range(E.shape[1]):
        col = E[:, j]
        if np.abs(col).max() <= zero_thr:
            continue  # no constraint from an identically-zero coordinate
        constraint_sets.append(polynomial_roots(col, rtol, cluster_radius))
    if not constraint_sets:
        raise ValidationError("eta must be nonzero")

    common = list(constraint_sets[0].roots)
    for rs in constraint_sets[1:]:
        common = [z for z in common if rs.distance(z) <= cluster_radius]
    return RootSet(roots=_cluster(common, cluster_radius), cluster_radius=cluster_radius)

"""Constructive counterexamples for inputs that are not exciting enough.

Given an input that is not persistently exciting of order n+L, this
module builds a controllable pair (A, B) and an initial state whose
input-state data is provably rank-deficient, certified by explicit
annihilator vectors (v, w). The construction runs off a left-kernel
vector eta of the depth-(n+L) input Hankel matrix: A is chosen cyclic
with spectrum avoiding the common roots of eta's vector polynomial
eta(z) = sum_i z^i eta_i (decided by evaluating eta, see
``numkit.lambda_set``), a backward matrix recursion produces B and the
initial state, and a Krylov solve produces the annihilators. The
state-level certificate extends to an output-level one (first output
row = w) showing the data span misses part of the behavior, and
specializes to a depth-0 variant (state Hankel rank deficiency) and to
a dense single-input family where the user picks (A, B).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .defaults import RTOL, TOL_CERT
from .errors import (
    ConstructionError,
    EigenvalueConflictError,
    NearSingularError,
    PersistentlyExcitingError,
    ValidationError,
)
from .flemma import LemmaCheck, check_behavior_equality
from .lti import StateSpaceSystem, is_controllable, simulate
from .numkit import (
    RankReport,
    as_matrix,
    as_vector,
    lambda_set,
    rank_report,
    kernel_basis,
    stacked_deficient,
)
from .signals import Signal, as_signal, hankel, stack

__all__ = [
    "CounterexampleCertificate",
    "OutputCounterexample",
    "CloudPoint",
    "CloudResult",
    "construct_certificate",
    "construct_certificate_l0",
    "extend_to_output",
    "single_input_family",
    "sample_system_cloud",
]


@dataclass(frozen=True)
class CounterexampleCertificate:
    """Full output of one counterexample construction, with its evidence.

    ``E`` holds the recursion matrices in descending index order
    E_{n+L-1}, ..., E_{-1} (so ``E[-1]`` is B). Every data length takes
    the same construction; ``short_data_case`` marks T < n+L-1, where
    the state Hankel matrix cannot have full row rank. The common roots
    that spec(A) avoids follow from eta:
    ``numkit.lambda_set(cert.eta, cert.rtol)``. (v, w) is stored scaled
    to unit w; xi keeps the raw Krylov solve.
    """

    n: int
    m: int
    L: int
    T: int
    eta: np.ndarray                # (n+L, m), rows eta_0..eta_{n+L-1}
    A: np.ndarray
    zeta: np.ndarray
    E: tuple                       # (E_{n+L-1}, ..., E_{-1}), each (n, m)
    B: np.ndarray
    x0: np.ndarray
    xi: np.ndarray
    v: np.ndarray                  # length L*m
    w: np.ndarray                  # length n, unit norm
    residual_annihilation: float
    rank_deficit_confirmed: bool
    short_data_case: bool
    states: np.ndarray             # x(0)..x(T-L) actually certified
    stacked_rank: RankReport
    residuals: dict
    rtol: float
    tol_cert: float

    def state_pair(self) -> StateSpaceSystem:
        """The certified pair as a state-output system (A, B, I, 0)."""
        return StateSpaceSystem.from_state_pair(self.A, self.B)

    def to_dict(self):
        return {
            "n": self.n, "m": self.m, "L": self.L, "T": self.T,
            "short_data_case": self.short_data_case,
            "eta": self.eta.tolist(),
            "A": self.A.tolist(),
            "zeta": self.zeta.tolist(),
            "E": [Ei.tolist() for Ei in self.E],
            "B": self.B.tolist(),
            "x0": self.x0.tolist(),
            "xi": self.xi.tolist(),
            "v": self.v.tolist(),
            "w": self.w.tolist(),
            "residual_annihilation": self.residual_annihilation,
            "rank_deficit_confirmed": self.rank_deficit_confirmed,
            "states": self.states.tolist(),
            "stacked_rank": self.stacked_rank.to_dict(),
            "residuals": dict(self.residuals),
            "rtol": self.rtol,
            "tol_cert": self.tol_cert,
        }


@dataclass(frozen=True)
class OutputCounterexample:
    """Single-output system on which the certified data misses the behavior.

    ``annihilator`` kills every column of the stacked input-output
    Hankel matrix, while the witness window (zero input from an initial
    state aligned with w) produces ``separation_value`` = 1 against it,
    so the data span is a proper subspace of the behavior.
    """

    sys: StateSpaceSystem
    y: Signal
    annihilator: np.ndarray
    witness_u: Signal
    witness_x0: np.ndarray
    witness_y: Signal
    separation_value: float
    residual_annihilation: float
    behavior_check: LemmaCheck


@dataclass(frozen=True)
class CloudPoint:
    """One scalar-state system from the dense counterexample family."""

    a: float
    b: np.ndarray
    x0: float
    verified: bool


@dataclass(frozen=True)
class CloudResult:
    """A cloud as columns: point i is (a[i], b[i], x0[i], verified[i]), b (N, m)."""

    a: np.ndarray
    b: np.ndarray
    x0: np.ndarray
    verified: np.ndarray
    n_skipped: int

    @functools.cached_property
    def points(self) -> tuple:
        """The points as ``CloudPoint`` objects, built on first access."""
        return tuple(map(CloudPoint, self.a.tolist(), self.b, self.x0.tolist(),
                         self.verified.tolist()))

    @property
    def verified_fraction(self) -> float:
        return float(self.verified.mean()) if self.verified.size else 0.0


_CLOUD_BLOCK = 256  # points per batch in sample_system_cloud; bounds its memory


def _jordan_block(lam, n):
    J = np.eye(n) * lam
    if n > 1:
        J += np.diag(np.ones(n - 1), 1)
    return J


# Deterministic eigenvalue scan 0, 1, -1, ..., 32, -32. Finite, so that a kernel
# vector whose margin vanishes at every large |z| (an impulse input's z^j) ends
# the scan with a ConstructionError instead of running forever.
_LAMBDA0_CANDIDATES = (0.0, *(float(s * k) for k in range(1, 33) for s in (1, -1)))


def _krylov(A, zeta, count):
    cols = [zeta]
    for _ in range(count - 1):
        cols.append(A @ cols[-1])
    return np.column_stack(cols)


def _solve_xi(A, zeta, n):
    """xi with xi^T A^i zeta = 0 for i < n-1 and xi^T A^(n-1) zeta = 1."""
    if n == 1:
        return np.array([1.0])
    K = _krylov(A, zeta, n)
    e_n = np.zeros(n)
    e_n[-1] = 1.0
    try:
        return np.linalg.solve(K.T, e_n)
    except np.linalg.LinAlgError as exc:
        raise ConstructionError(f"Krylov matrix of (A, zeta) is singular: {exc}") from exc


def _recursion_and_state(A, zeta, eta, u_data, n, m, L):
    """Backward E recursion, B, x0 and the simulated state x(0)..x(T-L).

    Returns (E_desc, B, x0, states) with E in descending index order.
    The x0 sum stops at the last sample: u is zero past T.
    """
    T = u_data.shape[0]
    k = n + L
    E = [np.zeros((n, m))]  # E_{k-1}
    for i in range(k - 1, -1, -1):
        E.append(A @ E[-1] + np.outer(zeta, eta[i]))
    # E is now [E_{k-1}, E_{k-2}, ..., E_{-1}]
    B = E[-1]
    x0 = np.zeros(n)
    for i in range(min(k - 1, T)):
        x0 -= E[k - 1 - i] @ u_data[i]  # E[k-1-i] is E_i
    states = np.empty((T - L + 1, n))
    states[0] = x0
    for t in range(T - L):
        states[t + 1] = A @ states[t] + B @ u_data[t]
    return tuple(E), B, x0, states


def _closed_form_states(A, zeta, eta, E_desc, u_data, n, m, L):
    """Direct evaluation of the constructive trajectory formulas.

    Every state is x(t) = -sum_{i=0}^{k-2} E_i u(t+i) with u padded by
    n-1 zero samples, which truncates the window exactly where the
    formula does for the final r steps; those steps t = s+1..s+r
    (s := max(T-L-n+1, 0) and r := T-L-s, which is n-1 unless
    T < n+L-1) also gain sum_{j<t-s} A^(t-s-1-j) zeta c_j, with
    c_j = sum_{l=0}^{k-2} eta_l u(s+j+l) over the samples that exist.
    Both parts are products with one depth-(k-1) Hankel matrix of the
    padded input. Replays the induction behind the construction;
    simulation must agree to rounding.
    """
    T = u_data.shape[0]
    k = n + L
    s = max(T - L - n + 1, 0)
    r = T - L - s
    if k == 1:
        return np.zeros((T - L + 1, n))
    H = hankel(np.vstack([u_data, np.zeros((n - 1, m))]), k - 1)
    G = np.hstack(E_desc[k - 1:0:-1])  # [E_0 ... E_{k-2}]; E_desc[k-1-i] is E_i
    out = -(G @ H).T
    if r:
        c = eta[:k - 1].reshape(-1) @ H[:, s:s + r]
        lags = np.arange(r)
        C = np.triu(c[np.abs(lags[None, :] - lags[:, None])])  # C[p, q] = c_{q-p}
        out[s + 1:] += (_krylov(A, zeta, r) @ C).T
    return out


def _stacked_matrix(u: Signal, states, L):
    if L == 0:
        return hankel(Signal(states), 1)
    return np.vstack([hankel(u, L), hankel(Signal(states), 1)])


def _project_to_kernel(eta_flat, K):
    """Snap a user-supplied eta onto span(K), keeping its norm.

    K is the orthonormal left-kernel basis of the input Hankel matrix.
    Supplied kernel vectors are often quoted at limited precision; the
    construction needs the annihilation to hold exactly, so the nearest
    true kernel vector is used. Losing more than half the norm means
    the vector was never close to the kernel.
    """
    proj = K @ (K.T @ eta_flat)
    norm_in = float(np.linalg.norm(eta_flat))
    norm_pr = float(np.linalg.norm(proj))
    if norm_pr < 0.5 * norm_in:
        raise ValidationError(
            f"supplied eta is far from the kernel (projection keeps {norm_pr / norm_in:.2%})"
        )
    return proj * (norm_in / norm_pr)


def _kernel_vector(u, k, rtol, eta_override=None):
    """Left-kernel vector eta of H_k(u), its annihilation residual and common roots.

    One SVD of H_k(u) decides both questions: the left-kernel basis K
    is empty exactly when u is persistently exciting of order k, which
    is refused. Otherwise eta is K's last column, the best-annihilating
    unit vector, or ``eta_override`` snapped onto the span of K. With
    T < k the Hankel matrix has no columns, K is the identity and the
    default is the last unit vector (``_certify`` passes e_1 instead).
    Returns (eta as a (k, m) array, max |eta^T H|, ``lambda_set`` of eta).
    """
    T, m = u.length, u.dim
    H = hankel(u, k) if k <= T else np.zeros((k * m, 0))
    K = kernel_basis(H.T, rtol)
    if K.shape[1] == 0:
        raise PersistentlyExcitingError(
            f"input is persistently exciting of order {k}; no counterexample exists"
        )
    if eta_override is None:
        eta_flat = K[:, -1].copy()  # contiguous: a strided column rounds eta @ H differently
    else:
        eta_flat = as_vector(eta_override, "eta")
        if eta_flat.size != k * m:
            raise ValidationError(f"eta must have {k * m} entries, got {eta_flat.size}")
        if float(np.linalg.norm(eta_flat)) == 0.0:
            raise ValidationError("eta must be nonzero")
        eta_flat = _project_to_kernel(eta_flat, K)
    eta_residual = float(np.abs(eta_flat @ H).max()) if H.shape[1] else 0.0
    eta = eta_flat.reshape(k, m)
    return eta, eta_residual, lambda_set(eta, rtol)


def _certify(u, n, L, rtol, tol_cert, eta_override, A_override, zeta_override):
    """Shared engine behind the L >= 1 and L = 0 constructions.

    With T < n+L the depth-(n+L) Hankel matrix has no columns and every
    eta is a kernel vector. The default there is e_1: it has no common
    roots, so the scan takes lambda0 = 0, and the recursion gives
    A = J(0), B = [e_n, 0, ..., 0] and x0 = 0.
    """
    k = n + L
    if eta_override is None and u.length < k:
        eta_override = np.eye(k * u.dim)[0]
    eta, eta_residual, lam = _kernel_vector(u, k, rtol, eta_override)
    if eta_override is None and eta_residual > tol_cert * float(np.linalg.norm(eta)):
        raise ConstructionError(
            f"kernel vector annihilates the input Hankel matrix only to {eta_residual:.3e}"
        )

    if zeta_override is not None:
        zeta = as_vector(zeta_override, "zeta")
        if zeta.size != n:
            raise ValidationError(f"zeta must have {n} entries, got {zeta.size}")
    else:
        zeta = np.zeros(n)
        zeta[-1] = 1.0

    if A_override is not None:
        A = as_matrix(A_override, "A")
        if A.shape != (n, n):
            raise ValidationError(f"A must be {n}x{n}, got {A.shape}")
        candidates = [("override", A)]
    else:
        # lazy: the scan usually stops at its first candidate
        scan = islice((z for z in _LAMBDA0_CANDIDATES if not lam.contains(z)), 32)
        candidates = ((lam0, _jordan_block(lam0, n)) for lam0 in scan)

    failures = []
    for tag, A in candidates:
        cert = _try_build(u, n, L, A, zeta, eta, lam, eta_residual, rtol, tol_cert)
        if not isinstance(cert, str):
            return cert
        failures.append(f"A[{tag}]: {cert}")
    raise ConstructionError(
        "numerical construction failed for all eigenvalue candidates: " + "; ".join(failures)
    )


def _try_build(u, n, L, A, zeta, eta, lam, eta_residual, rtol, tol_cert):
    """One construction attempt; a verified certificate or a failure reason string."""
    m, T = u.dim, u.length
    if lam.contains(np.linalg.eigvals(A)).any():
        return "spectrum intersects the forbidden root set"

    ctrl_zeta, _ = is_controllable(A, zeta.reshape(-1, 1), rtol)
    if not ctrl_zeta:
        return "(A, zeta) is not controllable"

    E_desc, B, x0, states = _recursion_and_state(A, zeta, eta, u.samples, n, m, L)

    cf = _closed_form_states(A, zeta, eta, E_desc, u.samples, n, m, L)
    scale_x = 1.0 + float(np.abs(states).max())
    closed_form_residual = float(np.abs(states - cf).max()) / scale_x
    if closed_form_residual > 1e-8:
        return f"closed-form trajectory residual {closed_form_residual:.3e}"

    try:
        xi = _solve_xi(A, zeta, n)
    except ConstructionError as exc:
        return str(exc)
    xi_orth = 0.0
    power = zeta.copy()
    for _ in range(n - 1):
        xi_orth = max(xi_orth, abs(float(xi @ power)))
        power = A @ power
    if xi_orth > 1e-6 * (1.0 + float(np.abs(xi).max())):
        return f"xi orthogonality residual {xi_orth:.3e}"

    # v stacks E_0..E_{L-1} applied to xi; (v, w) scaled to unit w.
    def E_at(i):
        return E_desc[n + L - 1 - i]

    v_raw = np.concatenate([E_at(i).T @ xi for i in range(L)]) if L else np.zeros(0)
    norm_xi = float(np.linalg.norm(xi))
    w = xi / norm_xi
    v = v_raw / norm_xi

    stacked = _stacked_matrix(u, states, L)
    residual = float(np.abs(np.concatenate([v, w]) @ stacked).max())
    budget = tol_cert * (1.0 + float(np.abs(states).max())) * (T - L + 1)
    if residual > budget:
        return f"annihilation residual {residual:.3e} exceeds {budget:.3e}"

    ctrl, _ = is_controllable(A, B, rtol)
    if not ctrl:
        return "(A, B) is not controllable"

    # anchor the tolerance to the experiment scale: a state block that is
    # rounding noise relative to u (possible when L = 0) counts as zero
    floor = rtol * max(stacked.shape) * (1.0 + float(np.abs(u.samples).max()))
    srep = rank_report(stacked, rtol, atol=floor)
    if srep.rank >= n + L * m:
        return f"stacked matrix rank {srep.rank} is not deficient"

    return CounterexampleCertificate(
        n=n, m=m, L=L, T=T,
        eta=eta, A=A, zeta=zeta, E=E_desc, B=B, x0=x0, xi=xi, v=v, w=w,
        residual_annihilation=residual,
        rank_deficit_confirmed=True,
        short_data_case=T < n + L - 1,
        states=states,
        stacked_rank=srep,
        residuals={
            "annihilation": residual,
            "eta_annihilation": eta_residual,
            "closed_form": closed_form_residual,
            "xi_orthogonality": xi_orth,
        },
        rtol=rtol, tol_cert=tol_cert,
    )


def construct_certificate(u: Signal, n, L, rtol=RTOL, tol_cert=TOL_CERT, eta=None,
                          A=None, zeta=None) -> CounterexampleCertificate:
    """Build and verify a counterexample for a non-exciting input.

    Requires that u is not persistently exciting of order n+L. By
    default A is a Jordan block J(lambda0), scanned over the candidates
    0, 1, -1, 2, -2, ... that are not common roots of eta, and zeta is
    the last basis vector; then the last row of B is eta(lambda0)^T, so
    (A, B) is controllable exactly when lambda0 is not a common root.
    ``eta``, ``A`` and ``zeta`` accept explicit overrides (a supplied
    eta is snapped onto the actual kernel). With T < n+L every eta is a
    kernel vector and the default is e_1, which gives A = J(0) and
    B = [e_n, 0, ..., 0]. Every certificate is verified before return:
    annihilation residual within the scaled budget, (A, B) controllable,
    spectrum free of common roots, stacked matrix rank-deficient.

    Raises:
        ValidationError: an override has the wrong size or eta is far
            from the kernel.
        PersistentlyExcitingError: the input is exciting of order n+L.
        ConstructionError: no eigenvalue candidate produced a verifiable
            certificate (diagnostics included).
    """
    u = as_signal(u)
    if n < 1:
        raise ValidationError("n must be positive")
    if L < 1 or L > u.length:
        raise ValidationError(f"L={L} out of range [1, {u.length}]")
    return _certify(u, n, L, rtol, tol_cert, eta, A, zeta)


def construct_certificate_l0(u: Signal, n, rtol=RTOL, tol_cert=TOL_CERT, eta=None,
                             A=None, zeta=None) -> CounterexampleCertificate:
    """Depth-0 variant: make the bare state Hankel matrix rank-deficient.

    ``u`` holds T+1 samples u(0)..u(T); the excitation condition is on
    the first T samples at order n, and the certificate's w annihilates
    the whole state row H_1(x(0)..x(T)). The final input sample does
    not influence those states and is ignored by the construction.
    """
    u = as_signal(u)
    if n < 1:
        raise ValidationError("n must be positive")
    if u.length < 2:
        raise ValidationError("need at least two samples (u(0)..u(T) with T >= 1)")
    prefix = u.window(0, u.length - 1)
    return _certify(prefix, n, 0, rtol, tol_cert, eta, A, zeta)


def extend_to_output(cert: CounterexampleCertificate, u: Signal, rtol=RTOL,
                     tol_cert=TOL_CERT, p=1) -> OutputCounterexample:
    """Lift a state-level certificate to an output-level counterexample.

    Builds the system (A, B, C, 0) whose first output row is w (rows
    2..p zero-padded), simulates the certified experiment, and exhibits
    a behavior element outside the data span: zero input from the
    initial state w/||w||^2 separates with value 1. The negative
    behavior-equality verdict is re-checked through the independent
    three-rank test.
    """
    if cert.L < 1:
        raise ValidationError("output-level extension needs L >= 1")
    if p < 1:
        raise ValidationError("p must be positive")
    u = as_signal(u)
    if u.dim != cert.m or u.length != cert.T:
        raise ValidationError("input signal does not match the certificate")

    n, m, L = cert.n, cert.m, cert.L
    C = np.zeros((p, n))
    C[0] = cert.w
    sys = StateSpaceSystem(cert.A, cert.B, C, np.zeros((p, m)))
    y = simulate(sys, cert.x0, u).y

    annihilator = np.zeros(L * m + L * p)
    annihilator[: L * m] = cert.v
    annihilator[L * m] = 1.0
    Huy = np.vstack([hankel(u, L), hankel(y, L)])
    residual = float(np.abs(annihilator @ Huy).max())
    budget = tol_cert * (1.0 + float(np.abs(cert.states).max())) * (cert.T - L + 1)
    if residual > budget:
        raise ConstructionError(
            f"output annihilation residual {residual:.3e} exceeds {budget:.3e}"
        )

    witness_x0 = cert.w / float(cert.w @ cert.w)
    witness_u = Signal(np.zeros((L, m)))
    witness_y = simulate(sys, witness_x0, witness_u).y
    separation = float(annihilator @ np.concatenate([stack(witness_u), stack(witness_y)]))
    if abs(separation) < 1.0 - tol_cert:
        raise ConstructionError(f"separation value {separation:.6f} is not 1")

    behavior_check = check_behavior_equality(sys, u, y, L, rtol)
    if behavior_check.behavior_equal:
        raise ConstructionError("behavior equality unexpectedly holds on certified data")

    return OutputCounterexample(
        sys=sys, y=y, annihilator=annihilator,
        witness_u=witness_u, witness_x0=witness_x0, witness_y=witness_y,
        separation_value=separation,
        residual_annihilation=residual,
        behavior_check=behavior_check,
    )


def single_input_family(u: Signal, n, L, A, B, rtol=RTOL,
                        tol_cert=TOL_CERT) -> CounterexampleCertificate:
    """Counterexample with a user-chosen pair (A, B), single-input case.

    For m = 1 almost any pair works: it suffices that spec(A) avoids
    the roots of the kernel polynomial, because then S = sum_i eta_i A^i
    is invertible and zeta = S^(-1) B reproduces B through the recursion.

    Raises:
        EigenvalueConflictError: an eigenvalue of A is a root of the
            kernel polynomial at tolerance rtol.
        NearSingularError: S is too ill-conditioned to invert.
    """
    u = as_signal(u)
    if u.dim != 1:
        raise ValidationError("single-input family requires m = 1")
    if n < 1:
        raise ValidationError("n must be positive")
    if L < 1 or L > u.length:
        raise ValidationError(f"L={L} out of range [1, {u.length}]")
    A = as_matrix(A, "A")
    if A.shape != (n, n):
        raise ValidationError(f"A must be {n}x{n}, got {A.shape}")
    b = as_vector(B, "B")
    if b.size != n:
        raise ValidationError(f"B must have {n} entries, got {b.size}")
    if float(np.linalg.norm(b)) == 0.0:
        raise ValidationError("B must be nonzero")

    k = n + L
    eta, eta_residual, lam = _kernel_vector(u, k, rtol)

    if lam.contains(np.linalg.eigvals(A)).any():
        raise EigenvalueConflictError(
            "spec(A) intersects the root set of the kernel vector; pick a different A"
        )

    S = np.zeros((n, n))
    power = np.eye(n)
    for i in range(k):
        S += float(eta[i, 0]) * power
        power = power @ A
    if np.linalg.cond(S) > 1e10:
        raise NearSingularError("sum_i eta_i A^i is near-singular; certificate would be unreliable")
    zeta = np.linalg.solve(S, b)

    cert = _try_build(u, n, L, A, zeta, eta, lam, eta_residual, rtol, tol_cert)
    if isinstance(cert, str):
        raise ConstructionError(f"single-input construction failed: {cert}")
    if float(np.abs(cert.B - b.reshape(n, 1)).max()) > 1e-8 * (1.0 + float(np.abs(b).max())):
        raise ConstructionError("recursion did not reproduce the supplied B")
    return cert


def sample_system_cloud(u: Signal, L, pairs, rtol=RTOL) -> CloudResult:
    """Dense family of scalar-state systems generating rank-deficient data.

    For n = 1 the annihilator condition is vacuous, so every admissible
    (a, zeta) sample gives a counterexample system: b = zeta * sum_i
    a^i eta_i and the matching initial state. Samples with zeta = 0 or
    with ``a`` a common root of eta's vector polynomial are skipped and
    counted, all in one array test. Each emitted point is re-verified by
    an independent rank check on its simulated data.

    The kept samples are handled in fixed blocks of points: one block
    runs the recursion and the state steps as array operations, with the
    same floating-point operations per point as one point at a time, and
    ``stacked_deficient`` decides its rank checks by projecting each
    state row onto the row space of H_L(u). Blocking bounds the memory
    of a large cloud. The result holds the points as columns.
    """
    u = as_signal(u)
    m, T, k = u.dim, u.length, 1 + L
    if L < 1 or L > u.length:
        raise ValidationError(f"L={L} out of range [1, {u.length}]")
    try:
        eta, _, lam = _kernel_vector(u, k, rtol)
    except PersistentlyExcitingError as exc:
        raise PersistentlyExcitingError(
            f"input is persistently exciting of order {k}; the family is empty"
        ) from exc

    pairs = np.asarray(pairs, dtype=float).reshape(-1, 2)
    kept = pairs[~((pairs[:, 1] == 0.0) | lam.contains(pairs[:, 0]))]
    Hu = hankel(u, L)
    b_all, x0_all = np.empty((len(kept), m)), np.zeros(len(kept))
    verified = np.empty(len(kept), dtype=bool)
    for start in range(0, len(kept), _CLOUD_BLOCK):
        a, zeta_s = kept[start:start + _CLOUD_BLOCK].T
        N = a.size
        # scalar-state recursion: E_i are (N, m) rows, E_L = 0
        rows = [np.zeros((N, m))]
        for i in range(k - 1, -1, -1):
            rows.append(a[:, None] * rows[-1] + zeta_s[:, None] * eta[i])
        b = b_all[start:start + N] = rows[-1]  # E_{-1}
        # np.vecdot gives each C-contiguous row the bits of the 1-D ``row @ u[t]``;
        # a matrix-vector ``E @ u[t]`` and einsum round differently for m >= 2
        x0 = x0_all[start:start + N]
        for i in range(k - 1):
            x0 -= np.vecdot(rows[k - 1 - i], u.samples[i])  # rows[k-1-i] = E_i
        x = np.empty((N, T - L + 1))
        x[:, 0] = x0
        for t in range(T - L):
            x[:, t + 1] = a * x[:, t] + np.vecdot(b, u.samples[t])
        verified[start:start + N] = stacked_deficient(Hu, x, rtol)
    b_all = as_matrix(b_all, "b")  # refuses a non-finite b, which x(0) alone hides at T = L
    return CloudResult(a=kept[:, 0].copy(), b=b_all, x0=x0_all, verified=verified,
                       n_skipped=len(pairs) - len(kept))

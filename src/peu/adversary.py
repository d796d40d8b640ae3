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

Every certificate passes through one check, ``verify(cert, u)``: the
construction builds, then verifies, and a certificate rebuilt from its
JSON verifies the same way.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from .defaults import COND_MAX, REPLAY_RTOL, RTOL, TOL_CERT, XI_RTOL
from .errors import (
    ConstructionError,
    EigenvalueConflictError,
    NearSingularError,
    PersistentlyExcitingError,
    ValidationError,
)
from .flemma import LemmaCheck, check_behavior_equality
from .lti import StateSpaceSystem, Trajectory, is_controllable, observability_matrix, simulate
from .numkit import (
    RankReport,
    _right_svd,
    _stack_test,
    as_matrix,
    as_vector,
    lambda_set,
    rank_report,
)
from .signals import Signal, _check_depth, as_signal, hankel, is_pe

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
    "verify",
]


# the keys of certificate.json that CounterexampleCertificate.to_dict writes as they are
_PLAIN_KEYS = ("n", "m", "L", "T", "short_data_case", "residual_annihilation",
              "rank_deficit_confirmed", "rtol", "tol_cert")


@dataclass(frozen=True)
class CounterexampleCertificate:
    """Full output of one counterexample construction, with its evidence.

    A certificate is its arrays. ``__post_init__`` reads n = len(A),
    (n+L, m) = eta.shape and T = len(states) + L - 1 off them, refuses
    (ValidationError) any array whose shape disagrees, and sets eight
    attributes that are not fields: ``n``, ``m``, ``L``, ``T``, ``x0`` =
    states[0], ``short_data_case`` (T < n+L-1, where the state Hankel
    matrix cannot have full row rank), and the evidence flags
    ``residual_annihilation`` (from ``residuals``) and
    ``rank_deficit_confirmed`` (from ``stacked_rank``). ``E`` holds the
    recursion matrices in descending index order E_{n+L-1}, ...,
    E_{-1}; B is stored only there, and the property ``B`` reads
    ``E[-1]``. The common roots that spec(A) avoids follow from eta:
    ``numkit.lambda_set(cert.eta, cert.rtol)``. (v, w) is stored scaled
    to unit w; xi keeps the raw Krylov solve.

    ``verify`` reads the data fields only (eta through tol_cert). The
    evidence fields hold what it measured when the construction verified
    the certificate; they default to None, as in a certificate rebuilt
    from its JSON. ``trajectory`` is the construction's simulation of
    (A, B, I, 0) from x0 over the whole input; it is not serialized.
    """

    eta: np.ndarray                # (n+L, m), rows eta_0..eta_{n+L-1}
    A: np.ndarray                  # (n, n)
    zeta: np.ndarray               # (n,)
    E: tuple                       # (E_{n+L-1}, ..., E_{-1}), each (n, m)
    xi: np.ndarray                 # (n,)
    v: np.ndarray                  # (L*m,)
    w: np.ndarray                  # (n,), unit norm
    states: np.ndarray             # (T-L+1, n): x(0)..x(T-L) actually certified
    rtol: float
    tol_cert: float
    # evidence, from ``verify``
    stacked_rank: RankReport = None
    residuals: dict = None
    trajectory: Trajectory = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        dims = [np.shape(self.A), np.shape(self.eta), np.shape(self.states)]
        if any(len(d) != 2 for d in dims):
            raise ValidationError(f"certificate A, eta and states must be 2-D, got {dims}")
        (n, _), (k, m), (rows, _) = dims
        L = k - n
        if min(n, m, rows) < 1 or L < 0:
            raise ValidationError(f"certificate needs n, m >= 1, L >= 0 and a state; got n={n}, "
                                  f"m={m}, L={L} and {rows} states")
        shapes = {"A": (n, n), "zeta": (n,), "xi": (n,), "v": (L * m,), "w": (n,),
                  "states": (rows, n)}
        for name, shape in shapes.items():
            if np.shape(getattr(self, name)) != shape:
                raise ValidationError(f"certificate {name} must have shape {shape}, "
                                      f"got {np.shape(getattr(self, name))}")
        if len(self.E) != k + 1 or any(np.shape(Ei) != (n, m) for Ei in self.E):
            raise ValidationError(f"certificate E must be {k + 1} matrices of shape {(n, m)}")
        srep, residuals = self.stacked_rank, self.residuals
        for name, value in {
            "n": n, "m": m, "L": L, "T": rows + L - 1, "x0": self.states[0],
            "short_data_case": rows < n,  # T < n+L-1
            "residual_annihilation": None if residuals is None else residuals.get("annihilation"),
            "rank_deficit_confirmed": srep is not None and srep.rank < n + L * m,
        }.items():
            object.__setattr__(self, name, value)

    @property
    def B(self) -> np.ndarray:
        """The input matrix, E_{-1}."""
        return self.E[-1]

    def scale(self, u: Signal) -> float:
        """The data's scale max(max|u|, max|x|), which every data bound is relative to.

        Anchored to the experiment itself, so a certificate on tiny data is
        judged as strictly as one on unit data. max|u| counts because the
        states can be rounding noise relative to u (possible when L = 0).
        """
        return max(float(np.abs(u.samples).max()), float(np.abs(self.states).max()))

    def annihilation_budget(self, u: Signal) -> float:
        """Largest |(v, w)^T column| accepted on input ``u``: tol_cert scale per column."""
        return self.tol_cert * self.scale(u) * (self.T - self.L + 1)

    def state_pair(self) -> StateSpaceSystem:
        """The certified pair as a state-output system (A, B, I, 0)."""
        return StateSpaceSystem.from_state_pair(self.A, self.B)

    def to_dict(self):
        """The 21 keys of ``certificate.json``: the fields, B and the derived attributes."""
        arrays = ("eta", "A", "zeta", "B", "x0", "xi", "v", "w", "states")
        return {**{key: getattr(self, key) for key in _PLAIN_KEYS},
                **{key: getattr(self, key).tolist() for key in arrays},
                "E": [Ei.tolist() for Ei in self.E], "stacked_rank": self.stacked_rank.to_dict(),
                "residuals": dict(self.residuals)}


@dataclass(frozen=True)
class OutputCounterexample:
    """Single-output system on which the certified data misses the behavior.

    ``annihilator`` kills every column of the stacked input-output
    Hankel matrix, while the witness window (zero input from the initial
    state ``witness_x0``, aligned with w) produces ``separation_value`` =
    y_w(0) = 1 against it, so the data span is a proper subspace of the
    behavior.
    """

    sys: StateSpaceSystem
    y: Signal
    annihilator: np.ndarray
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


# sample_system_cloud's blocks: _CLOUD_CELLS states bound a block's memory, but a block
# holds at least _CLOUD_POINTS points, since it takes T - L interpreted time steps
_CLOUD_CELLS, _CLOUD_POINTS = 1 << 16, 256


def _jordan_block(lam, n):
    J = np.eye(n) * lam
    if n > 1:
        J += np.diag(np.ones(n - 1), 1)
    return J


# Deterministic eigenvalue scan 0, 1/2, -1/2, 1/4, -1/4, 3/4, ..., -15/16: finite,
# and stable, so that J(lambda0)^t cannot swamp the closed-form replay.
_LAMBDA0_CANDIDATES = (0.0, *(s * k / d for d in (2, 4, 8, 16) for k in range(1, d, 2)
                              for s in (1, -1)))


def _krylov(A, zeta, count):
    """zeta, A zeta, ..., A^(count-1) zeta, each a contiguous 1-D array."""
    powers = [zeta]
    for _ in range(count - 1):
        powers.append(A @ powers[-1])
    return powers


def _solve_xi(powers):
    """xi with xi^T A^i zeta = 0 for i < n-1 and xi^T A^(n-1) zeta = 1, from ``_krylov``."""
    n = len(powers)
    e_n = np.zeros(n)
    e_n[-1] = 1.0
    try:
        return np.linalg.solve(np.column_stack(powers).T, e_n)
    except np.linalg.LinAlgError as exc:
        raise ConstructionError(f"(A, zeta) is not controllable: its Krylov matrix is "
                                f"singular ({exc})") from exc


def _recursion(A, zeta, eta):
    """Backward recursion E_{k-1} = 0, E_{i-1} = A E_i + zeta eta_i^T for a (k, m) eta.

    Returns (E_{k-1}, E_{k-2}, ..., E_{-1}), descending, so the last is B.
    """
    E = [np.zeros((len(zeta), eta.shape[1]))]
    for eta_i in eta[::-1]:
        E.append(A @ E[-1] + np.outer(zeta, eta_i))
    return tuple(E)


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
        out[s + 1:] += (np.column_stack(_krylov(A, zeta, r)) @ C).T
    return out


def _override(value, shapes, name):
    """A supplied array of one of ``shapes``, flattened; any other shape is refused.

    A dimension given as None takes any length (written N in the message).
    """
    a = np.asarray(value, dtype=float)
    if not any(len(s) == a.ndim and all(d in (None, e) for d, e in zip(s, a.shape))
               for s in shapes):
        text = " or ".join(str(s).replace("None", "N") for s in shapes)
        raise ValidationError(f"{name} must have shape {text}, got {a.shape}")
    return as_vector(a, name)


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
    """Left-kernel vector eta of H_k(u) and its common roots.

    ``signals.is_pe`` alone decides whether a kernel exists, and u
    exciting of order k is refused. Otherwise its rank r leaves the last
    km - r right singular vectors of H_k(u)^T as the kernel basis K; eta
    is K's last column, the best-annihilating unit vector, or
    ``eta_override`` ((k, m) or flat) snapped onto the span of K. With
    T < k, H has no columns, r = 0, K is the identity and the default is
    the last unit vector (``_certify`` passes e_1 instead).
    Returns (eta as a (k, m) array, ``lambda_set`` of eta).
    """
    T, m = u.length, u.dim
    H, r = np.zeros((k * m, 0)), 0
    if k <= T:
        H = hankel(u, k)
        exciting, rep = is_pe(u, k, rtol)
        if exciting:
            raise PersistentlyExcitingError(f"input is persistently exciting of order {k}; "
                                            "no counterexample exists")
        r = rep.rank
    K = _right_svd(H.T)[1][r:].T.copy()
    if eta_override is None:
        eta_flat = K[:, -1].copy()  # contiguous: a strided eta rounds verify's eta^T H differently
    else:
        eta_flat = _override(eta_override, ((k, m), (k * m,)), "eta")
        if float(np.linalg.norm(eta_flat)) == 0.0:
            raise ValidationError("eta must be nonzero")
        eta_flat = _project_to_kernel(eta_flat, K)
    eta = eta_flat.reshape(k, m)
    return eta, lambda_set(eta, rtol)


def _certify(u, n, L, rtol, tol_cert, eta_override, A_override, zeta_override):
    """Shared engine behind the L >= 1 and L = 0 constructions.

    With T < n+L the depth-(n+L) Hankel matrix has no columns and every
    eta is a kernel vector. The default there is e_1: it has no common
    roots, so the scan takes lambda0 = 0, and the recursion gives
    A = J(0), B = [e_n, 0, ..., 0] and x0 = 0.

    eta is not judged here: ``verify`` refuses a candidate built on an
    eta that misses the kernel (the closed-form replay departs from the
    simulated states, or the annihilation exceeds its budget), at every
    input scale. So the one ConstructionError raised here is the summary
    of every candidate's failure.
    """
    k = n + L
    if eta_override is None and u.length < k:
        eta_override = np.eye(k * u.dim)[0]
    eta, lam = _kernel_vector(u, k, rtol, eta_override)

    if zeta_override is not None:
        zeta = _override(zeta_override, ((n,),), "zeta")
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
        candidates = ((lam0, _jordan_block(lam0, n))
                      for lam0 in _LAMBDA0_CANDIDATES if not lam.contains(lam0))

    failures = []
    for tag, A in candidates:
        try:
            return _try_build(u, n, L, A, zeta, eta, rtol, tol_cert)
        except ConstructionError as exc:
            failures.append(f"A[{tag}]: {exc}")
    raise ConstructionError(
        "numerical construction failed for all eigenvalue candidates: " + "; ".join(failures)
    )


def _try_build(u, n, L, A, zeta, eta, rtol, tol_cert):
    """One construction attempt: build the certificate, then ``verify`` it.

    The one simulation of the pair gives both the certified states and
    the certificate's ``trajectory``. States that overflow (an unstable
    A) fail the attempt. Raises ConstructionError naming the failure.
    """
    T, k = u.length, n + L
    with np.errstate(over="ignore", invalid="ignore"):
        E_desc = _recursion(A, zeta, eta)
        x0 = np.zeros(n)
        for i in range(min(k - 1, T)):  # u is zero past T
            x0 -= E_desc[k - 1 - i] @ u.samples[i]  # E_desc[k-1-i] is E_i
        try:
            traj = simulate(StateSpaceSystem.from_state_pair(A, E_desc[-1]), x0, u)
        except ValidationError as exc:
            raise ConstructionError(f"the pair does not simulate to finite states ({exc})") from exc

    xi = _solve_xi(_krylov(A, zeta, n))
    # v stacks E_0..E_{L-1} applied to xi; (v, w) scaled to unit w.
    v_raw = np.concatenate([E_desc[k - 1 - i].T @ xi for i in range(L)]) if L else np.zeros(0)
    norm_xi = float(np.linalg.norm(xi))
    cert = CounterexampleCertificate(
        eta=eta, A=A, zeta=zeta, E=E_desc, xi=xi, v=v_raw / norm_xi, w=xi / norm_xi,
        states=traj.x.samples[:T - L + 1], rtol=rtol, tol_cert=tol_cert, trajectory=traj)
    residuals, srep = verify(cert, u)
    return replace(cert, stacked_rank=srep, residuals=residuals)


def _bounded(name, value, bound):
    """``value``, or ConstructionError naming the residual when it exceeds ``bound``."""
    if not value <= bound:  # a NaN fails too
        raise ConstructionError(f"{name} residual {value:.3e} exceeds {bound:.3e}")
    return value


def verify(cert: CounterexampleCertificate, u: Signal):
    """Check a certificate against its input; the measured residuals and stacked rank.

    Reads only the data fields of ``cert``, so a certificate rebuilt from
    ``certificate.json`` verifies as the constructed one did. ``u`` is
    the input the states were certified on (for the depth-0 variant, its
    first T samples). Each bound is relative (``defaults``): data
    residuals to ``cert.scale(u)`` = max(max|u|, max|x|), model residuals
    to their own matrices. The certificate's constructor has already
    checked the arrays' shapes and read n, m, L, T and x0 = states[0]
    off them. With k = n+L, each stored fact is judged once: E_{k-1} by
    being zero, B by the state recursion, the states (x0 among them),
    E_0..E_{k-2}, eta, zeta and A by the closed form, xi by its
    orthogonality, (v, w) by the unit w and the annihilation. The
    checks, in order:

    - (A, zeta) is controllable (PBH);
    - E_{n+L-1} is zero;
    - ``closed_form``: the closed-form replay of the trajectory formulas
      meets the states to REPLAY_RTOL scale;
    - ``xi_orthogonality``: xi is orthogonal to zeta, A zeta, ...,
      A^(n-2) zeta to XI_RTOL max|xi| max|A^i zeta|;
    - w has unit norm, to REPLAY_RTOL;
    - ``annihilation``: (v, w) kills every column of [H_L(u); H_1(x)]
      within ``cert.annihilation_budget(u)`` = tol_cert scale (T-L+1);
    - (A, B) is controllable (PBH; A is cyclic, so this also decides
      that spec(A) avoids eta's common roots);
    - the state recursion: the states step by x(t+1) = A x(t) + B u(t),
      to REPLAY_RTOL scale;
    - that stacked matrix has rank below n + Lm, at a floor of rtol
      max(shape) scale: a state block that is rounding noise relative to
      u (possible when L = 0) counts as zero.

    ``eta_annihilation``, max |eta^T H_{n+L}(u)| (0.0 when T < n+L), is
    measured, not bounded: an eta off the kernel already fails the
    closed-form replay or the annihilation.

    Returns ({"annihilation", "closed_form", "xi_orthogonality",
    "eta_annihilation"}, the stacked matrix's RankReport); each residual
    is the raw value its bound judges.

    Raises:
        ValidationError: u does not have the certificate's T and m (a
            certificate whose arrays disagree in shape is refused as it
            is built).
        ConstructionError: the first check that fails, with its value
            and bound.
    """
    u = as_signal(u)
    n, m, L, T, rtol = cert.n, cert.m, cert.L, cert.T, cert.rtol
    if (u.length, u.dim) != (T, m):
        raise ValidationError(f"input is {u.length}x{u.dim}, the certificate's is {T}x{m}")
    A, zeta, xi, states = cert.A, cert.zeta, cert.xi, cert.states
    scale = cert.scale(u)

    def controllable(B, name):
        ok, rep = is_controllable(A, B, rtol)
        if not ok:
            raise ConstructionError(f"{name} is not controllable: PBH rank {rep.rank} "
                                    f"< {rep.shape[0]}")

    controllable(zeta.reshape(-1, 1), "(A, zeta)")
    _bounded("E_{n+L-1}", float(np.abs(cert.E[0]).max()), 0.0)
    cf = _closed_form_states(A, zeta, cert.eta, cert.E, u.samples, n, m, L)
    closed_form = _bounded("closed-form trajectory", float(np.abs(states - cf).max()),
                           REPLAY_RTOL * scale)
    powers = _krylov(A, zeta, n)[:-1]
    krylov_scale = max((float(np.abs(power).max()) for power in powers), default=0.0)
    xi_orth = _bounded("xi orthogonality",
                       max((abs(float(xi @ power)) for power in powers), default=0.0),
                       XI_RTOL * float(np.abs(xi).max()) * krylov_scale)
    _bounded("unit w", abs(float(np.linalg.norm(cert.w)) - 1.0), REPLAY_RTOL)
    x_rows = states.T.copy()  # C order: an F-ordered stack rounds the residual product differently
    stacked = np.vstack([hankel(u, L), x_rows]) if L else x_rows
    residual = _bounded("annihilation",
                        float(np.abs(np.concatenate([cert.v, cert.w]) @ stacked).max()),
                        cert.annihilation_budget(u))
    controllable(cert.B, "(A, B)")
    Bu = np.matmul(cert.B, u.samples[:T - L, :, None])[:, :, 0]  # as ``lti.simulate`` stacks it
    drift = states[1:] - states[:-1] @ A.T - Bu
    _bounded("state recursion", float(np.abs(drift).max(initial=0.0)), REPLAY_RTOL * scale)
    srep = rank_report(stacked, rtol, atol=rtol * max(stacked.shape) * scale)
    if srep.rank >= n + L * m:
        raise ConstructionError(f"stacked matrix rank {srep.rank} is not below n + Lm "
                                f"= {n + L * m}")
    eta_annihilation = (float(np.abs(cert.eta.reshape(-1) @ hankel(u, n + L)).max())
                        if T >= n + L else 0.0)
    return {"annihilation": residual, "closed_form": closed_form,
            "xi_orthogonality": xi_orth, "eta_annihilation": eta_annihilation}, srep


def construct_certificate(u: Signal, n, L, rtol=RTOL, tol_cert=TOL_CERT, eta=None,
                          A=None, zeta=None) -> CounterexampleCertificate:
    """Build and verify a counterexample for a non-exciting input.

    Requires that u is not persistently exciting of order n+L, as
    ``signals.is_pe`` decides it (the report ``peu pe --order n+L``
    gives). By default A is a Jordan block J(lambda0), scanned over the
    candidates 0, 1/2, -1/2, 1/4, ..., -15/16 that are not common roots
    of eta, and zeta is the last basis vector; then the last row of B is
    eta(lambda0)^T, so (A, B) is controllable exactly when lambda0 is
    not a common root. ``eta``, ``A`` and ``zeta`` accept overrides (a
    supplied eta, (n+L, m) or flat, is snapped onto the actual kernel;
    a supplied zeta has shape (n,)). With T < n+L every eta is a kernel
    vector and the default is e_1, which gives A = J(0) and
    B = [e_n, 0, ..., 0]. Every certificate passes ``verify`` before
    return; a candidate that fails it, or whose states overflow, is
    skipped.

    Raises:
        ValidationError: an override has the wrong shape or eta is far
            from the kernel.
        PersistentlyExcitingError: the input is exciting of order n+L.
        ConstructionError: no eigenvalue candidate produced a verifiable
            certificate (diagnostics included).
    """
    u = as_signal(u)
    if n < 1:
        raise ValidationError("n must be positive")
    _check_depth(u, L)
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


def extend_to_output(cert: CounterexampleCertificate, u: Signal) -> OutputCounterexample:
    """Lift a state-level certificate to an output-level counterexample.

    Everything but the input comes from the certificate, ``cert.rtol``
    included. Builds the single-output system (A, B, w^T, 0), simulates
    the certified experiment from x0 = states[0], and exhibits a
    behavior element outside the data span: zero input from the initial
    state w/||w||^2, whose output y_w(t) = w^T A^t x_w comes from the
    observability matrix, separates with value y_w(0) = 1, since the
    annihilator's input block meets a zero input. The separation is
    reported, not bounded: it is 1 to rounding for every unit w. w must
    have unit norm, as ``verify`` requires (so w = 0 is refused before
    anything is simulated), and the output data are held to the
    certificate's own ``annihilation_budget(u)``. The negative behavior-equality verdict
    is re-checked independently: the data rank falls short of the
    behavior dimension. ``cert.trajectory`` is not read, so a
    certificate rebuilt from its JSON extends as well.

    Raises:
        ValidationError: L = 0, or u does not match the certificate.
        ConstructionError: the first check that fails, with its value
            and bound.
    """
    if cert.L < 1:
        raise ValidationError("output-level extension needs L >= 1")
    u = as_signal(u)
    if u.dim != cert.m or u.length != cert.T:
        raise ValidationError("input signal does not match the certificate")

    n, m, L = cert.n, cert.m, cert.L
    _bounded("unit w", abs(float(np.linalg.norm(cert.w)) - 1.0), REPLAY_RTOL)
    sys = StateSpaceSystem(cert.A, cert.B, cert.w.reshape(1, n), np.zeros((1, m)))
    y = simulate(sys, cert.x0, u).y

    annihilator = np.zeros(L * m + L)
    annihilator[: L * m] = cert.v
    annihilator[L * m] = 1.0
    Huy = np.vstack([hankel(u, L), hankel(y, L)])
    residual = _bounded("output annihilation", float(np.abs(annihilator @ Huy).max()),
                        cert.annihilation_budget(u))

    witness_x0 = cert.w / float(cert.w @ cert.w)
    witness_y = Signal(observability_matrix(sys.C, sys.A, L) @ witness_x0)

    behavior_check = check_behavior_equality(sys, u, y, L, cert.rtol)
    if behavior_check.behavior_equal:
        raise ConstructionError("behavior equality unexpectedly holds on certified data")

    return OutputCounterexample(
        sys=sys, y=y, annihilator=annihilator,
        witness_x0=witness_x0, witness_y=witness_y,
        separation_value=float(witness_y.samples[0, 0]),
        residual_annihilation=residual,
        behavior_check=behavior_check,
    )


def single_input_family(u: Signal, n, L, A, B, rtol=RTOL,
                        tol_cert=TOL_CERT) -> CounterexampleCertificate:
    """Counterexample with a user-chosen pair (A, B), single-input case.

    For m = 1 almost any pair works: it suffices that spec(A) avoids
    the roots of the kernel polynomial, because then S = sum_i eta_i A^i
    is invertible and zeta = S^(-1) B reproduces B through the recursion.
    B has shape (n,) or (n, 1); any other shape is refused.

    Raises:
        EigenvalueConflictError: an eigenvalue of A is a root of the
            kernel polynomial at tolerance rtol.
        NearSingularError: S is too ill-conditioned to invert.
        ConstructionError: the certificate fails ``verify``, or its B
            misses the supplied B by more than REPLAY_RTOL max|B|.
    """
    u = as_signal(u)
    if u.dim != 1:
        raise ValidationError("single-input family requires m = 1")
    if n < 1:
        raise ValidationError("n must be positive")
    _check_depth(u, L)
    A = as_matrix(A, "A")
    if A.shape != (n, n):
        raise ValidationError(f"A must be {n}x{n}, got {A.shape}")
    b = _override(B, ((n,), (n, 1)), "B")
    if float(np.linalg.norm(b)) == 0.0:
        raise ValidationError("B must be nonzero")

    k = n + L
    eta, lam = _kernel_vector(u, k, rtol)

    if lam.contains(np.linalg.eigvals(A)).any():
        raise EigenvalueConflictError(
            "spec(A) intersects the root set of the kernel vector; pick a different A"
        )

    S = np.zeros((n, n))
    power = np.eye(n)
    for i in range(k):
        S += float(eta[i, 0]) * power
        power = power @ A
    if np.linalg.cond(S) > COND_MAX:
        raise NearSingularError("sum_i eta_i A^i is near-singular; certificate would be unreliable")
    zeta = np.linalg.solve(S, b)

    cert = _try_build(u, n, L, A, zeta, eta, rtol, tol_cert)
    _bounded("B reproduction", float(np.abs(cert.B - b.reshape(n, 1)).max()),
             REPLAY_RTOL * float(np.abs(b).max()))
    return cert


def sample_system_cloud(u: Signal, L, pairs, rtol=RTOL) -> CloudResult:
    """Dense family of scalar-state systems generating rank-deficient data.

    ``pairs`` holds one (a, zeta) sample per row, shape (N, 2), or is
    empty; any other shape is refused. For n = 1 the annihilator
    condition is vacuous, so every admissible (a, zeta) sample gives a
    counterexample system: b = zeta * sum_i a^i eta_i and the matching
    initial state. Samples with zeta = 0 or
    with ``a`` a common root of eta's vector polynomial are skipped and
    counted, all in one array test. Each emitted point is re-verified by
    an independent rank check on its simulated data.

    The kept samples are handled in blocks of about ``_CLOUD_CELLS``
    states, and of ``_CLOUD_POINTS`` points at least: one block runs the
    recursion and the state steps as array operations, with the same
    floating-point operations per point as one point at a time, one time
    step for all its points at once. The row space of H_L(u) is factored
    once per cloud, and each block's rank checks project its states onto
    it, as ``stacked_deficient`` does. Blocking bounds the memory of a
    large cloud. The result holds the points as columns.
    """
    u = as_signal(u)
    m, T, k = u.dim, u.length, 1 + L
    _check_depth(u, L)
    try:
        eta, lam = _kernel_vector(u, k, rtol)
    except PersistentlyExcitingError as exc:
        raise PersistentlyExcitingError(
            f"input is persistently exciting of order {k}; the family is empty"
        ) from exc

    pairs = _override(pairs, ((None, 2), (0,)), "pairs").reshape(-1, 2)
    kept = pairs[~((pairs[:, 1] == 0.0) | lam.contains(pairs[:, 0]))]
    deficient = _stack_test(hankel(u, L), rtol)
    b_all, x0_all = np.empty((len(kept), m)), np.zeros(len(kept))
    verified = np.empty(len(kept), dtype=bool)
    step = max(_CLOUD_POINTS, _CLOUD_CELLS // (T - L + 1))
    for start in range(0, len(kept), step):
        a, zeta_s = kept[start:start + step].T
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
        x = np.empty((T - L + 1, N))  # time-major: x[t] holds x(t) of every point
        x[0] = x0
        np.vecdot(b, u.samples[:T - L, None], out=x[1:])  # b u(t) for every t and point
        for t in range(T - L):
            x[t + 1] += a * x[t]
        verified[start:start + N] = deficient(as_matrix(x))
    b_all = as_matrix(b_all, "b")  # refuses a non-finite b, which x(0) alone hides at T = L
    return CloudResult(a=kept[:, 0].copy(), b=b_all, x0=x0_all, verified=verified,
                       n_skipped=len(pairs) - len(kept))

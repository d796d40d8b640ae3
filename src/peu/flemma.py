"""Numerical checks of the fundamental lemma and the universality verdict.

Two conclusions are checked for a finite input-output experiment on a
controllable system: the stacked input/state Hankel matrix has full row
rank, and the span of the stacked input/output Hankel matrix equals the
whole L-restricted behavior. An input is universal when the equality
holds for every controllable system, which is equivalent to persistency
of excitation of order n+L; a negative verdict ships a constructive
counterexample certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .defaults import RTOL, TOL_CERT
from .errors import NotATrajectoryError, ValidationError
from .lti import StateSpaceSystem, behavior_basis, markov_toeplitz, observability_matrix, simulate
from .numkit import RankReport, rank_report
from .signals import PEReport, Signal, as_signal, hankel, pe_order, stack

__all__ = [
    "LemmaCheck",
    "UniversalityVerdict",
    "check_rank_condition",
    "check_behavior_equality",
    "check_state_rank",
    "universality_verdict",
]


@dataclass(frozen=True)
class LemmaCheck:
    """Joint report on the rank condition and behavior equality.

    ``behavior_equal`` holds iff rank[Huy] = rank[Huy | basis] =
    behavior_dim, all at one shared tolerance.
    """

    L: int
    rank_condition: RankReport
    behavior_equal: bool
    data_span_dim: int
    behavior_dim: int

    def to_dict(self):
        return {
            "L": self.L,
            "rank_condition": self.rank_condition.to_dict(),
            "behavior_equal": self.behavior_equal,
            "data_span_dim": self.data_span_dim,
            "behavior_dim": self.behavior_dim,
        }


@dataclass(frozen=True)
class UniversalityVerdict:
    """Outcome of the universality test for one input signal.

    ``pe_report`` lists the excitation orders 1..n+L only (fewer when
    the signal is too short); its ``max_order`` is capped at n+L. Use
    ``signals.pe_order`` without ``up_to`` for the full listing.
    """

    universal: bool
    pe_order_needed: int
    pe_report: PEReport
    counterexample: Optional[object]  # CounterexampleCertificate when not universal


def check_rank_condition(u: Signal, x: Signal, L, n, rtol=RTOL) -> RankReport:
    """Rank report on the stacked [H_L(u); H_1(x)] matrix.

    ``x`` must hold the states x(0)..x(T-L) of a trajectory driven by u;
    full row rank means rank = n + L*m.
    """
    u = as_signal(u)
    x = as_signal(x)
    if L < 1 or L > u.length:
        raise ValidationError(f"L={L} out of range [1, {u.length}]")
    if x.dim != n:
        raise ValidationError(f"state dim {x.dim} does not match n={n}")
    if x.length != u.length - L + 1:
        raise ValidationError(
            f"state length {x.length} must equal T-L+1 = {u.length - L + 1}"
        )
    M = np.vstack([hankel(u, L), hankel(x, 1)])
    return rank_report(M, rtol)


def _reconstruct_state(sys: StateSpaceSystem, u: Signal, y: Signal):
    """Least-squares initial state consistent with (u, y); raises when none fits."""
    T = u.length
    O = observability_matrix(sys.C, sys.A, T)
    forced = markov_toeplitz(sys, T) @ stack(u)
    rhs = stack(y) - forced
    x0, *_ = np.linalg.lstsq(O, rhs, rcond=None)
    residual = float(np.linalg.norm(O @ x0 - rhs))
    scale = 1.0 + float(np.linalg.norm(stack(y))) + float(np.linalg.norm(forced))
    if residual > 1e-6 * scale:
        raise NotATrajectoryError(
            f"(u, y) is not a trajectory of the system: output residual {residual:.3e} "
            f"exceeds {1e-6 * scale:.3e}"
        )
    return x0


def check_behavior_equality(sys: StateSpaceSystem, u: Signal, y: Signal, L,
                            rtol=RTOL) -> LemmaCheck:
    """Does the experiment's data span the entire L-restricted behavior?

    The (u, y) pair is first validated as a trajectory of ``sys`` by
    reconstructing a compatible initial state (garbage input raises
    rather than mis-scoring); the reconstructed state then fills the
    rank-condition half of the report. Equality is decided by the
    three-rank test at one tolerance; the containment of the data span
    in the behavior holds for trajectories by construction.
    """
    u = as_signal(u)
    y = as_signal(y)
    if u.dim != sys.m or y.dim != sys.p:
        raise ValidationError("data dimensions do not match the system")
    if u.length != y.length:
        raise ValidationError("input and output must have the same length")
    if L < 1 or L > u.length:
        raise ValidationError(f"L={L} out of range [1, {u.length}]")

    x0 = _reconstruct_state(sys, u, y)
    x = simulate(sys, x0, u).x
    rank_cond = check_rank_condition(u, Signal(x.samples[: u.length - L + 1]), L, sys.n, rtol)

    bb = behavior_basis(sys, L, rtol)
    Huy = np.vstack([hankel(u, L), hankel(y, L)])
    data_rank = rank_report(Huy, rtol).rank
    joint_rank = rank_report(np.hstack([Huy, bb.basis]), rtol).rank
    return LemmaCheck(
        L=L,
        rank_condition=rank_cond,
        behavior_equal=(data_rank == joint_rank == bb.dim),
        data_span_dim=data_rank,
        behavior_dim=bb.dim,
    )


def check_state_rank(u: Signal, x: Signal, n, rtol=RTOL) -> RankReport:
    """Row-rank report on the bare state Hankel matrix H_1(x(0)..x(T))."""
    u = as_signal(u)
    x = as_signal(x)
    if x.dim != n:
        raise ValidationError(f"state dim {x.dim} does not match n={n}")
    if x.length != u.length + 1:
        raise ValidationError(f"state length {x.length} must be T+1 = {u.length + 1}")
    return rank_report(hankel(x, 1), rtol)


def universality_verdict(u: Signal, n, L, rtol=RTOL, tol_cert=TOL_CERT) -> UniversalityVerdict:
    """Decide universality of an input for the L-restricted behavior.

    Universal iff persistently exciting of order n+L, so only orders
    1..n+L are factored (see ``UniversalityVerdict``). A negative verdict
    always carries a verified counterexample certificate: a controllable
    pair and an initial state whose data is rank-deficient.
    """
    u = as_signal(u)
    if L < 1 or L > u.length:
        raise ValidationError(f"L={L} out of range [1, {u.length}]")
    if n < 1:
        raise ValidationError("n must be positive")
    report = pe_order(u, rtol, up_to=n + L)
    if report.max_order >= n + L:
        return UniversalityVerdict(
            universal=True, pe_order_needed=n + L, pe_report=report, counterexample=None
        )
    from .adversary import construct_certificate  # deferred: adversary imports this module

    cert = construct_certificate(u, n, L, rtol=rtol, tol_cert=tol_cert)
    return UniversalityVerdict(
        universal=False, pe_order_needed=n + L, pe_report=report, counterexample=cert
    )

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

from .defaults import RTOL, TOL_CERT, TRAJECTORY_RTOL
from .errors import NotATrajectoryError, ValidationError
from .lti import StateSpaceSystem, observability_matrix, simulate
from .numkit import RankReport, rank_report
from .signals import PEReport, Signal, _check_depth, as_signal, hankel, pe_order

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

    ``behavior_equal`` holds iff rank[Huy] = behavior_dim: the data of
    a trajectory span a subspace of the behavior.
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
    _check_depth(u, L)
    if x.dim != n:
        raise ValidationError(f"state dim {x.dim} does not match n={n}")
    if x.length != u.length - L + 1:
        raise ValidationError(
            f"state length {x.length} must equal T-L+1 = {u.length - L + 1}"
        )
    M = np.vstack([hankel(u, L), hankel(x, 1)])
    return rank_report(M, rtol)


def _reconstruct_state(sys: StateSpaceSystem, u: Signal, y: Signal) -> np.ndarray:
    """States x(0..T) of the trajectory (u, y); raises when (u, y) is none.

    The forced response (outputs and states from x0 = 0) is one
    ``simulate``. The least-squares x0 fits the free output
    y - y_forced = O_T x0, and the states are the forced states plus the
    free states A^t x0. O_T and the free states come from the doubling
    in ``observability_matrix``, so time and memory are O(T).
    """
    T = u.length
    forced = simulate(sys, np.zeros(sys.n), u)
    O = observability_matrix(sys.C, sys.A, T)
    rhs = (y.samples - forced.y.samples).reshape(-1)
    x0, *_ = np.linalg.lstsq(O, rhs, rcond=None)
    residual = float(np.linalg.norm(O @ x0 - rhs))
    bound = TRAJECTORY_RTOL * (float(np.linalg.norm(y.samples))
                               + float(np.linalg.norm(forced.y.samples)))
    if residual > bound:
        raise NotATrajectoryError(
            f"(u, y) is not a trajectory of the system: output residual {residual:.3e} "
            f"exceeds {bound:.3e}"
        )
    return forced.x.samples + observability_matrix(x0, sys.A.T, T + 1)


def check_behavior_equality(sys: StateSpaceSystem, u: Signal, y: Signal, L,
                            rtol=RTOL) -> LemmaCheck:
    """Does the experiment's data span the entire L-restricted behavior?

    The (u, y) pair is first validated as a trajectory of ``sys`` by
    reconstructing its states (garbage input raises rather than
    mis-scoring); they then fill the rank-condition half of the report.
    The reconstruction is one forced recursion and a least-squares x0
    against the doubled O_T, so time and memory are O(T): no
    (Tp)x(Tm) Toeplitz and no T x T array are built. The data span
    lies in the behavior, so equality is rank H_L(u, y) = Lm + rank O_L
    (Markovsky and Doerfler, IEEE TAC 2023), the dimension
    ``lti.behavior_basis`` reports; no basis is built.
    """
    u = as_signal(u)
    y = as_signal(y)
    if u.dim != sys.m or y.dim != sys.p:
        raise ValidationError("data dimensions do not match the system")
    if u.length != y.length:
        raise ValidationError("input and output must have the same length")
    _check_depth(u, L)

    x = _reconstruct_state(sys, u, y)
    rank_cond = check_rank_condition(u, Signal(x[: u.length - L + 1]), L, sys.n, rtol)

    behavior_dim = L * sys.m + rank_report(observability_matrix(sys.C, sys.A, L), rtol).rank
    data_rank = rank_report(np.vstack([hankel(u, L), hankel(y, L)]), rtol).rank
    return LemmaCheck(
        L=L,
        rank_condition=rank_cond,
        behavior_equal=(data_rank == behavior_dim),
        data_span_dim=data_rank,
        behavior_dim=behavior_dim,
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
    _check_depth(u, L)
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

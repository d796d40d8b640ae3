"""Constructing a counterexample for an input that is not exciting enough.

An input that is not persistently exciting of order n+L cannot be
universal: some controllable system, started from the right initial
state, produces input-state data whose stacked Hankel matrix is
rank-deficient. The construction is fully explicit, and this script
prints every intermediate object for the packaged reference input.
"""

import numpy as np

from peu import (Signal, construct_certificate, is_controllable, lambda_set,
                 universality_verdict)
from peu.cli import _fixture_path, read_signal_csv
from peu.signals import hankel

u = read_signal_csv(_fixture_path("ex2_input.csv"))
n, L = 3, 1

verdict = universality_verdict(u, n, L)
print(f"universal for the {L}-window behavior of {n}-state systems? "
      f"{verdict.universal} (needs excitation order {verdict.pe_order_needed}, "
      f"has {verdict.pe_report.max_order})")

cert = verdict.counterexample
print(f"\nkernel vector eta (rows eta_0..eta_{n + L - 1}):\n{np.round(cert.eta, 4)}")
lam0 = cert.A[0, 0]
print(f"forbidden root set: eigenvalue {lam0} has margin "
      f"||eta(z)|| / (||eta|| ||(1, z, ..., z^{n + L - 1})||) = "
      f"{lambda_set(cert.eta, cert.rtol).margin(lam0):.4f} > rtol = {cert.rtol:g}")
print(f"\nchosen dynamics A (eigenvalue scan avoids the roots):\n{cert.A}")
print(f"cyclic direction zeta: {cert.zeta}")

names = [f"E_{i}" for i in range(n + L - 1, -2, -1)]
for name, Ei in zip(names, cert.E):
    print(f"{name} =\n{np.round(Ei, 4)}")
print(f"\ninput matrix B = E_-1, initial state x(0) = {np.round(cert.x0, 4)}")

ok, _ = is_controllable(cert.A, cert.B)
print(f"(A, B) controllable: {ok}")

stacked = np.vstack([hankel(u, L), hankel(Signal(cert.states), 1)])
print(f"\nstacked input/state matrix: {stacked.shape[0]}x{stacked.shape[1]}, "
      f"rank {cert.stacked_rank.rank} (deficient: {cert.rank_deficit_confirmed})")
print(f"annihilator (v, w), residual {cert.residual_annihilation:.2e}:")
print(f"  v = {np.round(cert.v, 4)}")
print(f"  w = {np.round(cert.w, 4)}")
print(f"verification residuals: { {k: float(f'{v:.2e}') for k, v in cert.residuals.items()} }")

# overriding the kernel vector and the dynamics reproduces any published
# instance of the construction
cert2 = construct_certificate(u, n, L, A=cert.A, zeta=cert.zeta, eta=cert.eta)
print(f"\nre-running with explicit overrides reproduces B: "
      f"{bool(np.allclose(cert.B, cert2.B))}")

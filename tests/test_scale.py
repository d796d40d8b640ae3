"""Certificates at every input scale: built, verified, extended and judged alike."""

import dataclasses
import json

import numpy as np
import pytest

from peu import (
    ConstructionError,
    Signal,
    construct_certificate,
    extend_to_output,
    single_input_family,
    verify,
)
from peu.adversary import _LAMBDA0_CANDIDATES, _jordan_block, _kernel_vector, _try_build
from peu.cli import EXIT_FALSE, EXIT_OK, RunConfig, main, read_signal_csv, write_signal_csv
from peu.defaults import RTOL, TOL_CERT
from peu.signals import hankel

from conftest import certificate_from_json, non_exciting_input

SCALES = (1e-12, 1e-8, 1.0, 1e8, 1e12)


@pytest.mark.parametrize("alpha", SCALES)
@pytest.mark.parametrize("n,m,L,T", [(3, 2, 2, 20), (6, 1, 3, 14), (4, 3, 1, 22)])
def test_non_exciting_input_is_certified_at_every_scale(tmp_path, alpha, n, m, L, T):
    u, _ = non_exciting_input(np.random.default_rng(n + m + L), n, m, L, T)
    sig = tmp_path / "u.csv"
    write_signal_csv(str(sig), Signal(alpha * u.samples), RunConfig())
    options = ["--n", str(n), "--L", str(L)]

    verdict = tmp_path / "universal.json"
    assert main(["universal", str(sig), *options, "--out", str(verdict)]) == EXIT_FALSE
    assert json.loads(verdict.read_text())["certificate"]["rank_deficit_confirmed"] is True

    bundle = tmp_path / "bundle"
    assert main(["counterexample", str(sig), *options, "--out", str(bundle)]) == EXIT_OK
    cert, u_read = certificate_from_json(bundle / "certificate.json"), read_signal_csv(str(sig))
    verify(cert, u_read)
    assert extend_to_output(cert, u_read).separation_value == pytest.approx(1.0)


def _generic(alpha):
    u, _ = non_exciting_input(np.random.default_rng(11), 3, 2, 2, 24)
    u = Signal(alpha * u.samples)
    return construct_certificate(u, 3, 2), u


@pytest.mark.parametrize("alpha", [1.0, 1e-6, 1e-9])
@pytest.mark.parametrize("tamper", ["negated_v", "negated_w", "zeroed_v"])
def test_tampered_annihilator_is_refused_at_small_scale(alpha, tamper):
    cert, u = _generic(alpha)
    changed = {"negated_v": {"v": -cert.v}, "negated_w": {"w": -cert.w},
               "zeroed_v": {"v": np.zeros_like(cert.v)}}[tamper]
    with pytest.raises(ConstructionError, match="^annihilation residual .* exceeds"):
        verify(dataclasses.replace(cert, **changed), u)


def _bent_build(alpha, n, m, L, T, offset):
    """``_try_build`` on eta moved by ``offset`` along the direction H_{n+L}(u) amplifies most."""
    u, _ = non_exciting_input(np.random.default_rng(7), n, m, L, T)
    u = Signal(alpha * u.samples)
    k = n + L
    eta, lam = _kernel_vector(u, k, RTOL)
    lam0 = next(c for c in _LAMBDA0_CANDIDATES if not lam.contains(c))
    A, zeta = _jordan_block(lam0, n), np.eye(n)[-1]
    _try_build(u, n, L, A, zeta, eta, RTOL, TOL_CERT)  # the kernel vector itself builds
    top = np.linalg.svd(hankel(u, k))[0][:, 0]
    bent = (eta.reshape(-1) + offset * top).reshape(k, m)
    return _try_build(u, n, L, A, zeta, bent, RTOL, TOL_CERT)


@pytest.mark.parametrize("alpha", [1e-8, 1.0, 1e8])
@pytest.mark.parametrize("n,m,L,T", [(3, 1, 2, 11), (4, 2, 1, 16), (3, 2, 2, 20), (2, 3, 0, 9)])
def test_eta_off_the_kernel_fails_the_build(alpha, n, m, L, T):
    """A candidate built on an eta that misses the kernel never verifies.

    An offset of 1e-4 leaves eta^T H far above the annihilation budget
    at every scale (and the closed-form replay refuses it from scale 1 up).
    """
    with pytest.raises(ConstructionError):
        _bent_build(alpha, n, m, L, T, 1e-4)


def test_small_eta_offset_fails_the_build_at_small_scale():
    """An offset of 1e-6 fails the closed-form replay at scale 1 and at scale 1e-8 alike."""
    for alpha in (1.0, 1e-8):
        with pytest.raises(ConstructionError, match="^closed-form"):
            _bent_build(alpha, 3, 2, 2, 20, 1e-6)


@pytest.mark.parametrize("alpha", [1.0, 1e-3, 1e-6])
def test_bent_recursion_is_refused_at_small_scale(alpha):
    """E_1 scaled by 1 + 1e-6 moves the states by 1e-6 of the data's scale, at every scale."""
    cert, u = _generic(alpha)
    bent = list(cert.E)
    bent[cert.n + cert.L - 2] = cert.E[cert.n + cert.L - 2] * (1.0 + 1e-6)  # E_1
    with pytest.raises(ConstructionError, match="^closed-form trajectory residual"):
        verify(dataclasses.replace(cert, E=tuple(bent)), u)


@pytest.mark.parametrize("alpha", SCALES)
def test_single_input_family_reproduces_B_at_every_scale(alpha):
    """Rescaling u leaves eta, zeta and B as they are, so B is judged on its own scale."""
    u, _ = non_exciting_input(np.random.default_rng(4), 3, 1, 1, 9)
    b = np.array([1.0, -2.0, 0.5])
    cert = single_input_family(Signal(alpha * u.samples), 3, 1, np.diag([0.5, -0.25, 0.125]), b)
    np.testing.assert_allclose(cert.B.ravel(), b, rtol=1e-8)

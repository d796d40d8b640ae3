"""``peu.verify``: one check for every certificate, built or rebuilt from its JSON."""

import dataclasses
import json

import numpy as np
import pytest

import peu.adversary
import peu.cli
import peu.flemma
from peu import (
    ConstructionError,
    CounterexampleCertificate,
    Signal,
    ValidationError,
    construct_certificate,
    extend_to_output,
    verify,
)
from peu.adversary import _closed_form_states
from peu.cli import EXIT_CONSTRUCTION, EXIT_OK, RunConfig, main, read_signal_csv, write_signal_csv

from conftest import FIXTURES, certificate_from_json, non_exciting_input

EX1_INPUT = str(FIXTURES / "ex1_input.csv")
EX2_INPUT = str(FIXTURES / "ex2_input.csv")


def _bundle(tmp_path, name, signal, *options):
    """Run ``peu counterexample`` into ``tmp_path/name``; its rebuilt certificate."""
    out = tmp_path / name
    assert main(["counterexample", str(signal), *options, "--out", str(out)]) == EXIT_OK
    return certificate_from_json(out / "certificate.json"), out


def _signal_file(tmp_path, name, samples):
    path = tmp_path / name
    write_signal_csv(str(path), Signal(samples), RunConfig())
    return path


class TestBundlesVerify:
    def test_ex2_with_overrides(self, tmp_path, ex2_values):
        options = ["--n", "3", "--L", "1"]
        for key in ("eta", "A", "zeta"):
            path = tmp_path / f"{key}.json"
            path.write_text(json.dumps(ex2_values[key].tolist()))
            options += [f"--override-{key}", str(path)]
        cert, out = _bundle(tmp_path, "ex2", EX2_INPUT, *options)
        residuals, srep = verify(cert, read_signal_csv(EX2_INPUT))
        stored = json.loads((out / "certificate.json").read_text())
        # the rebuilt certificate measures exactly what the construction stored
        assert residuals == {key: stored["residuals"][key] for key in residuals}
        assert srep.to_dict() == stored["stacked_rank"]
        assert srep.rank == 4

    def test_depth_zero(self, tmp_path):
        samples = np.ones(5)
        cert, _ = _bundle(tmp_path, "l0", _signal_file(tmp_path, "ones.csv", samples),
                          "--n", "2", "--L", "0")
        assert cert.L == 0
        _, srep = verify(cert, Signal(samples))  # the file the bundle was built from
        assert srep.rank < cert.n

    def test_short_data(self, tmp_path):
        cert, _ = _bundle(tmp_path, "short", _signal_file(tmp_path, "s.csv", [1.0, 2.0]),
                          "--n", "3", "--L", "1")
        assert cert.short_data_case
        verify(cert, Signal(np.array([1.0, 2.0])))

    def test_built_certificate_reports_its_evidence(self):
        u, _ = non_exciting_input(np.random.default_rng(3), 3, 2, 2, 20)
        cert = construct_certificate(u, 3, 2)
        residuals, srep = verify(cert, u)
        assert residuals == {key: cert.residuals[key] for key in residuals}
        assert residuals["annihilation"] == cert.residual_annihilation
        assert srep == cert.stacked_rank
        assert cert.trajectory.x.samples[:cert.T - cert.L + 1].tolist() == cert.states.tolist()


def _generic():
    u, _ = non_exciting_input(np.random.default_rng(11), 3, 2, 2, 24)
    return construct_certificate(u, 3, 2), u


def _shifted_first_state(cert):
    """``cert`` with x(0) = states[0], and so x0, moved by 1 in every entry."""
    states = cert.states.copy()
    states[0] += 1.0
    return dataclasses.replace(cert, states=states)


class TestTamperedCertificates:
    def test_negated_v_fails_annihilation(self):
        cert, u = _generic()
        assert np.abs(cert.v).max() > 0.1
        with pytest.raises(ConstructionError, match="^annihilation residual .* exceeds"):
            verify(dataclasses.replace(cert, v=-cert.v), u)

    def test_zeroed_B_fails_controllability(self):
        cert, u = _generic()
        with pytest.raises(ConstructionError, match=r"^\(A, B\) is not controllable"):
            verify(dataclasses.replace(cert, E=(*cert.E[:-1], np.zeros_like(cert.B))), u)

    def test_scaled_states_fail_closed_form(self):
        cert, u = _generic()
        with pytest.raises(ConstructionError, match="^closed-form trajectory residual"):
            verify(dataclasses.replace(cert, states=cert.states * (1.0 + 1e-6)), u)

    @pytest.mark.parametrize("n,m,L,T", [(3, 1, 2, 11), (4, 2, 1, 16), (2, 3, 0, 9)])
    def test_bent_recursion_fails_closed_form(self, n, m, L, T):
        u, _ = non_exciting_input(np.random.default_rng(5), n, m, L, T)
        cert = construct_certificate(u, n, L)
        verify(cert, u)
        k = n + L
        for i in range(k - 1):
            bent = list(cert.E)
            bent[k - 1 - i] = cert.E[k - 1 - i] * (1.0 + 1e-6)  # E_i
            with pytest.raises(ConstructionError, match="^closed-form trajectory residual"):
                verify(dataclasses.replace(cert, E=tuple(bent)), u)

    def test_doubled_B_fails_the_recursion(self):
        cert, u = _generic()
        doubled = dataclasses.replace(cert, E=(*cert.E[:-1], 2.0 * cert.E[-1]))
        with pytest.raises(ConstructionError, match="^state recursion residual"):
            verify(doubled, u)

    def test_B_is_read_from_E(self):
        cert, u = _generic()
        scaled = dataclasses.replace(cert, E=(*cert.E[:-1], 5.0 * cert.E[-1]))
        assert scaled.B is scaled.E[-1]
        assert scaled.to_dict()["B"] == scaled.to_dict()["E"][-1]
        with pytest.raises(ConstructionError, match="^state recursion residual"):
            verify(scaled, u)

    def test_shifted_first_state_fails_closed_form(self):
        cert, u = _generic()
        with pytest.raises(ConstructionError, match="^closed-form trajectory residual 1.000e"):
            verify(_shifted_first_state(cert), u)

    def test_nonzero_top_E_is_refused(self):
        """E_{n+L-1} is zero by construction; no other check reads it."""
        cert, u = _generic()
        with pytest.raises(ConstructionError, match=r"^E_\{n\+L-1\} residual 7\.000e\+00 exceeds"):
            verify(dataclasses.replace(cert, E=(cert.E[0] + 7.0, *cert.E[1:])), u)

    def test_moved_E_L_with_replayed_states_fails_the_state_recursion(self):
        """E_L moved by a Delta with w^T Delta = 0, the states replayed from it.

        The closed form, the annihilation and (A, B) all still hold; only
        the states no longer follow x(t+1) = A x(t) + B u(t).
        """
        cert, u = _generic()
        n, m, L = cert.n, cert.m, cert.L
        delta = np.random.default_rng(0).standard_normal((n, m))
        delta -= np.outer(cert.w, cert.w @ delta)  # w has unit norm
        moved = list(cert.E)
        moved[n - 1] = cert.E[n - 1] + delta  # E_L
        states = _closed_form_states(cert.A, cert.zeta, cert.eta, moved, u.samples, n, m, L)
        tampered = dataclasses.replace(cert, E=tuple(moved), states=states)
        with pytest.raises(ConstructionError, match="^state recursion residual"):
            verify(tampered, u)

    @pytest.mark.parametrize("factor", [0.0, 1e-12])
    def test_annihilator_without_unit_w_is_refused(self, factor):
        cert, u = _generic()
        shrunk = dataclasses.replace(cert, v=factor * cert.v, w=factor * cert.w)
        with pytest.raises(ConstructionError, match="^unit w residual"):
            verify(shrunk, u)

    def test_mismatched_input_is_refused(self):
        cert, u = _generic()
        for other in (u.window(0, u.length - 1), Signal(np.ones((u.length, 1)))):
            with pytest.raises(ValidationError, match="the certificate.s is"):
                verify(cert, other)


class TestTamperedCertificatesDoNotExtend:
    def test_shifted_x0_fails_output_annihilation(self):
        cert, u = _generic()
        with pytest.raises(ConstructionError,
                           match=r"^output annihilation residual 1\.000e\+00 exceeds"):
            extend_to_output(_shifted_first_state(cert), u)

    @pytest.mark.parametrize("zeroed", [("w",), ("v", "w")], ids=["w", "v_and_w"])
    def test_zero_w_is_refused(self, zeroed):
        cert, u = _generic()
        changed = {name: np.zeros_like(getattr(cert, name)) for name in zeroed}
        with pytest.raises(ConstructionError, match="^unit w residual"):
            extend_to_output(dataclasses.replace(cert, **changed), u)


_MALFORMED = {
    "eta one row short": lambda c: {"eta": c.eta[:-1]},
    "E one matrix short": lambda c: {"E": c.E[1:]},
    "B one row short": lambda c: {"E": (*c.E[:-1], c.B[:-1])},
    "states one row short": lambda c: {"states": c.states[:-1]},
    "v one entry short": lambda c: {"v": c.v[:-1]},
    "xi one entry short": lambda c: {"xi": c.xi[:-1]},
    "w as a column": lambda c: {"w": c.w[:, None]},
    "zeta one longer": lambda c: {"zeta": np.append(c.zeta, 0.0)},
    "A padded": lambda c: {"A": np.pad(c.A, ((0, 1), (0, 1)))},
}


class TestCertificateIsItsArrays:
    """n, m, L, T, x0 and the three flags are read off the arrays, whose shapes must agree."""

    def test_fields_are_the_arrays_and_evidence(self):
        assert [f.name for f in dataclasses.fields(CounterexampleCertificate)] == [
            "eta", "A", "zeta", "E", "xi", "v", "w", "states", "rtol", "tol_cert",
            "stacked_rank", "residuals", "trajectory"]

    def test_derived_attributes_and_json_keys(self, tmp_path):
        built, u = _generic()
        assert sorted(built.to_dict()) == sorted([
            "n", "m", "L", "T", "short_data_case", "eta", "A", "zeta", "E", "B", "x0", "xi",
            "v", "w", "residual_annihilation", "rank_deficit_confirmed", "states",
            "stacked_rank", "residuals", "rtol", "tol_cert"])
        assert (built.n, built.m, built.L, built.T) == (3, 2, 2, 24)
        assert built.x0.tolist() == built.states[0].tolist()
        assert not built.short_data_case and built.rank_deficit_confirmed
        assert built.residual_annihilation == built.residuals["annihilation"]
        rebuilt, _ = _bundle(tmp_path, "ex2", EX2_INPUT, "--n", "3", "--L", "1")
        stored = json.loads((tmp_path / "ex2" / "certificate.json").read_text())
        for key in ("n", "m", "L", "T", "short_data_case", "x0"):
            value = getattr(rebuilt, key)
            assert (value.tolist() if key == "x0" else value) == stored[key], key
        # the rebuilt certificate carries no evidence
        assert rebuilt.residual_annihilation is None and not rebuilt.rank_deficit_confirmed

    @pytest.mark.parametrize("change", list(_MALFORMED.values()), ids=list(_MALFORMED))
    def test_malformed_certificate_is_an_input_error(self, change):
        cert, u = _generic()
        with pytest.raises(ValidationError):
            verify(dataclasses.replace(cert, **change(cert)), u)


class TestOneSimulationPerCandidate:
    """``peu counterexample`` simulates each candidate it tries once, bundle included."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"tries": 0, "simulate": 0}
        try_build, simulate = peu.adversary._try_build, peu.adversary.simulate

        def counted_try(*args, **kwargs):
            counts["tries"] += 1
            return try_build(*args, **kwargs)

        def counted_simulate(*args, **kwargs):
            counts["simulate"] += 1
            return simulate(*args, **kwargs)

        monkeypatch.setattr(peu.adversary, "_try_build", counted_try)
        monkeypatch.setattr(peu.adversary, "simulate", counted_simulate)
        monkeypatch.setattr(peu.cli, "simulate", counted_simulate)
        monkeypatch.setattr(peu.flemma, "simulate", counted_simulate)
        return counts

    def test_one_candidate(self, tmp_path, counts):
        assert main(["counterexample", EX1_INPUT, "--n", "2", "--L", "1",
                     "--out", str(tmp_path / "o")]) == EXIT_OK
        assert counts == {"tries": 1, "simulate": 1}

    def test_extended_to_output(self, tmp_path, counts):
        """The bundle's simulation, then the output data's and the behavior check's own."""
        out = tmp_path / "o"
        assert main(["counterexample", EX1_INPUT, "--n", "2", "--L", "1",
                     "--out", str(out)]) == EXIT_OK
        extend_to_output(certificate_from_json(out / "certificate.json"),
                         read_signal_csv(EX1_INPUT))
        assert counts == {"tries": 1, "simulate": 3}

    def test_depth_zero(self, tmp_path, counts):
        sig = _signal_file(tmp_path, "ones.csv", np.ones(5))
        assert main(["counterexample", str(sig), "--n", "2", "--L", "0",
                     "--out", str(tmp_path / "o")]) == EXIT_OK
        assert counts == {"tries": 1, "simulate": 1}

    def test_every_candidate_fails(self, tmp_path, counts):
        # every kernel vector of an impulse vanishes at 0: at n = 30 no candidate passes
        impulse = np.zeros(80)
        impulse[0] = 1.0
        sig = _signal_file(tmp_path, "impulse.csv", impulse)
        assert main(["counterexample", str(sig), "--n", "30", "--L", "2",
                     "--out", str(tmp_path / "o")]) == EXIT_CONSTRUCTION
        assert counts["tries"] > 1
        assert counts["simulate"] == counts["tries"]
        assert not (tmp_path / "o").exists()

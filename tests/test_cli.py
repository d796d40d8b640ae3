import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from peu import (
    CloudResult,
    ConstructionError,
    PersistentlyExcitingError,
    Signal,
    construct_certificate,
    construct_certificate_l0,
    hankel,
    is_controllable,
    is_pe,
    pe_order,
    simulate,
    universality_verdict,
)
from peu import cli
from peu.cli import (
    EXIT_CONSTRUCTION,
    EXIT_FALSE,
    EXIT_INPUT,
    EXIT_OK,
    RunConfig,
    _reused,
    _Row,
    _row_texts,
    _Rows,
    main,
    read_signal_csv,
    read_system_json,
    read_trajectory_csv,
    write_signal_csv,
    write_cloud_csv,
    write_json,
    write_trajectory_csv,
)

from conftest import FIXTURES
from oracles import cloud_csv_loop, signal_csv_loop, trajectory_csv_loop


EX1_SYSTEM = str(FIXTURES / "ex1_system.json")
EX1_INPUT = str(FIXTURES / "ex1_input.csv")
EX2_INPUT = str(FIXTURES / "ex2_input.csv")
EX3_INPUT = str(FIXTURES / "ex3_input.csv")


def write_zero_signal(path, T=6, m=1):
    cfg = RunConfig()
    write_signal_csv(str(path), Signal(np.zeros((T, m))), cfg)


def stdout_text(write, *args):
    """What ``write(*args)`` writes to stdout, given ``"-"`` as its path."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        write("-", *args)
    return buf.getvalue()


def json_text(obj):
    """What ``write_json`` writes to stdout for ``obj``."""
    return stdout_text(write_json, obj)


_NUMBERS = st.one_of(
    st.floats(),  # NaN and +-inf included
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e-5, 2.0**53 + 2]),
    st.integers(),
    st.integers(2**53 + 1, 2**80),
)
_FLAGS = st.sampled_from([True, False, 1, 0, 1.0, 0.0, None])
_TEXT = st.one_of(st.text(), st.sampled_from(['"quoted"', "back\\slash", "\x00\x1f\n\t\x7f",
                                              "caf\u00e9 \u2713 \U0001f600 \u0394t", "1],[2,3"]))
_ROW = st.lists(_NUMBERS, max_size=6) | st.lists(_NUMBERS, max_size=6).map(tuple)
_ARRAYS = st.one_of(
    _ROW,
    st.lists(_ROW, max_size=5),  # ragged rows, empty rows, lists of empty lists
    st.lists(st.lists(_ROW, max_size=3), max_size=3),  # 3-deep
    # True/False next to 1/0, None, and strings holding commas and brackets
    st.lists(st.one_of(_NUMBERS, _FLAGS, _TEXT), max_size=6),
    st.lists(st.lists(st.one_of(_NUMBERS, _FLAGS, _TEXT), max_size=4), max_size=4),
)
# finite floats: -0.0, the smallest subnormal, subnormals such as `peu cloud
# --ranges=-1,1,1e-320,1e-320` emits, exponent switch points and integers above 2**53
_CELLS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 1e-320, -1e-320, 1e16, 1e22, 1e-5, 2.0**53 + 2, -(2.0**64), 1.0, 0.1])
TABLES = st.integers(1, 4).flatmap(
    lambda cols: st.lists(st.lists(_CELLS, min_size=cols, max_size=cols), min_size=1, max_size=6))
JSON_VALUES = st.recursive(
    st.one_of(_NUMBERS, _FLAGS, _TEXT, _ARRAYS),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=12,
)


def _cloud(table, verified):
    """A cloud whose b is ``table`` (m = its width), a its first and x0 its last column."""
    return CloudResult(a=table[:, 0].copy(), b=table, x0=table[:, -1].copy(),
                       verified=verified, n_skipped=2)


class TestFormats:
    def test_signal_round_trip(self, tmp_path):
        cfg = RunConfig(seed=9)
        v = Signal(np.random.default_rng(1).standard_normal((7, 3)))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_signal_csv(str(p1), v, cfg)
        v2 = read_signal_csv(str(p1))
        np.testing.assert_array_equal(v.samples, v2.samples)
        write_signal_csv(str(p2), v2, cfg)
        assert p1.read_bytes() == p2.read_bytes()

    def test_trajectory_round_trip(self, tmp_path):
        cfg = RunConfig()
        rng = np.random.default_rng(2)
        u = Signal(rng.standard_normal((5, 2)))
        x = Signal(rng.standard_normal((6, 3)))
        y = Signal(rng.standard_normal((5, 1)))
        p = tmp_path / "traj.csv"
        write_trajectory_csv(str(p), u, x, y, cfg)
        data = read_trajectory_csv(str(p))
        np.testing.assert_array_equal(data["u"].samples, u.samples)
        np.testing.assert_array_equal(data["x"].samples, x.samples)
        np.testing.assert_array_equal(data["y"].samples, y.samples)

    def test_system_json(self, tmp_path):
        sys_ = read_system_json(EX1_SYSTEM)
        assert (sys_.n, sys_.m, sys_.p) == (2, 1, 1)
        bad = tmp_path / "bad.json"
        bad.write_text('{"A": [[0]], "B": [[1]], "C": [[1]]}')
        with pytest.raises(Exception):
            read_system_json(str(bad))

    @pytest.mark.parametrize("text, message", [
        ('[[0.5]]', "expected a JSON object, got list"),
        ('{"A": [[0.5, 1], [2]], "B": [[1]], "C": [[1]], "D": [[0]]}',
         "matrices must be rectangular arrays of numbers"),
        ('{"A": [["x"]], "B": [[1]], "C": [[1]], "D": [[0]]}',
         "matrices must be rectangular arrays of numbers"),
    ], ids=["top-level-list", "ragged-rows", "non-numeric-entry"])
    def test_malformed_system_json_is_input_error(self, tmp_path, capsys, text, message):
        bad = tmp_path / "sys.json"
        bad.write_text(text)
        assert main(["simulate", str(bad), EX1_INPUT]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"error: {bad}: {message}")

    def test_directory_as_signal_is_input_error(self, tmp_path, capsys):
        assert main(["pe", str(tmp_path)]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: ")

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(obj=JSON_VALUES)
    def test_write_json_is_indented_dumps(self, obj):
        assert json_text(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(rows=TABLES)
    @example(rows=[[-0.0, 5e-324, 1e-320]])  # one row
    @example(rows=[[1e16], [1e22], [1e-5], [2.0**53 + 2]])  # one column
    @example(rows=[[0.5, -0.0, 1e-320], [1e22, 5e-324, -(2.0**64)], [1.0, 2.0, 3.0]])  # m = 3
    def test_csv_rows_are_repr_cells(self, rows):
        table = np.array(rows)
        assert _row_texts(table.tolist()) == [",".join(map(repr, row)) for row in rows]
        cfg = RunConfig(seed=3)
        v = Signal(table)
        assert stdout_text(write_signal_csv, v, cfg) == signal_csv_loop(v, cfg)
        if len(rows) > 1:
            u, x, y = Signal(table[:-1]), Signal(table[:, ::-1]), Signal(table[1:, :1])
            assert (stdout_text(write_trajectory_csv, u, x, y, cfg)
                    == trajectory_csv_loop(u, x, y, cfg))
        cloud = _cloud(table, np.arange(len(rows)) % 3 > 0)
        assert stdout_text(write_cloud_csv, cloud, cfg) == cloud_csv_loop(cloud, cfg)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(rows=TABLES, flags=st.lists(st.booleans(), min_size=6, max_size=6))
    @example(rows=[[-0.0, 5e-324, 1e-320, -1e-320], [1e16, 1e22, 2.0**53 + 2, 0.1]],
             flags=[True, False] * 3)  # m = 4
    @example(rows=[[5e-324], [-1e-320], [1e22]], flags=[False, True, True] * 2)  # m = 1
    def test_cloud_rows_are_the_encoder_rows(self, rows, flags):
        # the route before the template: one json encoding of the column-stacked table
        table = np.array(rows)
        cloud = _cloud(table, np.array(flags[:len(rows)]))
        old = _row_texts(np.column_stack([cloud.a, cloud.b, cloud.x0]).tolist())
        lines = stdout_text(write_cloud_csv, cloud, RunConfig()).splitlines()
        assert lines[1] == ",".join(["a"] + [f"b{j + 1}" for j in range(table.shape[1])]
                                    + ["x0", "verified"])
        assert lines[2:] == [row + (",1" if ok else ",0") for row, ok in zip(old, flags)]

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(rows=TABLES)
    @example(rows=[[-0.0, 5e-324], [1e16, 1e22], [0.0, -0.0]])
    def test_reused_rows_are_fresh_rows(self, rows):
        source = np.array(rows)
        texts = _row_texts(source.tolist())
        flipped = np.where(np.arange(len(rows))[:, None] % 2, source, -source)
        # source + 0.0 turns each -0.0 into 0.0, as y = I x + 0 u may
        for target in (source, source + 0.0, source[:len(rows) // 2 + 1], flipped,
                       source[::-1], source[:, :1]):
            reused = _reused(texts, source, target)
            assert reused == _row_texts(target.tolist())
            assert (json_text({"m": _Rows(reused), "v": _Row(reused[0])})
                    == json_text({"m": target.tolist(), "v": target[0].tolist()}))

    def test_trajectory_formats_one_table_when_y_is_fresh(self, monkeypatch):
        # p != n: y cannot borrow x's text, so u, x(0..T-1) and y are one table, x(T) a row
        rng = np.random.default_rng(5)
        u, x, y = (Signal(rng.standard_normal(shape)) for shape in ((4, 2), (5, 3), (4, 1)))
        expected = trajectory_csv_loop(u, x, y, RunConfig())
        tables = []

        def counted(rows):
            tables.append(len(rows))
            return _row_texts(rows)

        monkeypatch.setattr(cli, "_row_texts", counted)
        assert stdout_text(write_trajectory_csv, u, x, y, RunConfig()) == expected
        assert tables == [4, 1]

    def test_y_zero_of_other_sign_than_x(self):
        cfg = RunConfig()
        u = Signal(np.array([[1.0], [2.0]]))
        x = Signal(np.array([[-0.0, 0.5], [1e22, -0.0], [5e-324, 1e16]]))
        y = Signal(x.samples[:2] + 0.0)  # equal to x but for the sign of its zeros
        text = stdout_text(write_trajectory_csv, u, x, y, cfg)
        assert text == trajectory_csv_loop(u, x, y, cfg)
        assert text.splitlines()[2:4] == ["0,1.0,-0.0,0.5,0.0,0.5", "1,2.0,1e+22,-0.0,1e+22,0.0"]

    def test_csv_rows_of_empty_table(self):
        # "[]"[2:-2].split("],[") alone would give one empty row
        assert _row_texts([]) == [] and _row_texts(np.empty((0, 3)).tolist()) == []
        assert _row_texts([[], []]) == ["", ""]

    @pytest.mark.parametrize("obj", [
        {2: [1.5], 10: {}, -1: None},
        {0.5: 1, -0.0: 2, math.inf: [[]], math.nan: 3},
        {True: "t", False: "f"},
        {None: [[1, 2], [3]]},
    ])
    def test_write_json_non_string_keys(self, obj):
        assert json_text(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"

    def test_write_json_rejects_what_json_rejects(self):
        for obj in ({(1, 2): 0}, [[1, 2], [3, np.int64(4)]], {"a": object()}):
            with pytest.raises(TypeError):
                json.dumps(obj, indent=2, sort_keys=True)
            with pytest.raises(TypeError):
                json_text(obj)

    def test_malformed_signal(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("t,u1\n0,abc\n")
        assert main(["pe", str(p)]) == EXIT_INPUT
        p.write_text("v1,v2\n0,1\n")
        assert main(["pe", str(p)]) == EXIT_INPUT


class TestPE:
    def test_reference_order_four(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = main(["pe", EX2_INPUT, "--order", "4", "--out", str(out)])
        assert code == EXIT_FALSE
        payload = json.loads(out.read_text())
        assert payload["is_pe"] is False
        assert payload["config"]["rtol"] == 1e-9

    def test_reference_order_three(self, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["pe", EX3_INPUT, "--order", "3", "--out", str(out)]) == EXIT_FALSE
        assert json.loads(out.read_text())["is_pe"] is False

    def test_zero_signal_report(self, tmp_path):
        sig = tmp_path / "z.csv"
        write_zero_signal(sig)
        out = tmp_path / "rep.json"
        assert main(["pe", str(sig), "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["max_order"] == 0


class TestSimulate:
    def test_reference_states(self, tmp_path, ex2_input, ex2_values, ex2_states):
        cert = construct_certificate(
            Signal(ex2_input), 3, 1,
            eta=ex2_values["eta"], A=ex2_values["A"], zeta=ex2_values["zeta"],
        )
        sys_path = tmp_path / "system.json"
        sys_path.write_text(json.dumps(cert.state_pair().to_dict()))
        out = tmp_path / "traj.csv"
        x0 = ",".join(repr(float(v)) for v in cert.x0)
        code = main(["simulate", str(sys_path), EX2_INPUT, f"--x0={x0}", "--out", str(out)])
        assert code == EXIT_OK
        data = read_trajectory_csv(str(out))
        np.testing.assert_allclose(data["x"].samples[:8], ex2_states, atol=1e-3)

    def test_zero_everything(self, tmp_path):
        sig = tmp_path / "z.csv"
        write_zero_signal(sig)
        out = tmp_path / "traj.csv"
        assert main(["simulate", EX1_SYSTEM, str(sig), "--out", str(out)]) == EXIT_OK
        data = read_trajectory_csv(str(out))
        assert not data["x"].samples.any() and not data["y"].samples.any()

    def test_integrator(self, tmp_path):
        sys_path = tmp_path / "integrator.json"
        sys_path.write_text(json.dumps({"A": [[1.0]], "B": [[1.0]],
                                        "C": [[1.0]], "D": [[0.0]]}))
        sig = tmp_path / "ones.csv"
        cfg = RunConfig()
        write_signal_csv(str(sig), Signal(np.ones(5)), cfg)
        out = tmp_path / "traj.csv"
        assert main(["simulate", str(sys_path), str(sig), "--out", str(out)]) == EXIT_OK
        data = read_trajectory_csv(str(out))
        np.testing.assert_array_equal(data["x"].samples[:, 0], np.arange(6.0))

    def test_dimension_mismatch(self, tmp_path):
        assert main(["simulate", EX1_SYSTEM, EX2_INPUT]) == EXIT_INPUT


class TestCheck:
    def test_reference_bundle_passes(self, tmp_path, ex1_system):
        u = read_signal_csv(EX1_INPUT)
        traj = simulate(ex1_system, np.array([0.3, -1.2]), u)
        data = tmp_path / "data.csv"
        write_trajectory_csv(str(data), traj.u, traj.x, traj.y, RunConfig())
        assert main(["check", EX1_SYSTEM, str(data), "--L", "1"]) == EXIT_OK

    def test_adversary_bundle_fails(self, tmp_path):
        bundle = tmp_path / "bundle"
        assert main(["counterexample", EX2_INPUT, "--n", "3", "--L", "1",
                     "--out", str(bundle)]) == EXIT_OK
        code = main(["check", str(bundle / "system.json"),
                     str(bundle / "trajectory.csv"), "--L", "1"])
        assert code == EXIT_FALSE

    def test_resting_system_fails(self, tmp_path):
        sig = tmp_path / "z.csv"
        write_zero_signal(sig, T=5)
        u = read_signal_csv(str(sig))
        sys_ = read_system_json(EX1_SYSTEM)
        traj = simulate(sys_, np.zeros(2), u)
        data = tmp_path / "data.csv"
        write_trajectory_csv(str(data), traj.u, traj.x, traj.y, RunConfig())
        assert main(["check", EX1_SYSTEM, str(data), "--L", "1"]) == EXIT_FALSE


class TestUniversal:
    def test_impulse_with_certificate(self, tmp_path):
        out = tmp_path / "verdict.json"
        code = main(["universal", EX1_INPUT, "--n", "2", "--L", "1", "--out", str(out)])
        assert code == EXIT_FALSE
        payload = json.loads(out.read_text())
        assert payload["universal"] is False
        assert payload["certificate"]["rank_deficit_confirmed"] is True

    def test_exciting_input(self, tmp_path):
        sig = tmp_path / "g.csv"
        write_signal_csv(str(sig),
                         Signal(np.random.default_rng(3).standard_normal((11, 2))),
                         RunConfig())
        out = tmp_path / "verdict.json"
        assert main(["universal", str(sig), "--n", "2", "--L", "2",
                     "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["universal"] is True

    def test_zero_input(self, tmp_path):
        sig = tmp_path / "z.csv"
        write_zero_signal(sig, T=8)
        assert main(["universal", str(sig), "--n", "2", "--L", "1"]) == EXIT_FALSE

    def test_boundary_length_certificate(self, tmp_path):
        # T = n+L-1 = 12 samples: no Hankel column, eta = e_1 and the pair J(0)
        sig = tmp_path / "g.csv"
        write_signal_csv(str(sig), Signal(np.random.default_rng(12).standard_normal(12)),
                         RunConfig())
        out = tmp_path / "verdict.json"
        assert main(["universal", str(sig), "--n", "12", "--L", "1",
                     "--out", str(out)]) == EXIT_FALSE
        cert = json.loads(out.read_text())["certificate"]
        assert cert["rank_deficit_confirmed"] is True and cert["short_data_case"] is False

    def test_lists_orders_up_to_n_plus_L(self, tmp_path):
        sig = tmp_path / "g.csv"
        write_signal_csv(str(sig),
                         Signal(np.random.default_rng(5).standard_normal((40, 2))),
                         RunConfig())
        verdict, listing = tmp_path / "verdict.json", tmp_path / "pe.json"
        assert main(["universal", str(sig), "--n", "3", "--L", "2",
                     "--out", str(verdict)]) == EXIT_OK
        report = json.loads(verdict.read_text())["pe_report"]
        assert [row["order"] for row in report["per_order"]] == [1, 2, 3, 4, 5]
        assert report["max_order"] == 5
        assert main(["pe", str(sig), "--out", str(listing)]) == EXIT_OK
        full = json.loads(listing.read_text())
        assert len(full["per_order"]) == (40 + 1) // (2 + 1)
        assert full["per_order"][:5] == report["per_order"]

    def test_impulse_scan_ends(self, tmp_path):
        # an impulse's kernel vectors all vanish at 0, so the scan moves on
        # to the stable candidates: at n = 20 J(1/2) gives a certificate. At
        # n = 40 the default eta is a monomial z^j, tiny at every candidate,
        # and the finite scan must give up, not run on; a separate process
        # with a timeout keeps the suite from hanging if it runs on.
        sig = tmp_path / "impulse.csv"
        write_signal_csv(str(sig), Signal(np.eye(80, 1)), RunConfig())
        out = tmp_path / "v.json"
        assert main(["universal", str(sig), "--n", "20", "--L", "2",
                     "--out", str(out)]) == EXIT_FALSE
        cert = json.loads(out.read_text())["certificate"]
        assert cert["rank_deficit_confirmed"] is True
        assert is_controllable(np.array(cert["A"]), np.array(cert["B"]))[0]
        stacked = np.vstack([hankel(Signal(np.eye(80, 1)), 2), np.array(cert["states"]).T])
        assert np.abs(np.concatenate([cert["v"], cert["w"]]) @ stacked).max() <= 1e-12
        src = str(FIXTURES.parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        proc = subprocess.run([sys.executable, "-m", "peu.cli", "universal", str(sig),
                               "--n", "40", "--L", "2", "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == EXIT_CONSTRUCTION
        assert "failed for all eigenvalue candidates" in proc.stderr


class TestCounterexample:
    def test_reference_overrides(self, tmp_path, ex2_values):
        ov = {}
        for name in ("eta", "A", "zeta"):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(ex2_values[name].tolist()))
            ov[name] = str(path)
        bundle = tmp_path / "out"
        code = main(["counterexample", EX2_INPUT, "--n", "3", "--L", "1",
                     "--override-eta", ov["eta"], "--override-A", ov["A"],
                     "--override-zeta", ov["zeta"], "--out", str(bundle)])
        assert code == EXIT_OK
        cert = json.loads((bundle / "certificate.json").read_text())
        np.testing.assert_allclose(np.asarray(cert["B"]), ex2_values["Em1"], atol=5e-4)
        np.testing.assert_allclose(np.asarray(cert["x0"]), ex2_values["x0"], atol=5e-4)
        assert cert["stacked_rank"]["rank"] == 4

    def test_impulse_bundle(self, tmp_path):
        bundle = tmp_path / "out"
        assert main(["counterexample", EX1_INPUT, "--n", "2", "--L", "1",
                     "--out", str(bundle)]) == EXIT_OK
        cert = json.loads((bundle / "certificate.json").read_text())
        assert cert["rank_deficit_confirmed"] is True
        sys_ = read_system_json(str(bundle / "system.json"))
        assert (sys_.n, sys_.m) == (2, 1)

    def test_short_input(self, tmp_path):
        sig = tmp_path / "short.csv"
        write_signal_csv(str(sig), Signal(np.array([1.0, 2.0])), RunConfig())
        bundle = tmp_path / "out"
        assert main(["counterexample", str(sig), "--n", "3", "--L", "1",
                     "--out", str(bundle)]) == EXIT_OK
        cert = json.loads((bundle / "certificate.json").read_text())
        assert cert["short_data_case"] is True

    def test_short_input_uncontrollable_override_fails_construction(self, tmp_path, capsys):
        # short data honours overrides; a diagonal A with zeta = e_n is not controllable
        sig = tmp_path / "short.csv"
        write_signal_csv(str(sig), Signal(np.array([1.0, 2.0])), RunConfig())
        A_file = tmp_path / "A.json"
        A_file.write_text("[[0.5, 0, 0], [0, 0.25, 0], [0, 0, 0.125]]")
        bundle = tmp_path / "out"
        code = main(["counterexample", str(sig), "--n", "3", "--L", "1",
                     "--override-A", str(A_file), "--out", str(bundle)])
        assert code == EXIT_CONSTRUCTION
        assert "(A, zeta) is not controllable" in capsys.readouterr().err
        assert not bundle.exists()

    def test_depth_zero_flag(self, tmp_path):
        sig = tmp_path / "ones.csv"
        write_signal_csv(str(sig), Signal(np.ones(6)), RunConfig())
        bundle = tmp_path / "out"
        assert main(["counterexample", str(sig), "--n", "2", "--L0",
                     "--out", str(bundle)]) == EXIT_OK
        cert = json.loads((bundle / "certificate.json").read_text())
        assert cert["L"] == 0 and cert["v"] == []

    def test_depth_and_depth_zero_flags_conflict(self, tmp_path, capsys):
        sig = tmp_path / "ones.csv"
        write_signal_csv(str(sig), Signal(np.ones(7)), RunConfig())
        bundle = tmp_path / "out"
        code = main(["counterexample", str(sig), "--n", "2", "--L", "3", "--L0",
                     "--out", str(bundle)])
        assert code == EXIT_INPUT
        assert "--L and --L0" in capsys.readouterr().err
        assert not bundle.exists()

    def test_exciting_input_is_input_error(self, tmp_path):
        sig = tmp_path / "g.csv"
        write_signal_csv(str(sig),
                         Signal(np.random.default_rng(7).standard_normal(9)),
                         RunConfig())
        assert main(["counterexample", str(sig), "--n", "2", "--L", "1"]) == EXIT_INPUT

    def test_conflicting_override_is_construction_error(self, tmp_path):
        sig = tmp_path / "ones.csv"
        write_signal_csv(str(sig), Signal(np.ones(6)), RunConfig())
        A_file = tmp_path / "A.json"
        A_file.write_text("[[1.0]]")  # eigenvalue sits on the kernel root
        code = main(["counterexample", str(sig), "--n", "1", "--L", "1",
                     "--override-A", str(A_file), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONSTRUCTION

    def test_override_file_holding_an_object_is_input_error(self, tmp_path, capsys):
        eta = tmp_path / "eta.json"
        eta.write_text('{"eta": [1, 0]}')
        code = main(["counterexample", EX1_INPUT, "--n", "2", "--L", "1",
                     "--override-eta", str(eta), "--out", str(tmp_path / "o")])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"error: {eta}: invalid eta file")

    def test_certificate_json_round_trip(self, tmp_path):
        bundle = tmp_path / "out"
        main(["counterexample", EX1_INPUT, "--n", "2", "--L", "1",
              "--out", str(bundle)])
        path = bundle / "certificate.json"
        payload = json.loads(path.read_text())
        rewritten = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert rewritten == path.read_text()


class TestOneExcitationVerdict:
    """Inputs at the tolerance of the order-(n+L) decision get one answer from every verb.

    u = u0 + eps g, with u0 two tones (PE order 2 for m = 2, 4 for m = 1)
    and g Gaussian. eps is bisected to the boundary of ``pe_order``'s
    order-(n+L) entry, so the inputs sit at the tolerance whatever the
    BLAS. The grid around it is finer than the rounding of the singular
    values, where two separate factorizations of H_{n+L}(u) disagree.
    """

    n, L = 3, 2

    def margin_inputs(self, count=4):
        k = self.n + self.L
        for seed in range(count):
            rng = np.random.default_rng(seed)
            T, m = int(rng.integers(60, 101)), int(rng.integers(1, 3))
            t = np.arange(T)[:, None]
            u0 = np.sin(0.7 * t + np.arange(m)) + 0.5 * np.cos(1.9 * t)
            g = rng.standard_normal((T, m))

            def exciting(eps):
                return pe_order(Signal(u0 + eps * g), up_to=k).per_order[-1][1].full_row_rank

            lo, hi = 0.0, 1.0
            assert not exciting(lo) and exciting(hi)
            while (mid := 0.5 * (lo + hi)) not in (lo, hi):
                lo, hi = (lo, mid) if exciting(mid) else (mid, hi)
            for j in range(-8, 9):
                yield Signal(u0 + hi * (1 + j * 2e-11) * g)

    def test_margin_inputs_agree(self, tmp_path, capsys):
        n, L = self.n, self.L
        sig = tmp_path / "u.csv"
        for u in self.margin_inputs():
            exciting = is_pe(u, n + L)[0]
            try:
                construct_certificate(u, n, L)
                refused = False
            except PersistentlyExcitingError:
                refused = True
            except ConstructionError:
                refused = False
            assert refused == exciting
            try:
                assert universality_verdict(u, n, L).universal == exciting
            except ConstructionError:
                assert not exciting
            write_signal_csv(str(sig), u, RunConfig())
            pe = main(["pe", str(sig), "--order", str(n + L), "--out", str(tmp_path / "pe.json")])
            ce = main(["counterexample", str(sig), "--n", str(n), "--L", str(L),
                       "--out", str(tmp_path / "ce")])
            assert pe == (EXIT_OK if exciting else EXIT_FALSE)
            assert (ce == EXIT_INPUT) == (pe == EXIT_OK), capsys.readouterr().err


class TestCloud:
    def test_reference_cloud_verified(self, tmp_path):
        out = tmp_path / "points.csv"
        code = main(["cloud", EX3_INPUT, "--L", "2", "--samples", "200",
                     "--seed", "1", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[1] == "a,b1,b2,x0,verified"
        rows = [line.split(",") for line in lines[2:]]
        assert rows and all(r[-1] == "1" for r in rows)

    def test_empty_cloud(self, tmp_path):
        out = tmp_path / "points.csv"
        assert main(["cloud", EX3_INPUT, "--L", "2", "--samples", "0",
                     "--out", str(out)]) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2  # config comment + header only

    @pytest.mark.parametrize("argv, skipped, header", [
        (["--L", "2", "--samples", "0"], 0, "a,b1,b2,x0,verified"),
        # 1 is the kernel polynomial's root for an all-ones input: every pair is skipped
        (["--L", "1", "--samples", "5", "--ranges=1,1,1,1"], 5, "a,b1,x0,verified"),
    ], ids=["no-samples", "all-skipped"])
    def test_empty_cloud_bytes(self, tmp_path, argv, skipped, header):
        signal = EX3_INPUT
        if skipped:
            signal = str(tmp_path / "ones.csv")
            write_signal_csv(signal, Signal(np.ones(6)), RunConfig())
        out = tmp_path / "points.csv"
        assert main(["cloud", signal, *argv, "--out", str(out)]) == EXIT_OK
        comment = RunConfig().comment_line()
        assert out.read_text() == f"{comment} skipped={skipped}\n{header}\n"

    def test_seed_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            main(["cloud", EX3_INPUT, "--L", "2", "--samples", "64",
                  "--seed", "7", "--out", str(path)])
        assert a.read_bytes() == b.read_bytes()

    def test_non_finite_states_rejected(self, tmp_path, capsys):
        signal = tmp_path / "ones.csv"
        write_signal_csv(str(signal), Signal(np.ones(12)), RunConfig())
        out = tmp_path / "points.csv"
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["cloud", str(signal), "--L", "2", "--ranges", "1e40,2e40,1,2",
                         "--out", str(out)])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err.endswith("error: matrix contains non-finite entries\n")
        assert not out.exists()

    def test_zero_zeta_range_rejected(self, tmp_path, capsys):
        # every zeta draw would be 0, so the redraw loop could never end
        out = tmp_path / "points.csv"
        assert main(["cloud", EX3_INPUT, "--L", "2", "--samples", "10",
                     "--ranges=-1,1,0,0", "--out", str(out)]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: --ranges")
        assert not out.exists()

    @pytest.mark.parametrize("ranges", ["nan,1,-1,1", "-1,1,inf,inf", "-1,1,-1e308,1e308"])
    def test_non_finite_range_rejected(self, tmp_path, capsys, ranges):
        out = tmp_path / "points.csv"
        assert main(["cloud", EX3_INPUT, "--L", "2", "--samples", "10",
                     f"--ranges={ranges}", "--out", str(out)]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: --ranges")
        assert not out.exists()


class TestRepro:
    def test_ex1(self, capsys):
        assert main(["repro", "ex1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_ex2_reports_known_deviation(self, capsys):
        # every table value reproduces except the published xi, which is
        # ~3e-3 from any xi computable from the 4-decimal inputs
        assert main(["repro", "ex2"]) == EXIT_FALSE
        lines = capsys.readouterr().out.strip().splitlines()
        fails = [line for line in lines if line.startswith("FAIL")]
        assert len(fails) == 1 and "xi" in fails[0]

    def test_ex3(self, capsys):
        assert main(["repro", "ex3"]) == EXIT_OK
        assert "FAIL" not in capsys.readouterr().out


REPRO_LINES = {
    "ex1": [
        "PASS  ex1: excitation order of (1,0,0) is 1",
        "PASS  ex1: 20 random x(0): stacked rank 2 and behavior equality",
        "PASS  ex1: input is nonetheless not universal (certificate attached)",
    ],
    "ex2": [
        "PASS  ex2: input not persistently exciting of order 4",
        "PASS  ex2: recursion matrix E_2 within 0.001",
        "PASS  ex2: recursion matrix E_1 within 0.001",
        "PASS  ex2: recursion matrix E_0 within 0.001",
        "PASS  ex2: recursion matrix E_-1 within 0.001",
        "PASS  ex2: B within 0.001",
        "PASS  ex2: x(0) within 0.001",
        "FAIL  ex2: xi within 0.001",
        "PASS  ex2: state trajectory within 0.001",
        "PASS  ex2: stacked input/state matrix rank 4 < 5",
    ],
    "ex3": [
        "PASS  ex3: input not persistently exciting of order 3",
        "PASS  ex3: red-dot system lies on the constructive family (1.5e-4)",
        "PASS  ex3: family member yields stacked rank 4 at rtol",
        "PASS  ex3: printed triple yields rank 4 at print-resolution tolerance",
    ],
}


@pytest.mark.parametrize("example", sorted(REPRO_LINES))
def test_repro_report_lines(capsys, example):
    """Every check of a reference example, in order, up to its two-space detail."""
    main(["repro", example])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("  (")[0] for line in lines] == REPRO_LINES[example]


class TestRunConfigInput:
    """Tolerances must be positive and finite, the seed non-negative: exit 2, no file."""

    @pytest.mark.parametrize("option", ["--rtol", "--tol-cert"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1e-9"])
    def test_bad_tolerance(self, tmp_path, capsys, option, value):
        out = tmp_path / "pe.json"
        assert main(["pe", EX1_INPUT, f"{option}={value}", "--out", str(out)]) == EXIT_INPUT
        assert capsys.readouterr().err == "error: tolerances must be positive and finite\n"
        assert not out.exists()

    def test_negative_seed_flag(self, tmp_path, capsys):
        out = tmp_path / "points.csv"
        assert main(["cloud", EX3_INPUT, "--L", "2", "--samples", "3", "--seed=-1",
                     "--out", str(out)]) == EXIT_INPUT
        assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
        assert not out.exists()


_SYS_JSON = '{"A": [[0.5]], "B": [[1]], "C": [[1]], "D": [[0]]}'


@pytest.mark.parametrize("files, argv, message", [
    ({"u": ""}, ["pe", "{u}"], "empty signal file"),
    ({"u": "t,u1\n0,1\n1,2,3\n"}, ["pe", "{u}"], "row has 3 cells, expected 2"),
    ({"u": "t,u1\n"}, ["pe", "{u}"], "no samples"),
    ({"sys": _SYS_JSON, "data": ""}, ["check", "{sys}", "{data}", "--L", "1"],
     "empty file"),
    ({"sys": _SYS_JSON, "data": "s,u1,y1\n0,1,1\n"},
     ["check", "{sys}", "{data}", "--L", "1"], "first column must be t"),
    ({"sys": _SYS_JSON, "data": "t,u1,z1\n0,1,1\n"},
     ["check", "{sys}", "{data}", "--L", "1"], "unexpected column z1"),
    ({"sys": _SYS_JSON, "data": "t,u1,y1\n0,a,1\n"},
     ["check", "{sys}", "{data}", "--L", "1"], "non-numeric cell"),
    ({"sys": _SYS_JSON, "data": "t,u1,u2,y1\n0,1,,1\n"},
     ["check", "{sys}", "{data}", "--L", "1"], "partially filled u row"),
    ({"sys": _SYS_JSON, "data": "t,u1,x1\n0,1,1\n"},
     ["check", "{sys}", "{data}", "--L", "1"], "need u and y columns"),
    ({"sys": "{"}, ["simulate", "{sys}", EX1_INPUT], "invalid JSON"),
    ({"sys": '{"A": [[0.5]], "B": [[1]], "C": [[1]]}'}, ["simulate", "{sys}", EX1_INPUT],
     "missing field 'D'"),
    ({"sys": '{"n": 2, "A": [[0.5]], "B": [[1]], "C": [[1]], "D": [[0]]}'},
     ["simulate", "{sys}", EX1_INPUT], "declared n=2 does not match matrices"),
    ({}, ["pe", EX1_INPUT, "--order", "0"], "--order 0 out of range [1, 3]"),
    ({}, ["pe", EX1_INPUT, "--order", "4"], "--order 4 out of range [1, 3]"),
    ({}, ["simulate", EX1_SYSTEM, EX1_INPUT, "--x0=1,a"], "--x0 must be comma-separated"),
    ({}, ["simulate", EX1_SYSTEM, EX1_INPUT, "--x0=1"], "x0 size 1 does not match system n=2"),
    ({}, ["cloud", EX3_INPUT, "--L", "2", "--ranges", "0,1,1"], "--ranges must be amin,amax"),
    ({}, ["cloud", EX3_INPUT, "--L", "2", "--samples", "-1"], "--samples must be non-negative"),
    ({}, ["counterexample", EX1_INPUT, "--n", "2", "--out", "{out}"],
     "--L is required unless --L0 is given"),
    ({"eta": json.dumps(np.ones((2, 2, 2)).tolist())},
     ["counterexample", EX2_INPUT, "--n", "3", "--L", "1", "--override-eta", "{eta}",
      "--out", "{out}"], "eta must have shape (4, 2) or (8,), got (2, 2, 2)"),
    ({"zeta": "[[1, 0, 0]]"},
     ["counterexample", EX2_INPUT, "--n", "3", "--L", "1", "--override-zeta", "{zeta}",
      "--out", "{out}"], "zeta must have shape (3,), got (1, 3)"),
], ids=["signal-empty", "signal-ragged", "signal-no-samples", "data-empty", "data-first-column",
        "data-column", "data-cell", "data-partial-row", "data-no-y", "system-json",
        "system-field", "system-declared-n", "order-low", "order-high", "x0-text", "x0-size",
        "ranges", "samples", "missing-L", "eta-shape", "zeta-shape"])
def test_refused_arguments(tmp_path, capsys, files, argv, message):
    paths = {"out": str(tmp_path / "out")}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
        paths[name] = str(tmp_path / name)
    assert main([arg.format_map(paths) for arg in argv]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err


class TestParserReuse:
    """One process reuses one parser; every run must behave as in a fresh process."""

    RUNS = [
        ["pe", EX1_INPUT, "--out", "{d}/pe.json"],
        ["counterexample", EX1_INPUT, "--n", "2", "--L", "1", "--L0", "--out", "{d}/bad"],
        ["counterexample", EX2_INPUT, "--n", "3", "--L", "1", "--out", "{d}/bundle"],
        ["check", "{d}/bundle/system.json", "{d}/bundle/trajectory.csv", "--L", "1",
         "--out", "{d}/check.json"],
        ["universal", EX1_INPUT, "--n", "2", "--L", "1", "--out", "{d}/universal.json"],
        ["cloud", EX3_INPUT, "--L", "2", "--samples", "8", "--seed", "4",
         "--out", "{d}/cloud.csv"],
        ["pe", EX2_INPUT, "--order", "4", "--rtol", "1e-6", "--out", "{d}/pe4.json"],
    ]

    @staticmethod
    def _fresh(argv):
        src = str(FIXTURES.parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        return subprocess.run([sys.executable, "-m", "peu.cli", *argv], env=env,
                              capture_output=True, text=True)

    def test_same_exits_and_files_as_fresh_processes(self, tmp_path):
        outputs = {}
        for name in ("shared", "fresh"):
            d = tmp_path / name
            d.mkdir()
            runs = [[a.format(d=d) for a in argv] for argv in self.RUNS]
            if name == "shared":
                codes = [main(argv) for argv in runs]
            else:
                codes = [self._fresh(argv).returncode for argv in runs]
            files = {str(p.relative_to(d)): p.read_bytes()
                     for p in sorted(d.rglob("*")) if p.is_file()}
            outputs[name] = codes, files
        assert outputs["shared"][0] == [EXIT_OK, EXIT_INPUT, EXIT_OK, EXIT_FALSE, EXIT_FALSE,
                                        EXIT_OK, EXIT_FALSE]
        assert outputs["shared"] == outputs["fresh"]

    @pytest.mark.parametrize("argv", [["--help"], ["counterexample", "--help"]])
    def test_help_text_unchanged(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")  # same wrap width with or without a terminal
        main(["pe", EX1_INPUT, "--out", os.devnull])
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(argv)
        shared = capsys.readouterr().out
        fresh = self._fresh(argv)
        assert fresh.returncode == 0
        assert shared == fresh.stdout


class TestCertificateDeterminism:
    def test_counterexample_bytes(self, tmp_path):
        dirs = [tmp_path / "r1", tmp_path / "r2"]
        for d in dirs:
            main(["counterexample", EX2_INPUT, "--n", "3", "--L", "1",
                  "--seed", "5", "--out", str(d)])
        for name in ("certificate.json", "system.json", "trajectory.csv"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def _bundle_input(case, tmp_path):
    """(signal path, n, L): ex2's, or a certify-sized two-channel multisine of 3 tones,
    not exciting of order n+L = 9."""
    if case == "ex2":
        return EX2_INPUT, 3, 1
    t = np.arange(40)[:, None]
    w = np.array([[0.4, 1.3, 2.2]])
    coef = np.random.default_rng(4).standard_normal((2, 3, 2))
    path = tmp_path / "u.csv"
    write_signal_csv(str(path), Signal(np.cos(t * w) @ coef[0] + np.sin(t * w) @ coef[1]),
                     RunConfig())
    return str(path), 5, 4


class TestFormatOnce:
    """A bundle formats each state row once, and writes the bytes of the arrays' own JSON."""

    @pytest.mark.parametrize("case", ["ex2", "multisine"])
    def test_each_state_row_is_formatted_once(self, tmp_path, monkeypatch, case):
        signal, n, L = _bundle_input(case, tmp_path)
        encoded = []

        def counted(rows):
            encoded.extend(tuple(map(repr, row)) for row in rows)
            return _row_texts(rows)

        monkeypatch.setattr(cli, "_row_texts", counted)
        bundle = tmp_path / "bundle"
        assert main(["counterexample", signal, "--n", str(n), "--L", str(L),
                     "--out", str(bundle)]) == EXIT_OK
        monkeypatch.undo()
        x = read_trajectory_csv(str(bundle / "trajectory.csv"))["x"].samples
        assert len(x) > L + 1
        for row in x.tolist():  # each x(t) as a run of cells in the rows encoded
            cells = tuple(map(repr, row))
            runs = sum(r[i:i + n] == cells for r in encoded for i in range(len(r) - n + 1))
            assert runs == 1, (row, runs)

    @pytest.mark.parametrize("case", ["ex2", "multisine"])
    def test_bundle_is_the_arrays_json(self, tmp_path, case):
        signal, n, L = _bundle_input(case, tmp_path)
        u, bundle, report = read_signal_csv(signal), tmp_path / "bundle", tmp_path / "u.json"
        main(["counterexample", signal, "--n", str(n), "--L", str(L), "--out", str(bundle)])
        main(["universal", signal, "--n", str(n), "--L", str(L), "--out", str(report)])
        cert, cfg = construct_certificate(u, n, L), RunConfig()
        traj = cert.trajectory
        expected = {"certificate.json": json_text({**cert.to_dict(), "config": cfg.to_dict()}),
                    "system.json": json_text(cert.state_pair().to_dict()),
                    "trajectory.csv": trajectory_csv_loop(traj.u, traj.x, traj.y, cfg)}
        for name, text in expected.items():
            assert (bundle / name).read_text() == text, name
        verdict = universality_verdict(u, n, L)
        assert report.read_text() == json_text({
            "universal": verdict.universal, "pe_order_needed": verdict.pe_order_needed,
            "pe_report": verdict.pe_report.to_dict(),
            "certificate": verdict.counterexample.to_dict(), "config": cfg.to_dict()})

    @pytest.mark.parametrize("samples, n, depth", [
        (np.ones(6), 2, ["--L0"]),
        (np.array([1.0, 2.0]), 3, ["--L", "1"]),  # T < n+L-1: short_data_case
    ], ids=["depth-zero", "short"])
    def test_certificate_json_is_to_dict(self, tmp_path, samples, n, depth):
        u, signal, bundle = Signal(samples), tmp_path / "u.csv", tmp_path / "bundle"
        write_signal_csv(str(signal), u, RunConfig())
        assert main(["counterexample", str(signal), "--n", str(n), *depth,
                     "--out", str(bundle)]) == EXIT_OK
        cert = (construct_certificate_l0(u, n) if depth == ["--L0"]
                else construct_certificate(u, n, int(depth[1])))
        assert (bundle / "certificate.json").read_text() == json_text(
            {**cert.to_dict(), "config": RunConfig().to_dict()})


class TestArtifactShape:
    """The keys every JSON report carries: no echoed options, no constant residuals."""

    def test_config_keys(self, tmp_path):
        bundle = tmp_path / "bundle"
        reports = {"pe": tmp_path / "pe.json", "universal": tmp_path / "universal.json",
                   "check": tmp_path / "check.json"}
        main(["pe", EX1_INPUT, "--out", str(reports["pe"])])
        main(["universal", EX1_INPUT, "--n", "2", "--L", "1",
              "--out", str(reports["universal"])])
        main(["counterexample", EX1_INPUT, "--n", "2", "--L", "1", "--out", str(bundle)])
        main(["check", str(bundle / "system.json"), str(bundle / "trajectory.csv"),
              "--L", "1", "--out", str(reports["check"])])
        for path in (*reports.values(), bundle / "certificate.json"):
            assert set(json.loads(path.read_text())["config"]) == {"rtol", "tol_cert", "seed"}

    def test_residual_keys(self, tmp_path):
        bundle, verdict = tmp_path / "bundle", tmp_path / "universal.json"
        main(["counterexample", EX1_INPUT, "--n", "2", "--L", "1", "--out", str(bundle)])
        main(["universal", EX1_INPUT, "--n", "2", "--L", "1", "--out", str(verdict)])
        expected = {"annihilation", "eta_annihilation", "closed_form", "xi_orthogonality"}
        for cert in (json.loads((bundle / "certificate.json").read_text()),
                     json.loads(verdict.read_text())["certificate"]):
            assert set(cert["residuals"]) == expected
            assert "lambda" not in cert and "cluster_radius" not in cert

    def test_format_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pe", EX1_INPUT, "--format", "json"])
        assert exc.value.code == EXIT_INPUT
        assert "--format" in capsys.readouterr().err


class TestUnstableOverride:
    def test_overflowing_states_fail_the_candidate(self, tmp_path, capsys):
        # A = 2 doubles the state 1200 times: the states overflow, which is a
        # failed candidate (exit 4), not an input error or a numpy warning
        sig = tmp_path / "const.csv"
        write_signal_csv(str(sig), Signal(np.ones(1200)), RunConfig())
        A_file = tmp_path / "A.json"
        A_file.write_text("[[2.0]]")
        bundle = tmp_path / "out"
        code = main(["counterexample", str(sig), "--n", "1", "--L", "1",
                     "--override-A", str(A_file), "--out", str(bundle)])
        assert code == EXIT_CONSTRUCTION
        assert "A[override]: the pair does not simulate to finite states" in capsys.readouterr().err
        assert not bundle.exists()

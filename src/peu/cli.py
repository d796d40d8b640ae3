"""Command-line front end: file formats, checks, counterexample bundles.

Formats:

- Signal CSV: header row ``t,u1,...,um``, one sample per row. Files
  written by the tool carry a leading ``# peu-config: ...`` comment
  echoing the tolerances and seed; readers accept files with or
  without it.
- Trajectory CSV: columns ``t,u*,x*,y*`` with T+1 rows; the final row
  holds only the post-input state (u/y cells empty).
- Cloud CSV: columns ``a,b*,x0,verified``, one row per point; the
  comment line ends in ``skipped=K``.
- System JSON: ``{"n","m","p","A","B","C","D"}`` with row-major arrays.
- Certificate JSON: all certificate fields plus tolerances and
  verification residuals (the construction is deterministic: no seed).
- Every JSON report (``pe``, ``universal``, ``check`` and
  ``certificate.json``) carries a ``config`` object with exactly the
  keys ``rtol``, ``tol_cert`` and ``seed``. The seed drives only the
  random draws of ``cloud`` and ``repro ex1``.
- Every JSON file is exactly ``json.dumps(obj, indent=2,
  sort_keys=True)`` plus a newline (``write_json``).

Exit codes: 0 success/true, 2 input error (including unreadable or
malformed files), 3 checked false, 4 numerical construction failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import os
import sys
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import adversary, flemma
from .defaults import RTOL, SEED, TOL_CERT
from .errors import ConstructionError, ValidationError
from .lti import StateSpaceSystem, simulate
from .signals import Signal, is_pe, pe_order

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_FALSE = 3
EXIT_CONSTRUCTION = 4


@dataclass(frozen=True)
class RunConfig:
    """Tolerances and seed in force for one invocation; echoed into outputs."""

    rtol: float = RTOL
    tol_cert: float = TOL_CERT
    seed: int = SEED

    def __post_init__(self):
        if not (0 < self.rtol < np.inf and 0 < self.tol_cert < np.inf):
            raise ValidationError("tolerances must be positive and finite")
        if self.seed < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed}")

    def to_dict(self):
        return {"rtol": self.rtol, "tol_cert": self.tol_cert, "seed": self.seed}

    def comment_line(self) -> str:
        return (f"# peu-config: rtol={self.rtol!r} tol_cert={self.tol_cert!r} "
                f"seed={self.seed}")


# ---------------------------------------------------------------------------
# file formats


def read_signal_csv(path) -> Signal:
    """Read a signal CSV with header t,u1,...,um (comment lines allowed)."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].lstrip().startswith("#")]
    if not rows:
        raise ValidationError(f"{path}: empty signal file")
    header = [c.strip() for c in rows[0]]
    if len(header) < 2 or header[0] != "t":
        raise ValidationError(f"{path}: expected header t,u1,...,um, got {header}")
    m = len(header) - 1
    data = []
    for r in rows[1:]:
        if len(r) != m + 1:
            raise ValidationError(f"{path}: row has {len(r)} cells, expected {m + 1}")
        try:
            data.append([float(c) for c in r[1:]])
        except ValueError as exc:
            raise ValidationError(f"{path}: non-numeric cell: {exc}") from exc
    if not data:
        raise ValidationError(f"{path}: no samples")
    return Signal(np.asarray(data))


def write_signal_csv(path, v: Signal, config: RunConfig):
    _write_csv(path, config.comment_line(), ["t"] + [f"u{j + 1}" for j in range(v.dim)],
               (f"{t},{row}\n" for t, row in enumerate(_row_texts(v.samples.tolist()))))


def write_trajectory_csv(path, u: Signal, x: Signal, y: Signal, config: RunConfig, x_rows=None):
    """Columns t,u*,x*,y*; T+1 rows, the last with only the state filled.

    ``x_rows``, if given, are x's ``_row_texts``, and a row of y is
    written from x's text wherever it has x's bytes, as for a pair
    (A, B, I, 0). Without them u, x and y are formatted as one table.
    """
    T = u.length
    if x.length != T + 1 or y.length != T:
        raise ValidationError("trajectory signals must have lengths T, T+1, T")
    names = ["t"] + [f"{s}{j + 1}" for s, v in zip("uxy", (u, x, y)) for j in range(v.dim)]
    if x_rows is None:
        rows = _row_texts(np.hstack([u.samples, x.samples[:T], y.samples]).tolist())
        x_rows = _row_texts(x.samples[T:].tolist())  # x(T) alone
    else:
        rows = list(map(",".join, zip(_row_texts(u.samples.tolist()), x_rows,
                                      _reused(x_rows, x.samples, y.samples))))
    rows.append(",".join([*[""] * u.dim, x_rows[-1], *[""] * y.dim]))
    _write_csv(path, config.comment_line(), names,
               (f"{t},{row}\n" for t, row in enumerate(rows)))


def write_cloud_csv(path, cloud, config: RunConfig):
    """Columns a,b*,x0,verified, one row per point of ``cloud`` (an ``adversary.CloudResult``).

    The comment line ends in ``skipped=K``. Each row is one ``%r`` template
    filled from the columns: ``%r`` writes a float as ``float.__repr__``, as
    json writes a finite float, and ``sample_system_cloud`` refuses a
    non-finite b or state (x0 is x(0)).
    """
    m = cloud.b.shape[1]
    row = ",".join(["%r"] * (m + 2)) + ",%d\n"
    columns = (cloud.a.tolist(), *cloud.b.T.tolist(), cloud.x0.tolist(), cloud.verified.tolist())
    _write_csv(path, config.comment_line() + f" skipped={cloud.n_skipped}",
               ["a"] + [f"b{j + 1}" for j in range(m)] + ["x0", "verified"],
               map(row.__mod__, zip(*columns)))


def _write_csv(path, comment, names, lines):
    """Write the comment line, the header row ``names`` and ``lines``, each ending in ``\\n``."""
    _write_text(path, comment + "\n" + ",".join(names) + "\n" + "".join(lines))


def read_trajectory_csv(path):
    """Read a t,u*,x*,y* table; returns a dict of signals present.

    Rows with empty cells in a group are excluded from that group's
    signal, so the state keeps its extra final sample.
    """
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].lstrip().startswith("#")]
    if not rows:
        raise ValidationError(f"{path}: empty file")
    header = [c.strip() for c in rows[0]]
    if header[0] != "t":
        raise ValidationError(f"{path}: first column must be t")
    groups = {}
    for idx, name in enumerate(header[1:], start=1):
        key = name.rstrip("0123456789")
        if key not in ("u", "x", "y") or name == key:
            raise ValidationError(f"{path}: unexpected column {name}")
        groups.setdefault(key, []).append(idx)
    out = {}
    for key, cols in groups.items():
        vals = []
        for r in rows[1:]:
            cells = [r[c].strip() if c < len(r) else "" for c in cols]
            if all(cells):
                try:
                    vals.append([float(c) for c in cells])
                except ValueError as exc:
                    raise ValidationError(f"{path}: non-numeric cell: {exc}") from exc
            elif any(cells):
                raise ValidationError(f"{path}: partially filled {key} row")
        if vals:
            out[key] = Signal(np.asarray(vals))
    return out


def read_system_json(path) -> StateSpaceSystem:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    try:
        mats = [np.asarray(obj[key], dtype=float) for key in "ABCD"]
    except KeyError as exc:
        raise ValidationError(f"{path}: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: matrices must be rectangular arrays of numbers: "
                              f"{exc}") from exc
    sys_ = StateSpaceSystem(*mats)
    for field in ("n", "m", "p"):
        if field in obj and obj[field] != getattr(sys_, field):
            raise ValidationError(f"{path}: declared {field}={obj[field]} does not match matrices")
    return sys_


_COMPACT = json.JSONEncoder(separators=(",", ":"))  # no indent: runs json's C encoder
_NUMBERS = frozenset((int, float))
_ROWS = frozenset((list, tuple))


def write_json(path, obj):
    """Write exactly ``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``."""
    _write_text(path, _indented(obj, "\n") + "\n")


class _Rows(tuple):
    """Texts of a matrix's rows from ``_row_texts``: ``write_json`` writes the matrix."""


class _Row(str):
    """A vector's text from ``_row_texts``: ``write_json`` writes the vector."""


def _indented(obj, newline):
    """``json.dumps(obj, indent=2, sort_keys=True)`` for an ``obj`` on the line ``newline`` opens.

    ``newline`` is a line break and the indentation of that line. A list
    of numbers, or a list of such lists, is formatted by one call to the
    compact C encoder into a ``_Row`` or ``_Rows``, as callers may pass
    them already formatted, and only their line breaks are laid out here:
    numbers contain no ``,`` ``[`` or ``]``, so each ``,`` is structure.
    """
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [_COMPACT.encode(_key_text(key)) + ": " + _indented(value, inner)
                 for key, value in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if type(obj) in _ROWS and obj:
        if _NUMBERS.issuperset(map(type, obj)):
            obj = _Row(_COMPACT.encode(obj)[1:-1])
        elif _ROWS.issuperset(map(type, obj)) and _NUMBERS.issuperset(
                map(type, itertools.chain.from_iterable(obj))):
            obj = _Rows(_row_texts(obj))
        else:
            return _bracketed([_indented(value, inner) for value in obj], newline)
    if isinstance(obj, _Row):
        return _bracketed([obj.replace(",", "," + inner)] if obj else [], newline)
    if isinstance(obj, _Rows):
        deeper = inner + "  "
        return _bracketed(["[" + deeper + row.replace(",", "," + deeper) + inner + "]"
                           if row else "[]" for row in obj], newline)
    return _COMPACT.encode(obj)


def _bracketed(items, newline):
    """The JSON texts ``items`` as json's indented list on the line ``newline`` opens."""
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(items) + newline + "]" if items else "[]"


def _row_texts(rows):
    """Each of ``rows``, lists of numbers, as its compact JSON text without brackets.

    One call to json's C encoder formats them all. For floats that text
    is ``",".join(map(repr, row))``: json writes a finite float as
    ``float.__repr__`` does, and no number contains ``],[``.
    """
    return _COMPACT.encode(rows)[2:-2].split("],[")[:len(rows)]


def _reused(texts, source, target):
    """``_row_texts(target.tolist())``, taking row i from ``texts``, the rows of ``source``,
    wherever target[i] has source[i]'s float64 bytes (a -0.0 is not a 0.0)."""
    if np.shape(source)[1:] != np.shape(target)[1:]:
        return _row_texts(target.tolist())
    a, b = (np.ascontiguousarray(v, float).view(np.uint64) for v in (source[:len(target)], target))
    same = (a == b).all(axis=1)
    fresh = iter(_row_texts(target[~same].tolist()))
    return [text if ok else next(fresh) for text, ok in zip(texts, same.tolist())]


def _key_text(key):
    """A dict key as json writes it: str kept, float/int/bool/None as their JSON text."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return _COMPACT.encode(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _write_text(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _load_array_json(path, name):
    with open(path) as fh:
        try:
            return np.asarray(json.load(fh), dtype=float)
        except (TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
            raise ValidationError(f"{path}: invalid {name} file: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands


def cmd_pe(args, cfg: RunConfig) -> int:
    u = read_signal_csv(args.signal)
    if args.order is not None:
        if not (1 <= args.order <= u.length):
            raise ValidationError(f"--order {args.order} out of range [1, {u.length}]")
        ok, rep = is_pe(u, args.order, cfg.rtol)
        write_json(args.out, {"order": args.order, "is_pe": ok,
                              "rank_report": rep.to_dict(), "config": cfg.to_dict()})
        return EXIT_OK if ok else EXIT_FALSE
    report = pe_order(u, cfg.rtol)
    write_json(args.out, {**report.to_dict(), "config": cfg.to_dict()})
    return EXIT_OK


def cmd_simulate(args, cfg: RunConfig) -> int:
    sys_ = read_system_json(args.system)
    u = read_signal_csv(args.signal)
    if args.x0 is None:
        x0 = np.zeros(sys_.n)
    else:
        try:
            x0 = np.asarray([float(c) for c in args.x0.split(",")])
        except ValueError as exc:
            raise ValidationError(f"--x0 must be comma-separated numbers: {exc}") from exc
    traj = simulate(sys_, x0, u)
    write_trajectory_csv(args.out, traj.u, traj.x, traj.y, cfg)
    return EXIT_OK


def cmd_check(args, cfg: RunConfig) -> int:
    sys_ = read_system_json(args.system)
    data = read_trajectory_csv(args.data)
    if "u" not in data or "y" not in data:
        raise ValidationError(f"{args.data}: need u and y columns")
    check = flemma.check_behavior_equality(sys_, data["u"], data["y"], args.L, cfg.rtol)
    write_json(args.out, {**check.to_dict(), "config": cfg.to_dict()})
    return EXIT_OK if check.behavior_equal else EXIT_FALSE


def cmd_universal(args, cfg: RunConfig) -> int:
    u = read_signal_csv(args.signal)
    verdict = flemma.universality_verdict(u, args.n, args.L, rtol=cfg.rtol, tol_cert=cfg.tol_cert)
    cert = verdict.counterexample
    payload = {
        "universal": verdict.universal,
        "pe_order_needed": verdict.pe_order_needed,
        "pe_report": verdict.pe_report.to_dict(),
        "certificate": None if cert is None
        else _certificate_json(cert, _row_texts(cert.states.tolist())),
        "config": cfg.to_dict(),
    }
    write_json(args.out, payload)
    return EXIT_OK if verdict.universal else EXIT_FALSE


def cmd_counterexample(args, cfg: RunConfig) -> int:
    u = read_signal_csv(args.signal)
    files = {"eta": args.override_eta, "A": args.override_A, "zeta": args.override_zeta}
    overrides = {key: _load_array_json(path, key) for key, path in files.items() if path}

    cert = adversary.construct_certificate(u, args.n, args.L, rtol=cfg.rtol,
                                           tol_cert=cfg.tol_cert, **overrides)

    os.makedirs(args.out, exist_ok=True)
    x = cert.trajectory.x  # the construction's own simulation of the certified pair
    x_rows = _row_texts(x.samples.tolist())
    cert_json = _certificate_json(cert, x_rows[:len(cert.states)])  # states = x(0..T-L)
    write_json(os.path.join(args.out, "certificate.json"), {**cert_json, "config": cfg.to_dict()})
    # the pair holds copies of A and B = E[-1], so their texts are the certificate's
    write_json(os.path.join(args.out, "system.json"),
               {**cert.state_pair().to_dict(), "A": cert_json["A"], "B": cert_json["B"]})
    write_trajectory_csv(os.path.join(args.out, "trajectory.csv"), cert.trajectory.u, x,
                         cert.trajectory.y, cfg, x_rows)
    sys.stdout.write(f"certificate.json system.json trajectory.csv written to {args.out}\n")
    return EXIT_OK


def _certificate_json(cert, state_rows):
    """``cert.to_dict()``, built from the arrays with each that it writes twice formatted once.

    ``state_rows`` are the ``_row_texts`` of ``cert.states``; x0 = states[0]
    is written from the first, B = E[-1] from E[-1]'s texts, and A and the
    E matrices as ``_Rows`` that callers reuse.
    """
    E = [_Rows(_row_texts(Ei.tolist())) for Ei in cert.E]
    return {**{key: getattr(cert, key) for key in adversary._PLAIN_KEYS},
            **{key: getattr(cert, key).tolist() for key in ("eta", "zeta", "xi", "v", "w")},
            "A": _Rows(_row_texts(cert.A.tolist())), "E": E,
            "B": E[-1], "states": _Rows(state_rows), "x0": _Row(state_rows[0]),
            "stacked_rank": cert.stacked_rank.to_dict(), "residuals": dict(cert.residuals)}


def cmd_cloud(args, cfg: RunConfig) -> int:
    u = read_signal_csv(args.signal)
    try:
        a_lo, a_hi, z_lo, z_hi = (float(c) for c in args.ranges.split(","))
    except ValueError as exc:
        raise ValidationError(f"--ranges must be amin,amax,zmin,zmax: {exc}") from exc
    if not np.isfinite([a_hi - a_lo, z_hi - z_lo]).all():
        raise ValidationError(f"--ranges must be finite with max - min finite: {args.ranges}")
    if z_lo == z_hi == 0.0:
        raise ValidationError("--ranges zmin = zmax = 0 leaves no nonzero zeta to draw")
    if args.samples < 0:
        raise ValidationError("--samples must be non-negative")
    rng = np.random.default_rng(cfg.seed)
    a = rng.uniform(a_lo, a_hi, size=args.samples)
    z = rng.uniform(z_lo, z_hi, size=args.samples)
    while np.any(z == 0.0):
        z[z == 0.0] = rng.uniform(z_lo, z_hi, size=int(np.sum(z == 0.0)))
    result = adversary.sample_system_cloud(u, args.L, np.column_stack([a, z]), rtol=cfg.rtol)
    write_cloud_csv(args.out, result, cfg)
    return EXIT_OK


# ---------------------------------------------------------------------------
# reproduction of the reference examples


def _fixture_path(name) -> str:
    return str(resources.files("peu").joinpath("fixtures", name))


def _repro_ex1(cfg: RunConfig, check):
    sys_ = read_system_json(_fixture_path("ex1_system.json"))
    u = read_signal_csv(_fixture_path("ex1_input.csv"))
    order = pe_order(u, cfg.rtol).max_order
    check("excitation order of (1,0,0) is 1", order == 1, f"max_order={order}")
    rng = np.random.default_rng(cfg.seed)
    outputs = [simulate(sys_, rng.standard_normal(2), u).y for _ in range(20)]
    lemma = [flemma.check_behavior_equality(sys_, u, y, 1, cfg.rtol) for y in outputs]
    check("20 random x(0): stacked rank 2 and behavior equality",
          all(c.data_span_dim == 2 and c.behavior_equal for c in lemma))
    cert = flemma.universality_verdict(u, 2, 1, rtol=cfg.rtol,
                                       tol_cert=cfg.tol_cert).counterexample
    check("input is nonetheless not universal (certificate attached)",
          cert is not None and cert.rank_deficit_confirmed)


def _repro_ex2(cfg: RunConfig, check, tol=1e-3):
    u = read_signal_csv(_fixture_path("ex2_input.csv"))
    with open(_fixture_path("ex2_values.json")) as fh:
        vals = json.load(fh)
    check("input not persistently exciting of order 4", not is_pe(u, 4, cfg.rtol)[0])

    cert = adversary.construct_certificate(
        u, vals["n"], vals["L"], rtol=cfg.rtol, tol_cert=cfg.tol_cert,
        eta=vals["eta"], A=vals["A"], zeta=vals["zeta"])

    def against(label, computed, expected):
        dev = float(np.abs(np.asarray(computed) - np.asarray(expected)).max())
        check(f"{label} within {tol:g}", dev <= tol, f"max dev {dev:.2e}")

    k = vals["n"] + vals["L"]
    for i, key in ((2, "E2"), (1, "E1"), (0, "E0"), (-1, "Em1")):
        against(f"recursion matrix E_{i}", cert.E[k - 1 - i], vals[key])
    against("B", cert.B, vals["Em1"])
    against("x(0)", cert.x0, vals["x0"])
    against("xi", cert.xi, vals["xi"])
    against("state trajectory", cert.states,
            read_trajectory_csv(_fixture_path("ex2_states.csv"))["x"].samples)
    rank = cert.stacked_rank.rank
    check("stacked input/state matrix rank 4 < 5", rank == 4, f"rank={rank}")


def _repro_ex3(cfg: RunConfig, check):
    u = read_signal_csv(_fixture_path("ex3_input.csv"))
    with open(_fixture_path("ex3_reddot.json")) as fh:
        red = json.load(fh)
    check("input not persistently exciting of order 3", not is_pe(u, 3, cfg.rtol)[0])

    L, a, b = red["L"], red["a"], np.asarray(red["b"])
    pt = adversary.sample_system_cloud(u, L, [[a, 1.0]], rtol=cfg.rtol).points[0]
    zeta_star = float(b @ pt.b / (pt.b @ pt.b))  # pt.b is the family direction at zeta = 1
    b_star, x0_star = zeta_star * pt.b, zeta_star * pt.x0
    dev_b = float(np.abs(b_star - b).max())
    dev_x0 = abs(x0_star - red["x0"])
    check("red-dot system lies on the constructive family (1.5e-4)",
          dev_b <= 1.5e-4 and dev_x0 <= 1.5e-4, f"dev b {dev_b:.2e}, dev x0 {dev_x0:.2e}")

    def state_rank(b_, x0, rtol):
        x = simulate(StateSpaceSystem.from_state_pair([[a]], b_), [x0], u).x
        return flemma.check_rank_condition(u, x.window(0, u.length - L + 1), L, 1, rtol).rank

    rank = state_rank(b_star, x0_star, cfg.rtol)
    check("family member yields stacked rank 4 at rtol", rank == 4, f"rank={rank}")
    rank = state_rank(b, red["x0"], 1e-4)  # printed values carry 4 decimals
    check("printed triple yields rank 4 at print-resolution tolerance", rank == 4,
          f"rank={rank}")


def cmd_repro(args, cfg: RunConfig) -> int:
    failed = []

    def check(label, ok, detail=""):
        failed.extend([] if ok else [label])
        suffix = f"  ({detail})" if detail else ""
        sys.stdout.write(f"{'PASS' if ok else 'FAIL'}  {args.example}: {label}{suffix}\n")

    {"ex1": _repro_ex1, "ex2": _repro_ex2, "ex3": _repro_ex3}[args.example](cfg, check)
    return EXIT_FALSE if failed else EXIT_OK


# ---------------------------------------------------------------------------
# parser


@functools.cache  # one parser per process: parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--rtol", type=float, default=RTOL,
                        help="relative rank tolerance (default %(default)g)")
    common.add_argument("--tol-cert", dest="tol_cert", type=float, default=TOL_CERT,
                        help="certificate residual budget (default %(default)g)")
    common.add_argument("--seed", type=int, default=SEED,
                        help="seed of the random draws of cloud and repro "
                             "(default %(default)d)")

    parser = argparse.ArgumentParser(
        prog="peu",
        description="Excitation orders, fundamental-lemma checks and "
                    "counterexample construction for finite input signals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("pe", help="excitation order report for a signal")
    p.add_argument("signal")
    p.add_argument("--order", type=int, default=None, help="check one order only")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_pe)

    p = add_parser("simulate", help="simulate a system on an input signal")
    p.add_argument("system")
    p.add_argument("signal")
    p.add_argument("--x0", default=None, help="comma-separated initial state (default 0)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = add_parser("check", help="behavior-equality check for recorded data")
    p.add_argument("system")
    p.add_argument("data")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_check)

    p = add_parser("universal", help="universality verdict for an input")
    p.add_argument("signal")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_universal)

    p = add_parser("counterexample", help="construct a counterexample bundle")
    p.add_argument("signal")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--L", type=int, required=True,
                   help="depth L; 0 certifies the state rank of x(0..T)")
    p.add_argument("--override-eta", default=None, help="JSON file with a kernel vector")
    p.add_argument("--override-A", default=None, help="JSON file with the A matrix")
    p.add_argument("--override-zeta", default=None, help="JSON file with the zeta vector")
    p.add_argument("--out", default=".", help="output directory (default .)")
    p.set_defaults(func=cmd_counterexample)

    p = add_parser("cloud", help="sample scalar-state counterexample systems")
    p.add_argument("signal")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--ranges", default="-1,1,-1,1",
                   help="amin,amax,zmin,zmax (default %(default)s)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_cloud)

    p = add_parser("repro", help="reproduce a packaged reference example")
    p.add_argument("example", choices=("ex1", "ex2", "ex3"))
    p.set_defaults(func=cmd_repro)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, RunConfig(rtol=args.rtol, tol_cert=args.tol_cert, seed=args.seed))
    except (ValidationError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except ConstructionError as exc:
        sys.stderr.write(f"construction failed: {exc}\n")
        return EXIT_CONSTRUCTION


if __name__ == "__main__":
    sys.exit(main())

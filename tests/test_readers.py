"""The CSV readers against the cell-by-cell reading oracle.

``read_signal_csv`` and ``read_trajectory_csv`` read every table through
one ``np.loadtxt`` call, and read a table cell by cell only where numpy
refuses it or may read it otherwise than ``float``. The oracle is the
readers as they were before: ``csv.reader`` rows and one ``float`` call
per cell. A table the oracle accepts must read to the same float64 bits,
and a table it refuses must be refused with its message. The one
deliberate difference is a trajectory row that is not as wide as its
header, which the oracle read silently and the reader refuses.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from peu import ValidationError
from peu.cli import EXIT_INPUT, main, read_signal_csv, read_trajectory_csv

from oracles import read_signal_csv_by_cell, read_trajectory_csv_by_cell

READERS = {"signal": (read_signal_csv, read_signal_csv_by_cell),
           "trajectory": (read_trajectory_csv, read_trajectory_csv_by_cell)}

# -0.0, subnormals, the extremes of float64, integers and decimals that round
_VALUES = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e308, -1e308,
     1.7976931348623157e308, 1e16, 2.0**53 + 2, 0.1, 3.0, -7.0]) | st.integers(-10**20, 10**20)
_PADS = st.sampled_from(["", "", " ", "\t", "  ", " \t"])
_COMMENTS = st.sampled_from(["# peu-config: rtol=1e-09 tol_cert=1e-07 seed=0", "#",
                             "  # note, a comma", "\t#x", '"# quoted, comment",1', '" #x"'])
_ENDS = st.sampled_from(["\n", "\r\n", "\r"])
_DEFECTS = ["none", "none", "none", "non-numeric", "ragged", "partial", "header", "header-only",
            "empty"]


@st.composite
def cell_texts(draw, value, decorate):
    """``value`` as a cell: its repr or digits, or with ``decorate`` a long decimal or
    digits with underscores, padded or quoted."""
    if not decorate:
        return str(value) if isinstance(value, int) else repr(value)
    if isinstance(value, int):
        text = draw(st.sampled_from([str(value), f"{float(value)!r}", f"{value:_}"]))
    else:
        text = draw(st.sampled_from([repr(value), f"{value:.25g}", f"{value:.17e}"]))
    left, right = draw(_PADS), draw(_PADS)
    if draw(st.booleans()):  # a quote opens a cell only at its first character
        return f'"{left}{text}{right}"' + draw(_PADS)
    return left + text + right


@st.composite
def tables(draw):
    """(kind, text, defect): a signal or trajectory table as a file's text, and the one
    fault put in it."""
    kind = draw(st.sampled_from(sorted(READERS)))
    defect = draw(st.sampled_from(_DEFECTS))
    decorate = draw(st.booleans())
    T = draw(st.integers(1, 6))
    if kind == "signal":
        names = [f"u{j + 1}" for j in range(draw(st.integers(1, 3)))]
    else:
        dims = {"u": draw(st.integers(1, 2)), "x": draw(st.integers(2, 3)),
                "y": draw(st.integers(1, 2))}
        names = [f"{key}{j + 1}" for key, d in dims.items() for j in range(d)]
    odd = st.integers(0, 15).map(lambda k: decorate and k == 0)  # a rare cell in a table
    rows = []
    for t in range(T + (kind == "trajectory")):
        t_cell = draw(st.sampled_from(["t?", f" {t} "])) if draw(odd) else str(t)
        rows.append([t_cell] + [draw(cell_texts(draw(_VALUES), decorate)) for _ in names])
    filled = [(i, j) for i in range(len(rows)) for j in range(1, len(names) + 1)]
    if kind == "trajectory":  # the last row holds only the state; a group may be empty in a row
        blank = [(T, j) for j, name in enumerate(names, start=1) if name[0] != "x"]
        if draw(st.booleans()):
            i, key = draw(st.integers(0, T - 1)), draw(st.sampled_from("uxy"))
            blank += [(i, j) for j, name in enumerate(names, start=1) if name[0] == key]
        for i, j in blank:
            rows[i][j] = draw(st.sampled_from([" ", '""'])) if draw(odd) else ""
        filled = [cell for cell in filled if cell not in blank]
    if defect == "none" and draw(odd):  # non-finite, or a cell only one parser accepts
        i, j = draw(st.sampled_from(filled))
        rows[i][j] = draw(st.sampled_from(["nan", "-NaN", "inf", "-Infinity", "1_000",
                                           "\u0661\u0662", "\x1c1", "1.5\x1f"]))
    header = ["t", *names]
    if defect == "non-numeric":  # in a cell of a filled row: an empty one would be partial
        i, j = draw(st.sampled_from(filled))
        rows[i][j] = draw(st.sampled_from(["abc", "1.5x", " - 1", "0x10", '"1,5"', ' "1"', "1 2",
                                           "nan(1)"] + ([""] if kind == "signal" else [])))
    elif defect == "ragged":
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = rows[i] + ["1.0"] if draw(st.booleans()) else rows[i][:-1]
    elif defect == "partial" and kind == "trajectory":  # x has two cells or more
        i = draw(st.sampled_from([i for i, j in filled if names[j - 1] == "x1"]))
        rows[i][1 + names.index("x1")] = " "
    elif defect == "partial":  # a signal has no groups: an empty cell
        i, j = draw(st.sampled_from(filled))
        rows[i][j] = ""
    elif defect == "header":
        header = draw(st.sampled_from(
            [["s", *names], ["t"]] if kind == "signal" else
            [["s", *names], [" t", *names[:-1], "z1"], ["t", *names[:-1], "u"], ["t", "x"]]))
    elif defect in ("header-only", "empty"):
        rows = []
    lines = [",".join(row) for row in rows]
    if defect != "empty":
        lines.insert(0, ",".join(draw(_PADS) + name + draw(_PADS) for name in header))
    for _ in range(draw(st.integers(0, 3))):  # comment and blank rows anywhere
        lines.insert(draw(st.integers(0, len(lines))), draw(_COMMENTS | st.just("")))
    return kind, "".join(line + draw(_ENDS) for line in lines), defect


def _read(reader, path):
    """What ``reader`` returns for ``path`` as float64 bits, or the refusal it raises."""
    try:
        result = reader(path)
    except ValidationError as exc:
        return exc
    signals = result if isinstance(result, dict) else {"u": result}
    return {key: v.samples.view(np.uint64).tolist() for key, v in signals.items()}


@pytest.fixture(scope="module")
def table_path(tmp_path_factory):
    return tmp_path_factory.mktemp("tables") / "table.csv"


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(table=tables())
@example(table=("trajectory", "t,u1,x1,y1\n0,1,2,3\n1,,4,\n", "none"))
@example(table=("signal", '# c,"\nt,u1\n0,1\n', "none"))  # the quote runs on
@example(table=("signal", 't,"u1\n",u2\n0,1,2\n', "none"))  # a header cell spans lines
@example(table=("signal", 't,u1\n0,"1\n"\n1,"\n2"\n', "none"))
@example(table=("trajectory", "t,u1,u2,x1,y1\n0,nan,,1,2\n1,2,3,4,5\n", "none"))
def test_reads_as_the_cell_by_cell_oracle(table_path, table):
    kind, text, defect = table
    table_path.write_bytes(text.encode())
    reader, oracle = READERS[kind]
    got, expected = _read(reader, str(table_path)), _read(oracle, str(table_path))
    if (kind, defect) == ("trajectory", "ragged"):  # the oracle read it silently, or misaligned
        assert isinstance(got, ValidationError) and "cells, expected" in str(got), (text, got)
        return
    if defect not in ("none", "header-only") or kind == "signal" and defect == "header-only":
        assert isinstance(expected, ValidationError), (text, expected)
    if isinstance(expected, ValidationError):
        assert isinstance(got, ValidationError) and str(expected) in str(got), (text, got)
    else:
        assert got == expected, text


@pytest.mark.parametrize("row, cells", [("0,1,2,3,99", 5), ("0,1,2", 3)])
def test_ragged_trajectory_row_is_refused(tmp_path, capsys, row, cells):
    # the oracle read 0,1,2,3,99 as u = 1, x = 2, y = 3, and 0,1,2 as a sample missing from y
    data = tmp_path / "data.csv"
    data.write_text(f"t,u1,x1,y1\n{row}\n1,4,5,6\n2,,7,\n")
    message = f"{data}: row has {cells} cells, expected 4"
    with pytest.raises(ValidationError, match="row has"):
        read_trajectory_csv(str(data))
    system = tmp_path / "sys.json"
    system.write_text('{"A": [[0.5]], "B": [[1]], "C": [[1]], "D": [[0]]}')
    assert main(["check", str(system), str(data), "--L", "1"]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cells_only_float_reads(tmp_path):
    # numpy refuses 1_000 and Arabic-Indic digits, which float reads; it strips \x1c around
    # a number, which float refuses in a signal cell but a trajectory cell had stripped
    p = tmp_path / "u.csv"
    p.write_text("t,u1,u2\n0,1_000,\u0661\u0662\n1,2.5,-0.0\n")
    assert read_signal_csv(str(p)).samples.tolist() == [[1000.0, 12.0], [2.5, -0.0]]
    p.write_text("t,u1\n0,\x1c1\n")
    with pytest.raises(ValidationError, match=r"non-numeric cell: could not convert string "
                                              r"to float: '\\x1c1'"):
        read_signal_csv(str(p))
    p.write_text("t,u1,x1,y1\n0,\x1c1,2,3\n1,,4,\n")
    assert read_trajectory_csv(str(p))["u"].samples.tolist() == [[1.0]]

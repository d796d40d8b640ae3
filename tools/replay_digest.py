"""Replay every benchmark operation of one seed and print one digest line per operation.

    python3 tools/replay_digest.py --seed N --out DIR

Builds the pools of the three workloads of ``bench/workloads.py`` from the
seed (inputs under ``DIR/<workload>/in``) and runs each item's operation
once, each into its own directory ``DIR/<workload>/<i>``. For each
operation it prints the workload, the item key, the result values (exit
codes, scalars, and the sha1 of any larger value), the sha1 of each file
the operation wrote, and its stdout and stderr text.

Run it in two checkouts with the same ``--out`` (paths reach some outputs)
and diff the two outputs: no difference means every written file, result
value, exit code, stdout and stderr text is byte-identical. ``peu`` is
imported from the checkout's ``src/`` and ``bench/`` is only read.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shutil
import sys
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def sha1(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()


def file_digests(outdir):
    """{relative path: sha1} of every file under ``outdir``."""
    out = {}
    for path in sorted(Path(outdir).rglob("*")):
        if path.is_file():
            out[str(path.relative_to(outdir))] = sha1(path.read_bytes())
    return out


def result_values(result):
    """The operation's result without its file list; lists and dicts as a sha1."""
    values = {}
    for key, value in sorted(result.items()):
        if key == "files":
            continue
        if isinstance(value, (dict, list, tuple)):
            value = "sha1:" + sha1(json.dumps(value, sort_keys=True).encode())
        values[key] = value
    return values


def replay(workload, items, base):
    """Run each item's operation in its own directory; yield one digest line each."""
    for i, item in enumerate(items):
        outdir = base / str(i)
        shutil.rmtree(outdir, ignore_errors=True)
        os.makedirs(outdir)
        sink_out, sink_err = io.StringIO(), io.StringIO()
        with redirect_stdout(sink_out), redirect_stderr(sink_err):
            try:
                values = result_values(workload.op(item, str(outdir), nullcontext))
            except (Exception, SystemExit) as exc:
                values = {"exception": "".join(
                    traceback.format_exception_only(type(exc), exc)).strip()}
        yield json.dumps({"workload": workload.name, "item": item["key"], "result": values,
                          "files": file_digests(outdir), "stdout": sink_out.getvalue(),
                          "stderr": sink_err.getvalue()}, sort_keys=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="work directory, emptied first")
    args = parser.parse_args(argv)

    sys.dont_write_bytecode = True  # leave bench/ as it is
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import numpy as np
    import workloads

    out = Path(args.out).resolve()
    shutil.rmtree(out, ignore_errors=True)
    for name, cls in workloads.WORKLOADS.items():
        workload = cls()
        indir = out / name / "in"
        os.makedirs(indir)
        items = workload.build(np.random.default_rng(args.seed), str(indir))
        for line in replay(workload, items, out / name):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    for var in BLAS_ENV:
        os.environ[var] = "1"
    sys.exit(main())

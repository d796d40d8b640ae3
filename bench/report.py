"""Run every workload of BENCHMARK.json and print each metric by name with its unit.

    python3 bench/report.py [--seed N] [--trace 0|1]
    python3 bench/report.py --smoke

The first form runs the benchmark command once per workload for
BENCHMARK.json's ``run_seconds``, as the benchmark is meant to be run,
and prints one line per metric. ``--smoke``
is the benchmark's smoke test: every workload at tiny size, untraced and
traced, plus a run in a copy that holds only BENCHMARK.json and the
benchmark's files, which must fail without printing a result.

Either form checks each result line against BENCHMARK.json (exact keys,
every metric name and unit, finite values, ``correct`` true) and exits 1
on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(spec, cwd, workload, seed, seconds, trace, tiny):
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        argv.append("--tiny")
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=900)


def result_problems(spec, proc, trace):
    """(problems, parsed result or None) for one run of the benchmark command."""
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"], None
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        return [f"last line is not a JSON result: {exc}"], None
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append(f"correct is {result.get('correct')}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    for name in sorted(set(expected) ^ set(metrics)):
        where = "missing" if name in expected else "not in BENCHMARK.json"
        problems.append(f"metric {name} {where}")
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            problems.append(f"{name}: unit {m.get('unit')} != {unit}")
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{name}: value {m.get('value')!r}")
    return problems, result


def report(spec, workload, proc, trace):
    problems, result = result_problems(spec, proc, trace)
    if result is not None:
        print(f"{workload}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        for name, m in result["metrics"].items():
            print(f"  {workload:8s} {name:48s} {m['value']:>16.6g} {m['unit']}")
    for p in problems:
        print(f"  {workload}: PROBLEM {p}")
    return not problems


def bare_copy_fails(spec, workload):
    """The benchmark must refuse to run in a directory without the program."""
    bare = ROOT / "bench" / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = run(spec, bare, workload, 1, 1, 0, True)
    shutil.rmtree(bare)
    refused = proc.returncode != 0 and not proc.stdout.strip()
    print(f"bare copy: exit code {proc.returncode}, "
          f"{'refused as required' if refused else 'PROBLEM: did not refuse'}")
    return refused


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    ok = True
    if args.smoke:
        for trace in (0, 1):
            for w in workloads:
                ok &= report(spec, w, run(spec, ROOT, w, args.seed, 1, trace, True), trace)
        ok &= bare_copy_fails(spec, workloads[0])
    else:
        for w in workloads:
            ok &= report(spec, w, run(spec, ROOT, w, args.seed, spec["run_seconds"], args.trace,
                                      False), args.trace)
    print("OK" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

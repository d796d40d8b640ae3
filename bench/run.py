"""peu benchmark: one workload, one closed-loop client, checked outputs.

    python3 bench/run.py --workload {record,certify,cloud} --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; ``peu`` is imported from the
checkout's ``src/`` and the run exits 2 without a result when it is not
there. Inputs are generated from ``--seed`` and written as files under
``bench/_work/``; ``peu`` sees only those files. Operations run one after
another (the next starts when the last returns), in whole passes over the
workload's pool. The number of passes is ``--seconds`` divided by the
workload's nominal pass time (at least its minimum number of passes), not
read off the clock, so a run lasts about ``--seconds`` on the reference
host and two runs of one seed attempt, and fail, exactly the same
operations. Every operation's output is checked outside the timed region.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of BENCHMARK.json. A traced run runs every operation twice in a
row, untraced and then traced, and reports the time difference as the
tracing overhead; its spans go to ``bench/_work/trace-<workload>.jsonl``.

Times are CPU seconds of this process (``time.process_time``). The process
is single-threaded (one BLAS thread), so that is the wall time of the work
without the time a shared machine's hypervisor gives to other guests, which
on a shared 2-vCPU machine reached 30-60% of a CPU and made wall-clock
figures drift by 20-35% between runs. Wall-clock figures are kept in the
details line. End-to-end metrics:

- ``ops_per_s``: operations divided by the seconds spent inside them,
  less the benchmark's own work inside an operation (``certify`` rebuilds
  the certificate object from its JSON before ``peu.extend_to_output``).
- ``latency_p50_ms``: median time of one operation.
- ``latency_tail_ms``: the workload's fixed tail percentile, the highest
  that leaves ten samples beyond it in the shortest allowed run.
- ``success_frac``: 1 - failed / attempted. An operation fails on an
  exception, an unexpected exit code, a wrong verdict or an output that
  fails the benchmark's own re-check.
- ``setup_s``: time from process start to the end of imports, plus the
  median of three set-ups (generate and write the inputs, run every verb
  once).
- ``peak_rss_mb``: peak resident memory of the process.

Per-layer metrics are averages per traced operation: ``<layer>.self_s``
(span time minus child spans), ``<layer>.calls``, and the counts
``signals.pe_order.orders_scanned`` (Hankel ranks per scan: rank_report
spans whose parent is a pe_order span),
``numkit.rank_report.matrix_cells`` (rows * cols), ``lti.simulate.steps``,
``lti.is_controllable.rejects``, ``adversary.construct_certificate.failed``
and ``.useful_ratio`` (certificates returned / calls),
``adversary.sample_system_cloud.points``, ``cli.bytes_written`` (bytes of
output files) and ``trace.overhead_frac``.

``correct`` is false when any failure is not one of the workload's
``known_causes`` (the defects the program is known to have, each limited
to the items where it occurs), or when a traced run's spans do not nest.
The last line of standard output is the result object; the line before
it (``details: {...}``) records the environment, the failure breakdown by
cause and item, and the tail percentile with its sample count.
"""

import argparse
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from spans import TRACED, UNTIMED, Tracer, clock

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / "_work"
BLAS_THREADS = 1  # at most nproc; on 2 vCPUs one thread ran these sizes faster than two
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("record", "certify", "cloud"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few small items, one pass: for the smoke test only")
    return parser.parse_args(argv)


def import_peu():
    """Import ``peu`` from this checkout's sources; an error message when that fails."""
    src = ROOT / "src"
    if not (src / "peu" / "__init__.py").is_file():
        return f"no peu sources at {src}"
    sys.path.insert(0, str(src))
    import peu
    if Path(peu.__file__).resolve().parent != (src / "peu").resolve():
        return f"imported peu from {peu.__file__}, not from {src}"
    return None


def blas_threads_in_use():
    """OpenBLAS's own thread count, read through its C API; None when not found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(nproc):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    threads = blas_threads_in_use()
    return {
        "nproc": nproc,
        "blas_threads": BLAS_THREADS if threads is None else threads,
        "blas_threads_source": "environment" if threads is None else "openblas",
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


class Runner:
    """Runs operations of one workload, checks them, and keeps the samples."""

    def __init__(self, workload, items, outdir, tracer=None):
        self.workload = workload
        self.items = items
        self.outdir = outdir
        self.tracer = tracer
        self.latencies = []       # CPU seconds, one per operation
        self.wall = []            # wall seconds, one per operation
        self.failures = []        # (cause, item key, detail, known)
        self.bytes_written = 0
        self.failed_ops = 0
        self._excluded = [0.0, 0.0]  # CPU and wall seconds of untimed work in this operation

    @contextmanager
    def untimed(self):
        """Benchmark work inside an operation, left out of the operation's time."""
        started, wall_started = clock(), perf_counter()
        try:
            with self.tracer.span(UNTIMED) if self.tracer else nullcontext():
                yield
        finally:
            self._excluded[0] += clock() - started
            self._excluded[1] += perf_counter() - wall_started

    def run_one(self, item):
        shutil.rmtree(self.outdir, ignore_errors=True)
        os.makedirs(self.outdir)
        sink_out, sink_err = io.StringIO(), io.StringIO()
        result = None
        self._excluded = [0.0, 0.0]
        with redirect_stdout(sink_out), redirect_stderr(sink_err):
            wall_started, started = perf_counter(), clock()
            try:
                if self.tracer is None:
                    result = self.workload.op(item, self.outdir, self.untimed)
                else:
                    result = self.tracer.run_op(
                        len(self.latencies),
                        lambda: self.workload.op(item, self.outdir, self.untimed))
            except (Exception, SystemExit) as exc:  # a failed operation, not a crashed run
                problems = [(f"exception.{type(exc).__name__}",
                             traceback.format_exc(limit=-3).strip())]
            elapsed = clock() - started - self._excluded[0]
            wall = perf_counter() - wall_started - self._excluded[1]
        if result is not None:
            try:
                problems = self.workload.check(item, result)
            except Exception:
                problems = [("check_error", traceback.format_exc(limit=-3).strip())]
        for entry in os.scandir(self.outdir):
            self.bytes_written += entry.stat().st_size
        self.latencies.append(elapsed)
        self.wall.append(wall)
        self.failed_ops += bool(problems)
        self.failures += [(cause, item["key"], detail, self.workload.known(cause, item, detail))
                          for cause, detail in problems]

    def run_pass(self):
        for item in self.items:
            self.run_one(item)


def paired_pass(plain, traced, tracer):
    """Each item untraced, then at once traced, so both see the same machine state."""
    def run_pass():
        for item in plain.items:
            plain.run_one(item)
            tracer.install()
            try:
                traced.run_one(item)
            finally:
                tracer.uninstall()
    return run_pass


def breakdown(failures):
    """{cause: {"count": k, "items": {item key: count}}} over failed checks."""
    out = {}
    for cause, key, _, _ in failures:
        entry = out.setdefault(cause, {"count": 0, "items": {}})
        entry["count"] += 1
        entry["items"][key] = entry["items"].get(key, 0) + 1
    return out


def unknown_failures(failures):
    seen = {}
    for cause, key, detail, known in failures:
        if not known:
            seen.setdefault(cause, f"{key}: {detail}")
    return seen


def setup(workload, rng, indir, outdir):
    """Generate and write the inputs, then warm up every verb once; returns items."""
    shutil.rmtree(indir, ignore_errors=True)
    os.makedirs(indir)
    items = workload.build(rng, str(indir))
    warm = Runner(workload, [items[i] for i in workload.warm_items], str(outdir))
    warm.run_pass()
    return items


def per_layer_metrics(tracer, self_s, ops, overhead):
    calls, raised, counts = tracer.calls, tracer.raised, tracer.counts
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": float(value), "unit": unit}

    for module, fn in TRACED:
        put(f"{module}.{fn}.self_s", self_s.get(f"{module}.{fn}", 0.0) / ops, "s")
    for name in ("signals.pe_order", "numkit.rank_report", "flemma.check_behavior_equality",
                 "lti.is_controllable", "adversary.construct_certificate"):
        put(f"{name}.calls", calls[name] / ops, "count")
    scans = calls["signals.pe_order"]
    ranks = tracer.children("signals.pe_order", "numkit.rank_report")
    put("signals.pe_order.orders_scanned", ranks / scans if scans else 0.0, "count")
    for key in ("numkit.rank_report.matrix_cells", "lti.simulate.steps",
                "lti.is_controllable.rejects", "adversary.sample_system_cloud.points"):
        put(key, counts[key] / ops, "count")
    built = calls["adversary.construct_certificate"]
    failed = raised["adversary.construct_certificate"]
    put("adversary.construct_certificate.failed", failed / ops, "count")
    put("adversary.construct_certificate.useful_ratio",
        (built - failed) / built if built else 0.0, "ratio")
    put("cli.bytes_written", counts["cli.bytes_written"] / ops, "bytes")
    put("trace.overhead_frac", overhead, "ratio")
    return metrics


def main(argv=None):
    args = parse_args(argv)
    error = import_peu()
    if error:
        sys.stderr.write(f"error: {error}\n")
        return 2
    import numpy as np

    import workloads

    import_s = clock()  # CPU seconds since process start
    workload = workloads.WORKLOADS[args.workload](tiny=args.tiny)
    base = WORK_DIR / args.workload
    indir, outdir = base / "in", str(base / "out")

    reps = []
    for _ in range(1 if args.tiny else SETUP_REPS):
        t0 = clock()
        items = setup(workload, np.random.default_rng(args.seed), indir, outdir)
        reps.append(clock() - t0)
    passes = 1 if args.tiny else workload.passes(args.seconds, traced=bool(args.trace))

    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "client": "closed loop, 1 client", "pool_size": len(items),
               "setup": {"import_s": import_s, "generate_and_warm_s": reps}}
    plain = Runner(workload, items, outdir)
    if args.trace:
        tracer = Tracer()
        traced = Runner(workload, items, outdir, tracer)
        run_pass = paired_pass(plain, traced, tracer)
        for _ in range(passes):
            run_pass()
        tracer.counts["cli.bytes_written"] = traced.bytes_written
        runs = [plain, traced]
        ops = len(traced.latencies)
        overhead = sum(traced.latencies) / sum(plain.latencies) - 1.0
        self_s, gap, nesting_errors = tracer.self_times()
        metrics = per_layer_metrics(tracer, self_s, ops, overhead)
        trace_path = WORK_DIR / f"trace-{args.workload}.jsonl"
        tracer.write(trace_path)
        details["trace"] = {"file": str(trace_path.relative_to(ROOT)), "spans": len(tracer.spans),
                            "overhead_frac": overhead, "self_time_sum_gap_s": gap,
                            "nesting_errors": nesting_errors, "not_found": tracer.missing}
        trace_ok = gap <= 1e-6 and nesting_errors == 0 and not tracer.missing
    else:
        for _ in range(passes):
            plain.run_pass()
        runs = [plain]
        lat = np.array(plain.latencies)
        q = workload.tail_quantile(len(items))
        metrics = {
            "ops_per_s": {"value": len(lat) / float(lat.sum()), "unit": "1/s"},
            "latency_p50_ms": {"value": 1e3 * float(np.median(lat)), "unit": "ms"},
            "latency_tail_ms": {"value": 1e3 * float(np.quantile(lat, q, method="inverted_cdf")),
                                "unit": "ms"},
            "success_frac": {"value": 1.0 - plain.failed_ops / len(lat), "unit": "ratio"},
            "setup_s": {"value": import_s + statistics.median(reps), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
        details["latency_tail"] = {"percentile": round(100 * q, 2), "samples": len(lat),
                                   "beyond": int(len(lat) - np.ceil(q * len(lat)))}
        wall = np.array(plain.wall)
        details["wall_clock"] = {"ops_per_s": len(wall) / float(wall.sum()),
                                 "latency_p50_ms": 1e3 * float(np.median(wall)),
                                 "cpu_share": float(lat.sum() / wall.sum())}
        trace_ok = True

    attempted = sum(len(r.latencies) for r in runs)
    failed = sum(r.failed_ops for r in runs)
    failures = [f for r in runs for f in r.failures]
    unknown = unknown_failures(failures)
    details.update({"passes": passes, "failures": breakdown(failures),
                    "unknown_failures": unknown, "env": environment(len(os.sched_getaffinity(0)))})
    print("details: " + json.dumps(details, sort_keys=True))
    print(json.dumps({"correct": not unknown and trace_ok, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("PEU_SEED", None)
    sys.exit(main())

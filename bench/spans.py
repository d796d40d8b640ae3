"""Spans around ``peu``'s public layer functions, recorded from outside ``peu``.

``Tracer.install`` replaces each traced function by a timing wrapper in
every ``peu`` module that binds it (the defining module, importers'
namespaces and the package itself), so calls between ``peu`` modules are
traced too; ``uninstall`` puts the originals back. Untraced runs never
install anything, so they carry no wrapper cost.

A span is (name, start, end, parent span, operation id). Spans stay in
memory during the run and are written once it ends. A layer's self time
is its span time minus the time of its direct child spans; within one
operation the self times add up to the operation's own span.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import process_time

clock = process_time  # the benchmark's one clock; see bench/run.py

OP = "bench.op"
UNTIMED = "bench.untimed"  # the benchmark's own work inside an operation


def _count(key, measure):
    def counter(counts, result):
        counts[key] += measure(result)
    return counter


# (module, function) -> counter fed with each returned result, or None
TRACED = {
    ("signals", "pe_order"): None,
    ("signals", "hankel"): None,
    ("signals", "is_pe"): None,
    ("numkit", "rank_report"): _count("numkit.rank_report.matrix_cells",
                                      lambda r: r.shape[0] * r.shape[1]),
    ("numkit", "lambda_set"): None,
    ("numkit", "kernel_basis"): None,
    ("flemma", "check_behavior_equality"): None,
    ("flemma", "universality_verdict"): None,
    ("lti", "simulate"): _count("lti.simulate.steps", lambda r: r.u.length),
    ("lti", "is_controllable"): _count("lti.is_controllable.rejects", lambda r: not r[0]),
    ("adversary", "construct_certificate"): None,
    ("adversary", "extend_to_output"): None,
    ("adversary", "sample_system_cloud"): _count("adversary.sample_system_cloud.points",
                                                 lambda r: len(r.points)),
    ("cli", "main"): None,
}


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index or -1, op id]
        self._stack = []
        self.op_id = None
        self.calls = defaultdict(int)
        self.raised = defaultdict(int)
        self.counts = defaultdict(float)
        self._patched = []     # (module, attribute, original)
        self.missing = []

    def _wrap(self, name, fn, counter):
        spans, stack, calls, raised, counts = (
            self.spans, self._stack, self.calls, self.raised, self.counts)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op_id]
            stack.append(len(spans))
            spans.append(rec)
            calls[name] += 1
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[name] += 1
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, result)
            return result

        return wrapper

    def install(self):
        self.missing = []
        peu_modules = [m for key, m in sorted(sys.modules.items())
                       if m is not None and (key == "peu" or key.startswith("peu."))]
        for (mod, fn_name), counter in TRACED.items():
            name = f"{mod}.{fn_name}"
            original = getattr(sys.modules.get(f"peu.{mod}"), fn_name, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, counter)
            for module in peu_modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @contextmanager
    def span(self, name):
        """A span of the benchmark's own around the body of the ``with`` block."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = clock()
        try:
            yield
        finally:
            rec[2] = clock()
            self._stack.pop()

    def run_op(self, op_id, fn):
        """Run ``fn()`` as operation ``op_id`` under a root span and return its result."""
        self.op_id = op_id
        try:
            with self.span(OP):
                return fn()
        finally:
            self.op_id = None

    def children(self, parent_name, child_name):
        """Number of ``child_name`` spans opened directly inside a ``parent_name`` span."""
        spans = self.spans
        return sum(1 for name, _, _, parent, _ in spans
                   if name == child_name and parent >= 0 and spans[parent][0] == parent_name)

    def self_times(self):
        """(per-name self seconds, per-op self-time sum minus op span, nesting errors)."""
        child = [0.0] * len(self.spans)
        nesting_errors = 0
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                p = self.spans[parent]
                child[parent] += end - start
                if start < p[1] or end > p[2] or op != p[4]:
                    nesting_errors += 1
            elif name != OP:
                nesting_errors += 1  # every traced call must happen inside an operation
        by_name = defaultdict(float)
        op_sum = defaultdict(float)
        op_wall = {}
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            own = (end - start) - child[i]
            by_name[name] += own
            op_sum[op] += own
            if name == OP:
                op_wall[op] = end - start
        gap = max((abs(op_sum[op] - wall) for op, wall in op_wall.items()), default=0.0)
        return dict(by_name), gap, nesting_errors

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": None if parent < 0 else parent, "op": op}) + "\n")

"""The three workloads: seeded input pools, the timed operation, the output check.

Each workload builds a fixed-size pool of items from the seed. One pass
runs every item once, and a run is a fixed number of whole passes, set
by ``--seconds`` and not by the clock, so every run of a seed does the
same operations and fails on the same ones; a faster program does them
in less time. The sizes in a pool are a fixed design; the seed draws the
content (signals, amplitudes, systems, orders), so every seed costs
about the same.

``op`` is the timed part and talks to ``peu`` only through its command
line entry point and, for ``certify``, ``cli.read_signal_csv`` and
``peu.extend_to_output``; every input it hands over is a file written
during set-up. Work of the benchmark's own inside ``op`` runs under its
``untimed()`` context and is left out of the operation's time. ``check``
runs outside the timed region and returns (cause, detail) pairs, empty
when the operation's output is right.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np

import peu
from peu import cli

import inputs
import recheck


def _exit_problem(step, code, expected):
    if code == cli.EXIT_CONSTRUCTION:
        return ("construction_error", f"{step} exited {code}")
    return (f"{step}_exit_{code}", f"{step} exited {code}, expected {expected}")


class Workload:
    name = ""
    min_passes = 1
    # CPU seconds of one pass on the reference host (2-vCPU x86_64, OpenBLAS
    # 0.3.31 on one thread, numpy 2.4), at the seed program's speed
    nominal_pass_s = 1.0
    warm_items = (0,)
    # Failures the seed program is known to produce: cause -> (why, where), where
    # ``where(item, detail)`` holds on the items where the defect has been seen. The
    # same cause anywhere else, or any other cause, makes the run incorrect.
    known_causes = {}

    def __init__(self, tiny=False):
        self.tiny = tiny

    def known(self, cause, item, detail):
        entry = self.known_causes.get(cause)
        return entry is not None and entry[1](item, detail)

    def passes(self, seconds, traced=False):
        """Whole passes in a run of ``seconds`` at the nominal speed; a traced pass runs
        every item twice."""
        pass_s = self.nominal_pass_s * (2 if traced else 1)
        return max(1 if traced else self.min_passes, round(seconds / pass_s))

    def tail_quantile(self, pool_size):
        """Highest quantile leaving ten samples beyond it in the smallest run."""
        return max(0.5, 1.0 - 10.0 / (pool_size * self.min_passes))

    def build(self, rng, indir):
        raise NotImplementedError

    def op(self, item, outdir, untimed):
        raise NotImplementedError

    def check(self, item, result):
        raise NotImplementedError


class Record(Workload):
    """Long recordings: universality verdicts, PE listings, simulate + check."""

    name = "record"
    min_passes = 3
    nominal_pass_s = 9.3
    # (T, m, family, with a `peu pe` listing). T rises evenly from 200 to 500,
    # so operation costs spread smoothly and the median latency never sits in
    # a gap between size classes. Multisine and listing cells are fixed, so
    # every seed costs about the same.
    GRID = tuple((200 + round(300 * i / 11), 1 + i % 3,
                  "multisine" if i in (2, 6, 10) else "exciting", i in (0, 4, 8, 10))
                 for i in range(12))
    warm_items = (0, 2)
    known_causes = {
        # seen on 10 of 60 seeds, at T from 309 to 500, where 1.02**T is 450 to 2e4
        "check_false_negative": (
            "behavior equality is denied on exact data of a plant with spectral radius "
            "above 1, whose states grow over the horizon",
            lambda item, detail: item["rho"] ** item["T"] >= 100.0),
    }

    def build(self, rng, indir):
        grid = self.GRID[:3] if self.tiny else self.GRID
        items = []
        for i, (T, m, family, with_pe) in enumerate(grid):
            n, L = int(rng.integers(2, 7)), int(rng.integers(1, 5))
            amp = 10.0 ** rng.uniform(-3, 3)
            item = {"key": f"T={T},m={m},n={n},L={L}", "T": T, "m": m, "n": n, "L": L,
                    "pe": with_pe, "universal": family == "exciting",
                    "u_path": os.path.join(indir, f"u{i}.csv")}
            if family == "exciting":
                item["family"] = str(rng.choice(["gauss", "prbs"]))
                u = inputs.exciting_input(rng, item["family"], T, m, n + L)
                A, B, C, D = inputs.unstable_system(rng, n, m, p=2)
                item["sys_path"] = os.path.join(indir, f"sys{i}.json")
                inputs.write_system(item["sys_path"], A, B, C, D)
                x0 = amp * rng.standard_normal(n)
                item["x0"] = ",".join(repr(float(c)) for c in x0)
                item["rho"] = float(np.abs(np.linalg.eigvals(A)).max())
                item["y"] = _outputs(A, B, C, D, x0, amp * u)
            else:
                u, item["rank_bound"], item["family"] = inputs.non_exciting_input(rng, T, m, n + L)
            item["u"] = amp * u
            inputs.write_signal(item["u_path"], item["u"])
            items.append(item)
        return items

    def op(self, item, outdir, untimed):
        u, n, L = item["u_path"], str(item["n"]), str(item["L"])
        files = {step: os.path.join(outdir, name) for step, name in (
            ("universal", "universal.json"), ("pe", "pe.json"),
            ("simulate", "trajectory.csv"), ("check", "check.json"))}
        result = {"files": files,
                  "universal": cli.main(["universal", u, "--n", n, "--L", L,
                                         "--out", files["universal"]])}
        if item["pe"]:
            result["pe"] = cli.main(["pe", u, "--out", files["pe"]])
        if item["universal"]:
            result["simulate"] = cli.main(["simulate", item["sys_path"], u, f"--x0={item['x0']}",
                                           "--out", files["simulate"]])
            if result["simulate"] == cli.EXIT_OK:
                result["check"] = cli.main(["check", item["sys_path"], files["simulate"],
                                            "--L", L, "--out", files["check"]])
        return result

    def check(self, item, result):
        files = result["files"]
        expected = cli.EXIT_OK if item["universal"] else cli.EXIT_FALSE
        problems = []
        if result["universal"] != expected:
            problems.append(_exit_problem("universal", result["universal"], expected))
        else:
            with open(files["universal"]) as fh:
                payload = json.load(fh)
            if payload["universal"] is not item["universal"]:
                problems.append(("wrong_universal_verdict", str(payload["universal"])))
            elif not item["universal"]:
                problems += [("certificate_recheck", p)
                             for p in recheck.certificate_problems(payload["certificate"],
                                                                   item["u"])]
        if "pe" in result:
            problems += self._check_pe(item, result["pe"], files["pe"])
        if "simulate" in result:
            if result["simulate"] != cli.EXIT_OK:
                problems.append(_exit_problem("simulate", result["simulate"], cli.EXIT_OK))
            else:
                _, rows = recheck.read_table(files["simulate"])
                p = item["y"].shape[1]
                y = np.array([[float(c) for c in r[-p:]] for r in rows[:-1]])
                if np.abs(y - item["y"]).max() > 1e-9 * (1.0 + np.abs(item["y"]).max()):
                    problems.append(("simulate_output_mismatch", ""))
        if "check" in result and result["check"] != cli.EXIT_OK:
            if result["check"] == cli.EXIT_FALSE:
                problems.append(("check_false_negative", f"rho={item['rho']:.3f}"))
            else:
                problems.append(_exit_problem("check", result["check"], cli.EXIT_OK))
        return problems

    @staticmethod
    def _check_pe(item, code, path):
        if code != cli.EXIT_OK:
            return [_exit_problem("pe", code, cli.EXIT_OK)]
        with open(path) as fh:
            report = json.load(fh)
        T, m = item["T"], item["m"]
        if len(report["per_order"]) != (T + 1) // (m + 1):
            return [("pe_listing_length", str(len(report["per_order"])))]
        k = report["max_order"]
        if item["universal"] and k < item["n"] + item["L"]:
            return [("pe_order_too_low", f"max_order={k}")]
        if not item["universal"] and k * m > item["rank_bound"]:
            return [("pe_order_too_high", f"max_order={k}, rank bound {item['rank_bound']}")]
        return []


def _outputs(A, B, C, D, x0, u):
    x = recheck.simulate(A, B, x0, u, u.shape[0])
    return x[:-1] @ C.T + u @ D.T


class Certify(Workload):
    """Short non-exciting inputs: counterexample bundles lifted to output level."""

    name = "certify"
    nominal_pass_s = 8.4
    warm_items = (0, 1)
    known_causes = {
        # seen at m = 1 only, from n = 8 up, most often at n >= 23 (90 seeds)
        "construction_error": (
            "the construction rejects every eigenvalue candidate because the Kalman "
            "controllability test refuses controllable single-input Jordan pairs as n grows",
            lambda item, detail: item["m"] == 1 and item["n"] >= 6),
        # seen twice in 90 seeds, at n = 25 and n = 27 (both m = 2)
        "exception.LinAlgError": (
            "LAPACK's divide-and-conquer SVD does not converge on some multisine Hankel "
            "matrices, and the error escapes the command line",
            lambda item, detail: (item["n"] >= 20
                                  and detail.endswith("LinAlgError: SVD did not converge"))),
    }

    def build(self, rng, indir):
        cells = [(n, m, rep) for n in range(2, 31) for m in (1, 2, 3) for rep in (0, 1)]
        if self.tiny:
            cells = cells[:6]
        items = []
        for i, (n, m, rep) in enumerate(cells):
            L = 1 + (n + 2 * m + rep) % 4  # each n gets every L once or twice
            T = (n + L) * (m + 1) - 1 + int(rng.integers(1, 4))
            u, _, _ = inputs.non_exciting_input(rng, T, m, n + L)
            item = {"key": f"n={n},m={m},L={L}", "n": n, "m": m, "L": L, "u": u,
                    "u_path": os.path.join(indir, f"u{i}.csv")}
            inputs.write_signal(item["u_path"], u)
            items.append(item)
        return items

    def op(self, item, outdir, untimed):
        code = cli.main(["counterexample", item["u_path"], "--n", str(item["n"]),
                         "--L", str(item["L"]), "--out", outdir])
        result = {"files": [os.path.join(outdir, f) for f in
                            ("certificate.json", "system.json", "trajectory.csv")],
                  "counterexample": code}
        if code == cli.EXIT_OK:
            with untimed():
                with open(result["files"][0]) as fh:
                    result["certificate"] = json.load(fh)
                certificate = certificate_from_dict(result["certificate"])
            out = peu.extend_to_output(certificate, cli.read_signal_csv(item["u_path"]))
            result["separation"] = out.separation_value
            result["behavior_equal"] = out.behavior_check.behavior_equal
        return result

    def check(self, item, result):
        if result["counterexample"] != cli.EXIT_OK:
            return [_exit_problem("counterexample", result["counterexample"], cli.EXIT_OK)]
        problems = []
        if abs(result["separation"] - 1.0) > 1e-9:
            problems.append(("separation_not_one", repr(result["separation"])))
        if result["behavior_equal"]:
            problems.append(("behavior_equal_on_certified_data", ""))
        with open(result["files"][1]) as fh:
            system = json.load(fh)
        trajectory = recheck.read_trajectory(result["files"][2], item["m"], item["n"])
        problems += [("certificate_recheck", p) for p in
                     recheck.bundle_problems(result["certificate"], system, trajectory,
                                             item["u"])]
        return problems


def certificate_from_dict(d):
    """Rebuild a ``CounterexampleCertificate`` from the JSON ``peu counterexample`` writes."""
    def array(v):
        return None if v is None else np.asarray(v, dtype=float)

    special = {
        "lam": lambda: None if d["lambda"] is None else peu.RootSet(
            roots=tuple(complex(re, im) for re, im in d["lambda"]["roots"]),
            cluster_radius=d["lambda"]["cluster_radius"]),
        "E": lambda: None if d["E"] is None else tuple(array(e) for e in d["E"]),
        "stacked_rank": lambda: peu.RankReport(**{
            **d["stacked_rank"],
            "singular_values": tuple(d["stacked_rank"]["singular_values"]),
            "shape": tuple(d["stacked_rank"]["shape"])}),
    }
    kwargs = {}
    for field in dataclasses.fields(peu.CounterexampleCertificate):
        if field.name in special:
            kwargs[field.name] = special[field.name]()
        else:
            value = d.get(field.name)
            kwargs[field.name] = array(value) if isinstance(value, list) else value
    return peu.CounterexampleCertificate(**kwargs)


class Cloud(Workload):
    """`peu cloud` at its default 10^4 samples on short non-exciting inputs."""

    name = "cloud"
    min_passes = 3
    nominal_pass_s = 10.8
    CHECK_ROWS = 20

    def __init__(self, tiny=False):
        super().__init__(tiny)
        self.samples = 200 if tiny else 10000  # 10^4 is the command-line default

    def build(self, rng, indir):
        cells = [(m, L) for m in (1, 2, 3) for L in (1, 2, 3)]
        if self.tiny:
            cells = cells[:2]
        items = []
        for i, (m, L) in enumerate(cells):
            T = (L + 1) * (m + 1) + int(rng.integers(1, 4))
            u, _, family = inputs.non_exciting_input(rng, T, m, L + 1)
            item = {"key": f"m={m},L={L},{family}", "m": m, "L": L, "u": u,
                    "seed": int(rng.integers(2 ** 31)),
                    "u_path": os.path.join(indir, f"u{i}.csv")}
            inputs.write_signal(item["u_path"], u)
            items.append(item)
        return items

    def op(self, item, outdir, untimed):
        path = os.path.join(outdir, "cloud.csv")
        argv = ["cloud", item["u_path"], "--L", str(item["L"]), "--seed", str(item["seed"]),
                "--out", path]
        if self.tiny:
            argv += ["--samples", str(self.samples)]
        return {"files": [path], "cloud": cli.main(argv)}

    def check(self, item, result):
        if result["cloud"] != cli.EXIT_OK:
            return [_exit_problem("cloud", result["cloud"], cli.EXIT_OK)]
        return [("cloud_recheck", p) for p in recheck.cloud_problems(
            result["files"][0], item["u"], item["L"], self.samples, self.CHECK_ROWS)]


WORKLOADS = {w.name: w for w in (Record, Certify, Cloud)}

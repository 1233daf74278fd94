"""monowit benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload search|witness|orders|cli|all \
        --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed, then runs full passes over
them until ``--seconds`` have gone by and checks every op's result. With
``--trace 0`` the last stdout line holds the end-to-end metrics, their
times scaled to a fixed machine speed as ``speed.py`` describes; with
``--trace 1`` it holds the per-module metrics: kernel probes, untraced
passes, then two traced passes whose exact counts must agree. The line
before it is a report with the run context, error rate and latency tail
details. The exit code is 1 when any check failed, 2 on bad usage or
when the library under ``src/`` cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import probes  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MODULES = ("scalars", "orders", "laurent", "rings", "witness", "parsing",
           "suites", "cli")
SETUP_REPEATS = 5
TAIL_PERCENTILES = (99.9, 99.5, 99, 98, 95, 90, 85, 80, 75, 50)

# metric -> traced function whose self time it reports
SELF_TIMES = {
    "orders.compare_exponents.self_s": "orders.compare_exponents",
    "orders.classify.self_s": "orders.classify",
    "orders.inverse_scaled.self_s": "orders.inverse_scaled",
    "laurent.evaluate.self_s": "laurent.evaluate",
    "laurent.minimal_monomials.self_s": "laurent.minimal_monomials",
    "laurent.apply_monomial_map.self_s": "laurent.apply_monomial_map",
    "witness.v_pair.self_s": "witness.v_pair_witness",
    "witness.r_pair.self_s": "witness.r_pair_witness",
    "witness.w_pair.self_s": "witness.w_pair_witness",
    "witness.vdim.self_s": "witness.vdim_witness",
    "witness.overring.self_s": "witness.overring_lex_witness",
    "witness.homogenize.self_s": "witness.homogenize_witness",
    "witness.transport.self_s": "witness.transport_witness_to_lex",
    "witness.verify.self_s": "witness.verify_witness",
    "parsing.parse_element.self_s": "parsing.parse_element",
    "parsing.parse_poly.self_s": "parsing.parse_poly",
    "parsing.parse_matrix.self_s": "parsing.parse_matrix",
    "suites.run_suite.self_s": "suites.run_suite",
    "suites.render_report.self_s": "suites.render_report",
    "cli.main.self_s": "cli.main",
}
# exact call counts: metric -> traced function
CALLS = {
    "rings.monoid_mul.calls": "rings.MonoidRingElem.__mul__",
    "orders.compare_exponents.calls": "orders.compare_exponents",
    "laurent.evaluate.calls": "laurent.evaluate",
    "parsing.parse_element.calls": "parsing.parse_element",
    "parsing.parse_poly.calls": "parsing.parse_poly",
    "parsing.parse_matrix.calls": "parsing.parse_matrix",
}


class UsageError(Exception):
    pass


def load_library():
    """Import the monowit modules from the checkout's src/, afresh."""
    for name in [m for m in sys.modules if m == "monowit" or m.startswith("monowit.")]:
        del sys.modules[name]
    lib = SimpleNamespace(**{m: importlib.import_module(f"monowit.{m}") for m in MODULES})
    if Path(lib.scalars.__file__).resolve().parent.parent != SRC:
        raise UsageError(f"monowit imported from {lib.scalars.__file__}, not {SRC}")
    return lib


def setup(name, seed):
    """Import and input generation: (library, inputs, seconds taken)."""
    t0 = time.perf_counter()
    lib = load_library()
    inputs = workloads.WORKLOADS[name][0](lib, seed)
    return lib, inputs, time.perf_counter() - t0


def repeat_setup(name, seed):
    """Time one more set-up, then give the library the ops use back its
    place in sys.modules, so a lazy import inside it finds its own classes."""
    kept = {k: v for k, v in sys.modules.items()
            if k == "monowit" or k.startswith("monowit.")}
    seconds = setup(name, seed)[2]
    sys.modules.update(kept)
    gc.collect()                          # the discarded modules' cycles
    return seconds


def run_pass(ops, cal=None):
    """One closed-loop pass: latencies and raw results, checks not run.
    With a ``speed.Calibration``, also each op's scale factor, from
    reference times taken between ops every ``speed.SEGMENT_S``."""
    latencies, results, factors = [], [], []
    clock = time.perf_counter
    pending, segment = 0, 0.0
    for op in ops:
        t0 = clock()
        try:
            result = op.call()
        except Exception as ex:           # an unexpected exception fails the op
            result = ex
        latency = clock() - t0
        latencies.append(latency)
        results.append(result)
        if cal is not None:
            pending, segment = pending + 1, segment + latency
            if segment >= speed.SEGMENT_S:
                factors += cal.close_segment(pending)
                pending, segment = 0, 0.0
    if cal is not None and pending:
        factors += cal.close_segment(pending)
    return latencies, results, factors


def check_pass(ops, results):
    failures = []
    for op, result in zip(ops, results):
        if isinstance(result, Exception):
            reason = f"{type(result).__name__}: {result}"
        else:
            try:
                reason = op.check(result)
            except Exception as ex:
                reason = f"check raised {type(ex).__name__}: {ex}"
        if reason:
            failures.append(f"{op.label}: {reason}")
    return failures


class Runs:
    """Untraced passes until a time budget is spent. With ``calibrate``,
    reference times are taken as ``speed`` describes and the timings are
    scaled to the reference speed."""

    def __init__(self, ops, calibrate=False):
        self.ops = ops
        self.cal = speed.Calibration() if calibrate else None
        self.between_refs = [self.cal.refs[0]] if calibrate else []
        self.passes = []                  # per pass: op latencies
        self.factors = []                 # per pass: op scale factors
        self.failures = []
        self.blowup = (0, 0)              # (poly terms, coefficient terms) max

    def run(self, seconds, between=None):
        """Passes while the next one, as long as the last, still fits.
        ``between()`` runs after each pass, then the reference loop; they
        and the reference times within passes are outside the budget."""
        start = time.perf_counter()
        last = outside = 0.0
        while (not self.passes
               or time.perf_counter() - start - outside + last <= seconds):
            spent = self.cal.spent if self.cal else 0.0
            t0 = time.perf_counter()
            latencies, results, factors = run_pass(self.ops, self.cal)
            last = time.perf_counter() - t0
            if self.cal:
                last -= self.cal.spent - spent
                outside += self.cal.spent - spent
            self.passes.append(latencies)
            self.factors.append(factors)
            self.failures += check_pass(self.ops, results)
            for r in results:
                t = workloads.output_terms(r)
                if t:
                    self.blowup = tuple(map(max, self.blowup, t))
            t1 = time.perf_counter()
            if between is not None:
                between()
            if self.cal:
                self.between_refs.append(self.cal.take())
            outside += time.perf_counter() - t1

    @property
    def attempted(self):
        return len(self.ops) * len(self.passes)

    def timed(self, scaled=True):
        """Per pass: op latencies, scaled to the reference speed when the
        run was calibrated."""
        if not (scaled and self.cal):
            return self.passes
        return [[x * f for x, f in zip(p, fs)] for p, fs in zip(self.passes, self.factors)]

    def typical(self, scaled=True):
        """The typical pass: each op at its median latency over the passes."""
        return [statistics.median(lat) for lat in zip(*self.timed(scaled))]

    def wall_s(self, scaled=True):
        return sum(self.typical(scaled))

    def tail(self, scaled=True):
        """(percentile, value s, samples, samples beyond) over the typical
        pass: the highest listed percentile with at least 10 ops beyond it,
        or the slowest op when there are too few ops."""
        ops = sorted(self.typical(scaled))
        pct = next((p for p in TAIL_PERCENTILES if len(ops) * (1 - p / 100) >= 10), 100)
        value = ops[max(math.ceil(pct / 100 * len(ops)) - 1, 0)]
        return pct, value, len(ops), sum(x > value for x in ops)

    def end_to_end(self, setup_s, scaled=True):
        pct, tail, _, _ = self.tail(scaled)
        typical = self.typical(scaled)
        wall = sum(typical)
        return {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall, "s"),
            "ops_per_s": (len(self.ops) / wall, "1/s"),
            "op_p50_ms": (statistics.median(typical) * 1e3, "ms"),
            "op_tail_ms": (tail * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }


def traced_pass(lib, ops):
    """One pass under a fresh tracer; returns (tracer, latencies, results)."""
    tracer = tracing.Tracer(vars(lib)).install()
    try:
        latencies, results, _ = run_pass(ops)
    finally:
        tracer.remove()
    return tracer, latencies, results


def exact_counts(totals):
    """Call counts that must repeat exactly for the same inputs."""
    counts = {metric: totals[fn][0] for metric, fn in CALLS.items()}
    counts["scalars.quad_ops"] = sum(
        c for name, (c, _, _) in totals.items() if name.startswith("scalars.QuadScalar."))
    counts["scalars.ratfun_norms"] = (totals["scalars.RatFun1.__init__"][0]
                                      + totals["scalars.RatFun2.__init__"][0])
    return counts


def per_layer(name, lib, seed, seconds, ops, inputs, runs_report):
    """Per-module metrics: probes, untraced passes, two traced passes."""
    metrics = dict(probes.kernel_probes(lib, seed))
    runs = Runs(ops)
    runs.run(seconds / 2)
    tracer, latencies, results = traced_pass(lib, ops)
    totals, spans = tracer.totals(), tracer.span_count
    del tracer                            # its spans are summarized
    counts = exact_counts(totals)
    again, _, results2 = traced_pass(lib, ops)
    counts2 = exact_counts(again.totals())
    del again
    runs.failures += check_pass(ops, results) + check_pass(ops, results2)
    if counts2 != counts:
        runs.failures.append(f"exact counts differ between traced passes: "
                             f"{counts} vs {counts2}")

    for module in MODULES:
        metrics[f"{module}.self_s"] = (
            sum(s for n, (_, _, s) in totals.items() if n.startswith(module + ".")), "s")
    for metric, fn in SELF_TIMES.items():
        metrics[metric] = (totals[fn][2], "s")
    for metric, value in counts.items():
        metrics[metric] = (value, "count")

    # every workload reports the search cases; only search runs them
    cases = workloads.search_inputs(lib, seed)["cases"]
    by_case = {}
    if name == "search":
        by_case = {case[0]: statistics.median(lat)
                   for case, lat in zip(inputs["cases"], zip(*runs.passes))}
    for case in cases:
        metrics[f"witness.search.{case[0]}.s"] = (by_case.get(case[0], 0.0), "s")
        metrics[f"witness.search.{case[0]}.space"] = (
            workloads.search_space(lib, case) if name == "search" else 0, "count")
    metrics["witness.poly_terms_max"] = (runs.blowup[0], "count")
    metrics["witness.coeff_terms_max"] = (runs.blowup[1], "count")
    metrics["cli.contract_violations"] = (probes.contract_violations(lib), "count")
    traced_wall = sum(latencies)
    metrics["trace.overhead_s"] = (traced_wall - runs.wall_s(), "s")
    metrics["trace.spans"] = (spans, "count")

    runs_report.update({
        "untraced_wall_s": runs.wall_s(), "traced_wall_s": traced_wall,
        "exact": sorted(list(counts) + [f"witness.search.{c[0]}.space" for c in cases]
                        + ["witness.poly_terms_max", "witness.coeff_terms_max",
                           "cli.contract_violations", "trace.spans"]),
        "space_note": "witness.search.<case>.space is |pool|^slots computed "
                      "from the inputs, not counted",
        "self_s_by_function": {n: s for n, (c, _, s) in sorted(totals.items()) if c},
    })
    return metrics, runs


def git_commit():
    """HEAD of the checkout if it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def run_one(name, seed, seconds, trace):
    lib, inputs, setup_s = setup(name, seed)
    ops = workloads.WORKLOADS[name][1](lib, inputs)
    report = {
        "workload": name, "why": workloads.WHY[name], "seed": seed,
        "trace": trace, "ops_per_pass": len(ops),
        "redrawn_inputs": inputs.get("redrawn", 0),
        "inputs_sha256": hashlib.sha256(
            workloads.inputs_text(inputs).encode()).hexdigest(),
        "context": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform(), "git_commit": git_commit(),
                    "loop": "closed, one caller, no threads"},
    }
    if trace:
        metrics, runs = per_layer(name, lib, seed, seconds, ops, inputs, report)
        attempted = runs.attempted + 2 * len(ops)
    else:
        # set-ups spread over the run, each followed by a reference time
        # that scales it, so their median sees the same machine as the
        # passes do
        setups = [setup_s]
        runs = Runs(ops, calibrate=True)
        runs.run(seconds, lambda: setups.append(repeat_setup(name, seed)))
        refs = runs.between_refs[:]
        while len(setups) < SETUP_REPEATS:
            setups.append(repeat_setup(name, seed))
            refs.append(runs.cal.take())
        setup_scaled = statistics.median(
            s * speed.REFERENCE_S / r for s, r in zip(setups, refs))
        metrics = runs.end_to_end(setup_scaled)
        report["setup_repeats"] = len(setups)
        report["unscaled"] = {k: v for k, (v, _) in runs.end_to_end(
            statistics.median(setups), scaled=False).items()}
        taken = runs.cal.refs
        report["reference_ms"] = {"constant": speed.REFERENCE_S * 1e3, "taken": len(taken),
                                  "median": statistics.median(taken) * 1e3,
                                  "min": min(taken) * 1e3, "max": max(taken) * 1e3}
        attempted = runs.attempted
        pct, _, samples, beyond = runs.tail()
        report["op_tail"] = {"percentile": pct, "samples": samples, "beyond": beyond,
                             "basis": "per-op medians over the passes"}
        report["contract_violations"] = probes.contract_violations(lib)
    failed = len(runs.failures)
    report.update({"passes": len(runs.passes), "attempted": attempted,
                   "failed": failed, "error_rate": failed / attempted,
                   "failures": runs.failures[:20],
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024})
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(args):
    """Each workload in its own process, one after another."""
    worst = 0
    for name in workloads.WORKLOADS:
        done = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], check=False)
        worst = max(worst, done.returncode)
    return worst


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=list(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "monowit").is_dir():
        sys.stderr.write(f"error: no monowit sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    try:
        return run_one(args.workload, args.seed, args.seconds, args.trace)
    except UsageError as ex:
        sys.stderr.write(f"error: {ex}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark of ``msindex report`` on seeded instance corpora.

Run from the root of a msindex checkout:

    python3 perfbench/run.py --workload det-large --seed 1 --seconds 30 --trace 0

The benchmark drives the real entry point, ``msindex.cli.main(["report",
<file>, "--json", ...])``, in-process as a closed loop with one client: one
process, one thread, each instance sent after the previous report returned,
``--jobs`` left at 1.  The workloads and their corpora are defined in
``corpus.py``.

The host's core speed is not steady: on the reference machine (a 2-vCPU
x86-64 VM with Python 3.11) one fixed pure-Python loop took anywhere from
19 to 47 ms as neighbouring tenants came and went, and the fastest wall
time of the same reports differed by 40 % between whole runs.  Every time
the benchmark reports is therefore rescaled to a reference core speed
(``probe.py``): it probes the speed with a fixed loop that calls none of
msindex before a timed step and again after it (after a group of reports
at most ``PROBE_EVERY_S`` long), and multiplies the wall time by
``REFERENCE_PROBE_S`` over the mean of the two probes.  The figures read
as times on the reference machine's core at its fastest.  The wall times
as measured and the speed factor of every pass are printed next to them,
and every report's wall time and factor are kept in the results file.

Every run first sets up several times (imports, corpus generation, writing
the instance files, one untimed warm-up report) and reports the median
rescaled time as ``setup_s``.  With ``--trace 0`` it then repeats passes
over the corpus while the next pass still fits in ``--seconds`` (at least
one) and prints the end-to-end metrics.  A report's time is the median of
its rescaled passes; ``report_p50_ms`` is the median over the corpus,
``report_tail_ms`` the highest percentile with ten reports beyond it
(percentile and sample count are printed with it), and ``instances_per_s``
the corpus size over the sum of the report times.  ``bound_gap_mean``,
``fallback_frac`` and ``failed_frac`` are printed too; they are
deterministic and often 0, so ``BENCHMARK.json`` declares them with the
per-layer metrics, which carry no relative bound.  With ``--trace 1`` it
makes one pass under ``tracer.Tracer`` between two untraced passes and
prints the per-layer metrics (self times rescaled call by call), then runs
a smoke corpus (the smallest instance of every workload plus
``instances/*.json``) under a fresh tracer and requires a call of every
traced function.  Every report is checked; a crash, a nonzero exit or a
failed check counts as a failed instance.  Deterministic values must
repeat exactly: between passes of a run, and between runs of the same code
and seed (kept under ``.perfbench_work/repeat``).  Results with digests and
environment go to ``.perfbench_work/results``, spans to
``.perfbench_work/spans``.  The last line of standard output is the result
object; its metric names and units are those declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import re
import resource
import statistics
import sys
import time
import traceback
import warnings
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import corpus
from probe import probe, speed_factor
from tracer import TRACED_NAMES, Tracer

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
WARM_UP = ROOT / "instances" / "triangle_single_sender.json"
REQUIRED = ("BENCHMARK.json", "src/msindex/cli.py", "scripts/find_gaps.py",
            "instances/triangle_single_sender.json")
SETUP_REPEATS = 11
TAIL_BEYOND = 10
PROBE_EVERY_S = 0.1
BOUND_FALLBACK = re.compile(
    r"exhaustive search exceeded \d+ states; falling back to deterministic choices")
TREE_FALLBACK = re.compile(
    r"instance has \d+ > \d+ vertices; falling back to greedy connecting-tree search")


@dataclass
class Call:
    seconds: float
    exit_code: int | None
    stdout: str
    stderr: str
    warnings: list[str]
    error: str | None


@dataclass
class Pass:
    calls: list[Call]
    scaled: list[float]         # report seconds at the reference speed
    factors: list[float]        # speed factor of each report
    self_s: dict[str, float]    # rescaled self time per traced function


def _sha256(texts) -> str:
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode("utf-8"))
    return digest.hexdigest()


def call_report(path: Path, flags: tuple[str, ...]) -> Call:
    cli = sys.modules["msindex.cli"]
    # Every report starts from a collected heap, as in a fresh `msindex`
    # process: otherwise a full collection of garbage that earlier reports
    # left lands in whichever report the corpus order puts there.
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    exit_code = error = None
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            exit_code = cli.main(["report", str(path), "--json", *flags])
        except Exception:  # a crashing report is a failed instance
            error = traceback.format_exc()
        seconds = time.perf_counter() - start
    return Call(seconds, exit_code, out.getvalue(), err.getvalue(),
                [str(w.message) for w in caught], error)


def check(family: str, flags: tuple[str, ...], call: Call):
    """(summary of the deterministic outcome, None) or (None, failure)."""
    if call.error is not None:
        return None, "exception: " + call.error.strip().splitlines()[-1]
    if call.exit_code != 0:
        return None, f"exit code {call.exit_code}"
    if call.stderr:
        return None, "stderr: " + call.stderr.strip()[:200]
    unknown = [w for w in call.warnings
               if not (BOUND_FALLBACK.fullmatch(w) or TREE_FALLBACK.fullmatch(w))]
    if unknown:
        return None, f"unexpected warning: {unknown[0]}"
    try:
        report = json.loads(call.stdout)
        lb, ub = report["lower_bound"], report["upper_bound"]
        certified = report["certified"]
    except (ValueError, KeyError, TypeError) as exc:
        return None, f"malformed report: {exc!r}"
    oracle = report.get("oracle")
    if not lb <= ub:
        return None, f"lower bound {lb} > upper bound {ub}"
    if "--oracle" in flags:
        if oracle is None:
            return None, "report has no oracle length"
        if not lb <= oracle <= ub:
            return None, f"sandwich violated: {lb} <= {oracle} <= {ub}"
    if certified is not (lb == ub or oracle == lb):
        return None, f"certified={certified} with lb={lb} ub={ub} oracle={oracle}"
    if family == "partitioned" and lb != ub:
        return None, f"partitioned senders but lb={lb} != ub={ub}"
    return {"sha256": _sha256([call.stdout]), "lb": lb, "ub": ub,
            "certified": certified, "oracle": oracle,
            "bound_fallback": any(BOUND_FALLBACK.fullmatch(w) for w in call.warnings),
            "tree_fallback": any(TREE_FALLBACK.fullmatch(w) for w in call.warnings),
            }, None


class Run:
    def __init__(self, workload: str, seed: int):
        self.workload = corpus.WORKLOADS[workload]
        self.seed = seed
        self.items: list[tuple[str, Path]] = []
        self.corpus_sha256 = ""
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.samples: dict = {}   # per-report timings of every pass

    def set_up(self) -> tuple[float, float]:
        """(rescaled, wall) seconds of one set-up."""
        before = probe()
        start = time.perf_counter()
        for name in [n for n in sys.modules
                     if n == "msindex" or n.startswith("msindex.") or n == "find_gaps"]:
            del sys.modules[name]
        importlib.import_module("msindex.cli")
        importlib.import_module("find_gaps")
        folder = WORK / "corpus" / f"{self.workload.name}-{self.seed}"
        folder.mkdir(parents=True, exist_ok=True)
        self.items, texts = [], []
        for k, (family, doc) in enumerate(corpus.build(self.workload.name, self.seed)):
            text = json.dumps(doc, sort_keys=True) + "\n"
            path = folder / f"{k:04d}.json"
            path.write_text(text, encoding="utf-8")
            self.items.append((family, path))
            texts.append(text)
        self.corpus_sha256 = _sha256(texts)
        warm = call_report(WARM_UP, self.workload.flags)
        if warm.exit_code != 0:
            self.problems.append(f"warm-up report failed: {warm.error or warm.stderr}")
        wall = time.perf_counter() - start
        return wall * speed_factor(before, probe()), wall

    def one_pass(self, tracer: Tracer | None = None) -> Pass:
        """One report of every instance.  The speed is probed at the start,
        at the end and after every report that ends PROBE_EVERY_S or more
        after the last probe; the reports between two probes are rescaled
        by the speed those two probes read."""
        calls, scaled, factors = [], [], []
        self_s = defaultdict(float)
        segment = []   # (call, self seconds per traced function)
        before, probed = probe(), time.perf_counter()
        for k, (_, path) in enumerate(self.items):
            if tracer is not None:
                tracer.instance = k
                traced = dict(tracer.self_s)
            call = call_report(path, self.workload.flags)
            spent = {} if tracer is None else {
                name: seconds - traced.get(name, 0.0)
                for name, seconds in tracer.self_s.items()}
            segment.append((call, spent))
            if (time.perf_counter() - probed < PROBE_EVERY_S
                    and k < len(self.items) - 1):
                continue
            after = probe()
            factor = speed_factor(before, after)
            for call, spent in segment:
                calls.append(call)
                scaled.append(call.seconds * factor)
                factors.append(factor)
                for name, seconds in spent.items():
                    self_s[name] += seconds * factor
            segment = []
            before, probed = after, time.perf_counter()
        return Pass(calls, scaled, factors, self_s)

    def evaluate(self, calls: list[Call]) -> list[dict | None]:
        summaries = []
        for k, ((family, _), call) in enumerate(zip(self.items, calls)):
            summary, failure = check(family, self.workload.flags, call)
            self.attempted += 1
            if failure is not None:
                self.failed += 1
                self.problems.append(f"FAIL workload={self.workload.name} "
                                     f"seed={self.seed} instance={k} "
                                     f"({family}): {failure}")
            summaries.append(summary)
        return summaries

    def same_outcomes(self, first, other, what: str) -> None:
        if first != other:
            changed = [k for k, (a, b) in enumerate(zip(first, other)) if a != b]
            self.problems.append(f"{what} changed the reports of instances {changed[:10]}")

    def quality(self, summaries) -> dict[str, float]:
        ok = [s for s in summaries if s is not None]
        n = max(len(ok), 1)
        return {
            "bound_gap_mean": sum(s["ub"] - s["lb"] for s in ok) / n,
            "certified_frac": sum(s["certified"] for s in ok) / n,
            "fallback_frac": sum(s["bound_fallback"] or s["tree_fallback"]
                                 for s in ok) / n,
            "failed_frac": self.failed / max(self.attempted, 1),
        }

    def check_repeat(self, values: dict) -> None:
        """Deterministic values must equal those of earlier runs of the
        same code, workload and seed."""
        code = _sha256(p.read_text(encoding="utf-8") for p in sorted(
            [*(ROOT / "src" / "msindex").glob("*.py"),
             ROOT / "scripts" / "find_gaps.py",
             *Path(__file__).parent.glob("*.py")]))
        path = WORK / "repeat" / f"{self.workload.name}-{self.seed}-{code[:16]}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        previous = json.loads(path.read_text()) if path.exists() else {}
        for key in sorted(values.keys() & previous.keys()):
            if values[key] != previous[key]:
                self.problems.append(f"deterministic value {key} differs from an "
                                     f"earlier run: {previous[key]} -> {values[key]}")
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps({**previous, **values}, sort_keys=True))
        os.replace(tmp, path)


def _timings(times: list[float]) -> tuple[float, float, float]:
    """(reports per second, median ms, tail ms) of per-report seconds."""
    times = sorted(times)
    n = len(times)
    return (n / sum(times), 1e3 * statistics.median(times),
            1e3 * times[n - 1 - TAIL_BEYOND])


def end_to_end(run: Run, seconds: float, details: dict) -> dict:
    passes = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        done = run.one_pass()
        passes.append((done, run.evaluate(done.calls)))
        wall = time.perf_counter() - pass_start
        if time.perf_counter() - start + wall > seconds:
            break
    first = passes[0][1]
    for _, summaries in passes[1:]:
        run.same_outcomes(first, summaries, "repeating a pass")
    n = len(run.items)
    # Each report is timed at the median of its rescaled passes: rescaling
    # removes most of the host's swings in speed, and what is left of them
    # errs both ways.
    per_s, p50_ms, tail_ms = _timings(
        [statistics.median(done.scaled[k] for done, _ in passes) for k in range(n)])
    wall_per_s, wall_p50_ms, wall_tail_ms = _timings(
        [min(done.calls[k].seconds for done, _ in passes) for k in range(n)])
    quality = run.quality(first)
    details.update(passes=len(passes), instances=n,
                   tail_percentile=100 * (n - TAIL_BEYOND) / n,
                   tail_samples_beyond=TAIL_BEYOND,
                   speed_factor_per_pass=[round(statistics.mean(done.factors), 3)
                                          for done, _ in passes],
                   wall_instances_per_s=wall_per_s,
                   wall_report_p50_ms=wall_p50_ms,
                   wall_report_tail_ms=wall_tail_ms,
                   output_sha256=_sha256(c.stdout for c in passes[0][0].calls),
                   quality=quality)
    run.samples = {"wall_s": [[c.seconds for c in done.calls] for done, _ in passes],
                   "speed_factor": [done.factors for done, _ in passes]}
    run.check_repeat({"corpus_sha256": run.corpus_sha256,
                      "output_sha256": details["output_sha256"], **quality})
    return {
        "instances_per_s": (per_s, "1/s"),
        "report_p50_ms": (p50_ms, "ms"),
        "report_tail_ms": (tail_ms, "ms"),
        "bound_gap_mean": (quality["bound_gap_mean"], "bits"),
        "certified_frac": (quality["certified_frac"], "ratio"),
        "fallback_frac": (quality["fallback_frac"], "ratio"),
        "failed_frac": (quality["failed_frac"], "ratio"),
    }


def smoke_coverage(run: Run) -> None:
    """Every traced function must be called by the smallest instance of a
    workload or by a bundled instance, so a rename cannot read as zero."""
    folder = WORK / "smoke"
    folder.mkdir(parents=True, exist_ok=True)
    cases = []
    for name, workload in corpus.WORKLOADS.items():
        family, doc = min(corpus.build(name, run.seed),
                          key=lambda item: item[1]["num_messages"])
        path = folder / f"{name}.json"
        path.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")
        cases.append((family, path, workload.flags))
    flag_sets = {w.flags for w in corpus.WORKLOADS.values()}
    cases.extend(("bundled", bundled, flags) for flags in sorted(flag_sets)
                 for bundled in sorted((ROOT / "instances").glob("*.json")))
    tracer = Tracer()
    tracer.install()
    try:
        calls = [(family, flags, call_report(path, flags))
                 for family, path, flags in cases]
    finally:
        tracer.uninstall()
    for family, flags, call in calls:
        _, failure = check(family, flags, call)
        if failure is not None:
            run.problems.append(f"smoke report failed: {failure}")
    silent = [name for name in TRACED_NAMES if tracer.calls[name] == 0]
    if tracer.counters["model.GraphPair.constructions"] == 0:
        silent.append("model.GraphPair.constructions")
    if silent:
        run.problems.append(f"traced functions never called: {', '.join(silent)}")


def per_layer(run: Run, details: dict) -> dict:
    done = run.one_pass()
    untraced = run.evaluate(done.calls)
    untraced_s = sum(done.scaled)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run.one_pass(tracer)
    finally:
        tracer.uninstall()
    run.same_outcomes(untraced, run.evaluate(traced.calls), "tracing")
    traced_s = sum(traced.scaled)
    # The first pass still warms caches; the faster of the untraced passes
    # around the traced one is the base of trace_overhead.
    again = run.one_pass()
    run.same_outcomes(untraced, run.evaluate(again.calls), "repeating a pass")
    untraced_s = min(untraced_s, sum(again.scaled))
    smoke_coverage(run)
    spans = WORK / "spans" / f"{run.workload.name}-{run.seed}.jsonl"
    spans.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(spans)
    details.update(spans=str(spans.relative_to(ROOT)), span_count=len(tracer.spans))

    counters = tracer.counters
    ok = [s for s in untraced if s is not None]
    counts = {f"{name}.calls": tracer.calls[name] for name in TRACED_NAMES}
    counts.update({
        "model.GraphPair.constructions": counters["model.GraphPair.constructions"],
        "bound.log_steps": counters["bound.log_steps"],
        "bound.n_iv": counters["bound.n_iv"],
        "bound.fallbacks": counters["bound.fallbacks"],
        "graphs.witnesses_yielded": counters["graphs.iter_degeneracy_witnesses.yields"],
        "code.trees": counters["code.trees"],
        "code.tree_fallbacks": sum(s["tree_fallback"] for s in ok),
        "verify.oracle.lengths_scanned": counters["verify.oracle.lengths_scanned"],
        "verify.oracle.lengths_below_lb": sum(s["lb"] for s in ok
                                              if s["oracle"] is not None),
    })

    def ratio(top: str, base: str) -> float:
        # A ratio over an empty base reads 0; its base counts are reported.
        return counts[top] / counts[base] if counts[base] else 0.0

    ratios = {
        "bound.tarjan_per_step": ratio("graphs.scc_decompose.calls", "bound.log_steps"),
        "bound.graphpair_per_step": ratio("model.GraphPair.constructions",
                                          "bound.log_steps"),
        "graphs.witness_yield_ratio": ratio("graphs.witnesses_yielded",
                                            "graphs.check_degeneracy_witness.calls"),
    }
    quality = run.quality(untraced)
    details["output_sha256"] = _sha256(call.stdout for call in traced.calls)
    run.check_repeat({"corpus_sha256": run.corpus_sha256,
                      "output_sha256": details["output_sha256"],
                      **quality, **counts, **ratios})
    metrics = {name: (value, "count") for name, value in counts.items()}
    metrics.update({name: (value, "ratio") for name, value in ratios.items()})
    metrics.update({f"{name}.self_ms": (1e3 * traced.self_s[name], "ms")
                    for name in TRACED_NAMES})
    metrics.update({
        "trace_overhead": (traced_s / untraced_s, "ratio"),
        "trace.traced_s": (traced_s, "s"),
        "trace.untraced_s": (untraced_s, "s"),
        "bound_gap_mean": (quality["bound_gap_mean"], "bits"),
        "fallback_frac": (quality["fallback_frac"], "ratio"),
        "failed_frac": (quality["failed_frac"], "ratio"),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: {ROOT} is not a msindex checkout; missing "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"]
                for m in declared["per_layer" if args.trace else "end_to_end"]}
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts")]

    run = Run(args.workload, args.seed)
    setups = [run.set_up() for _ in range(SETUP_REPEATS)]
    setup_s = statistics.median(scaled for scaled, _ in setups)
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "corpus_sha256": run.corpus_sha256,
               "python": platform.python_version(),
               "nproc": len(os.sched_getaffinity(0)),
               "platform": platform.platform(),
               "wall_setup_s": statistics.median(wall for _, wall in setups)}
    if args.trace:
        metrics = per_layer(run, details)
    else:
        metrics = end_to_end(run, args.seconds, details)
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    for problem in run.problems:
        print(problem)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for key, value in details.items():
        print(f"# {key}: {value}")
    results = WORK / "results" / f"{args.workload}-{args.seed}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps({
        "details": details, "problems": run.problems, "samples": run.samples,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }, indent=2, sort_keys=True))

    emitted = {name: unit for name, (_, unit) in metrics.items() if name in declared}
    if emitted != declared:
        print(f"perfbench: BENCHMARK.json declares {sorted(declared.items())}, "
              f"the run measured {sorted(emitted.items())}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not run.problems, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": metrics[n][0], "unit": u} for n, u in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

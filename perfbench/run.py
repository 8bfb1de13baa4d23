"""bergeham benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload search-large --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its src/.
Untraced runs (--trace 0) report the end-to-end metrics; traced runs
(--trace 1) report the per-layer ones.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 only when every result
was checked and found correct.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter_ns

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT_DIR = os.path.join(HERE, "out")
COUNTERS_DIR = os.path.join(HERE, "counters")

SETUP_SAMPLES = 5  # this process plus four fresh interpreters
TAIL_BEYOND = 10  # the tail is the sample with this many samples above it
# counters that must repeat exactly between runs of the same code
RECORDED_COUNTERS = (
    "hamilton.nodes",
    "extend.augmentations",
    "hamilton.cores_yielded",
    "harness.colorings_classified",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "colorings_per_s": "1/s",
    "verdict_ms_p50": "ms",
    "verdict_ms_tail": "ms",
    "peak_rss_mb": "MB",
}

# per-layer metric -> unit; a layer a workload never reaches reads 0
PER_LAYER_UNITS = {
    "harness.self_s": "s",
    "harness.colorings_classified": "count",
    "harness.precheck_skipped": "count",
    "harness.colors_tried": "count",
    "harness.colors_nonhamiltonian": "count",
    "hypercore.verify.calls": "count",
    "hypercore.verify.self_s": "s",
    "hypercore.coloring_init.self_s": "s",
    "extend.build_candidates.calls": "count",
    "extend.build_candidates.self_s": "s",
    "extend.matching.self_s": "s",
    "extend.augmentations": "count",
    "extend.core_hit_ratio": "ratio",
    "extend.greedy.self_s": "s",
    "hamilton.find_cycle.self_s": "s",
    "hamilton.iter_cycles.self_s": "s",
    "hamilton.cores_yielded": "count",
    "hamilton.nodes": "count",
    "shadow.profile.self_s": "s",
    "construct.witness.self_s": "s",
    "construct.gamma.self_s": "s",
    "construct.pipeline.self_s": "s",
    "construct.done_frac": "ratio",
    "trace.overhead_frac": "ratio",
}

# span name -> the layer its self time is charged to, where the two differ
LAYER_OF_SPAN = {
    "harness.find_mono_berge": "harness",
    "harness.exhaustive_verify": "harness",
    "construct.constructive_find": "construct.pipeline",
}


def import_program():
    """Import bergeham from this checkout's src/, and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import bergeham
    except ImportError as exc:
        raise SystemExit(f"cannot import bergeham from {SRC}: {exc}")
    where = os.path.dirname(os.path.abspath(bergeham.__file__))
    if where != os.path.join(SRC, "bergeham"):
        raise SystemExit(f"bergeham was imported from {where}, not from {SRC}")


def set_up(name: str, seed: int):
    """Import, input generation, and one warm-up call per entry point and
    input shape, so a per-shape cache is paid here and not in the passes."""
    import_program()
    import workloads

    w = workloads.WORKLOADS[name](seed)
    w.warm_up()
    return w


def scaled_seconds(raw_ns: int) -> float:
    """A just-finished interval at reference speed, probed right after it."""
    from speed import REF_NS, kernel_ns

    return raw_ns * REF_NS / kernel_ns() / 1e9


def fresh_setup_seconds(args) -> float:
    """Scaled set-up time of a new interpreter running this script."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise SystemExit(f"set-up in a fresh interpreter failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


# -- timed passes ------------------------------------------------------------


@dataclass
class Pass:
    marks: list  # per input: (start, call start, end) in perf_counter ns
    results: list  # result or raised exception per call; see settle()
    spans: tuple = (0, 0)  # traced passes: their slice of Tracer.spans
    counts: Counter = field(default_factory=Counter)  # traced passes: call counts
    # set by scale() once the window has closed
    raw_ns: int = 0  # coloring construction plus call, summed over the inputs
    ns: float = 0.0  # the same at reference speed
    durations: list = field(default_factory=list)  # per call, ms at reference speed


def run_pass(w, call, new_coloring) -> Pass:
    """One pass over the inputs; each call is timed on its own, and the pass
    time adds each coloring's construction to its call."""
    marks, results = [], []
    for inp in w.inputs:
        start = perf_counter_ns()
        arg = inp.params if inp.colors is None else new_coloring(inp.params, inp.colors)
        t = perf_counter_ns()
        try:
            out = call(arg, **inp.kwargs)
        except Exception as exc:  # a raising call is a failed call
            out = exc
        marks.append((start, t, perf_counter_ns()))
        results.append(out)
    return Pass(marks, results)


def scale(p: Pass, probe) -> None:
    """Fill in the pass's times, without the probe's samples and at
    reference speed."""
    p.raw_ns, p.ns, p.durations = 0, 0.0, []
    for start, t, end in p.marks:
        f = probe.factor(start, end)
        whole = end - start - probe.busy_ns(start, end)
        p.raw_ns += whole
        p.ns += whole * f
        p.durations.append((end - t - probe.busy_ns(t, end)) * f / 1e6)


def tail_stat(values):
    """(value, percentile, samples): the order statistic with TAIL_BEYOND
    samples above it, or the maximum when there are too few samples."""
    m = len(values)
    if m <= TAIL_BEYOND:
        return max(values), 100.0, m
    return sorted(values)[m - TAIL_BEYOND - 1], 100.0 * (m - TAIL_BEYOND) / m, m


def latency_samples(w, passes):
    """(samples, what they are): per input, the median of its calls over the
    passes; with TAIL_BEYOND inputs or fewer, every call instead."""
    idx = [
        i for i, inp in enumerate(w.inputs)
        if w.latency_keys is None or inp.key in w.latency_keys
    ]
    if len(idx) > TAIL_BEYOND:
        return [statistics.median(p.durations[i] for p in passes) for i in idx], "inputs"
    return [p.durations[i] for p in passes for i in idx], "calls"


# -- checking ----------------------------------------------------------------


def signatures(w, results):
    return [None if isinstance(o, Exception) else w.signature(o) for o in results]


def settle(w, first, p):
    """Drop a later pass's results when they equal the first pass's, so the
    results of many passes do not pile up in memory.  The program is
    deterministic: every pass must return what the first one did."""
    if p is not first and signatures(w, p.results) == signatures(w, first.results):
        p.results = None


def check_passes(w, passes):
    """Check every call: (attempted, failed, problems).

    A pass whose results were dropped by `settle` equals the first pass and
    is charged the first pass's failures."""
    verdicts: dict = {}

    def check(results):
        failed, problems = 0, []
        for inp, out in zip(w.inputs, results):
            if isinstance(out, Exception):
                failed += 1
                problems.append(f"{inp.key}: raised {out!r}")
                continue
            key = (inp.key, w.signature(out))
            if key not in verdicts:
                verdicts[key] = w.check(inp, out)
            if verdicts[key] is not None:
                failed += 1
                problems.append(f"{inp.key}: {verdicts[key]}")
        return failed, problems

    first_failed, problems = check(passes[0].results)
    failed = first_failed
    for n, p in enumerate(passes[1:], start=2):
        if p.results is None:
            failed += first_failed
            continue
        more_failed, more = check(p.results)
        failed += more_failed
        problems += [f"pass {n} results differ from the first pass"] + more
    extra_calls, extra_problems = w.run_checks(passes[0].results)
    attempted = len(passes) * len(w.inputs) + extra_calls
    return attempted, failed + len(extra_problems), problems + extra_problems


def pass_counters(w, results):
    return w.counters([o for o in results if not isinstance(o, Exception)])


# -- metrics -----------------------------------------------------------------


def end_to_end(w, passes, setup_samples):
    """End-to-end metrics at reference speed, and notes on how each was
    taken."""
    samples, kind = latency_samples(w, passes)
    tail, pct, count = tail_stat(samples)
    pass_ns = statistics.median(p.ns for p in passes)
    raw_ns = statistics.median(p.raw_ns for p in passes)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "colorings_per_s": w.colorings_per_pass / pass_ns * 1e9,
        "verdict_ms_p50": statistics.median(samples),
        "verdict_ms_tail": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": f"median of {len(setup_samples)} set-ups",
        "colorings_per_s": f"{w.colorings_per_pass} per pass, median of {len(passes)} "
        f"passes; unscaled {w.colorings_per_pass / raw_ns * 1e9:.6g}",
        "verdict_ms_p50": f"{count} {kind}, {len(passes)} passes",
        "verdict_ms_tail": f"p{pct:.2f} of {count} {kind}",
    }
    return metrics, notes


def per_layer(w, tracer, traced, plain):
    """Per-layer metrics: medians over traced passes of per-pass values,
    self times at reference speed."""
    rows = []
    for p in traced:
        counts = p.counts
        scale = p.ns / p.raw_ns
        row = {name: 0 if unit == "count" else 0.0 for name, unit in PER_LAYER_UNITS.items()}
        for span, secs in tracer.self_seconds(*p.spans).items():
            row[LAYER_OF_SPAN.get(span, span) + ".self_s"] += secs * scale
        row.update(pass_counters(w, plain[0].results))
        # construct's own searches, which no report counts
        row["hamilton.nodes"] += counts["hamilton.nodes"]
        row["extend.augmentations"] += counts["extend.augmentations"]
        row["hamilton.cores_yielded"] = counts["hamilton.cores_yielded"]
        row["extend.build_candidates.calls"] = counts["extend.build_candidates"]
        row["hypercore.verify.calls"] = counts["hypercore.verify"]
        tried = counts["extend.matching"]
        row["extend.core_hit_ratio"] = counts["extend.matching.hits"] / tried if tried else 0.0
        if w.entry_name == "harness.exhaustive_verify":
            made = counts["hypercore.coloring_init"]
            row["harness.colorings_classified"] = made
            row["harness.precheck_skipped"] = w.colorings_per_pass - made
        rows.append(row)
    # a count stays a whole number: the lower median is one pass's count
    out = {
        name: (statistics.median_low if unit == "count" else statistics.median)(
            r[name] for r in rows)
        for name, unit in PER_LAYER_UNITS.items()
    }
    traced_ns = statistics.median(p.ns for p in traced)
    plain_ns = statistics.median(p.ns for p in plain)
    out["trace.overhead_frac"] = traced_ns / plain_ns - 1.0
    return out


# -- counters across runs ------------------------------------------------------


def counters_path(workload):
    return os.path.join(COUNTERS_DIR, f"{workload}.json")


def compare_recorded(workload, seed, counters):
    """Flag counters that differ from the record for this workload and seed."""
    try:
        with open(counters_path(workload)) as fh:
            recorded = json.load(fh).get(str(seed))
    except FileNotFoundError:
        recorded = None
    shared = [k for k in (recorded or {}) if k in counters]
    if not shared:
        return f"no recorded counters to compare for seed {seed}"
    diff = {k: [counters[k], recorded[k]] for k in shared if counters[k] != recorded[k]}
    if diff:
        return "COUNTERS DIFFER from the record [now, recorded]: " + json.dumps(diff)
    return "counters equal the record: " + ", ".join(f"{k}={counters[k]:g}" for k in shared)


def record_counters(workload, seed, counters):
    path = counters_path(workload)
    try:
        with open(path) as fh:
            table = json.load(fh)
    except FileNotFoundError:
        table = {}
    table[str(seed)] = {k: counters[k] for k in RECORDED_COUNTERS}
    os.makedirs(COUNTERS_DIR, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(dict(sorted(table.items(), key=lambda kv: int(kv[0]))), fh, indent=1)
        fh.write("\n")


# -- main --------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description="bergeham benchmark")
    ap.add_argument("--workload", required=True,
                    choices=["search-large", "search-small", "exhaust", "construct"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the scaled set-up seconds and exit")
    ap.add_argument("--record-counters", action="store_true",
                    help="with --trace 1, store this run's counters under counters/")
    return ap.parse_args(argv)


def measure(args, w):
    """Run passes while the next one, as long as the last, fits in the
    window; at least one of each kind: (untraced passes, traced passes,
    tracer or None)."""
    from bergeham.hypercore import Coloring
    from speed import SpeedProbe
    from tracer import Tracer

    plain, traced = [], []
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        traced_entry = tracer.wrap(w.entry, w.entry_name)
        traced_coloring = tracer.wrap(Coloring, "hypercore.coloring_init")
    with SpeedProbe() as probe:
        deadline = perf_counter_ns() + int(args.seconds * 1e9)
        while True:
            began = perf_counter_ns()
            # traced runs alternate untraced and traced passes, so both meet
            # the same machine
            if tracer is None or len(plain) == len(traced):
                plain.append(run_pass(w, w.entry, Coloring))
                settle(w, plain[0], plain[-1])
            else:
                tracer.install()
                lo, before = len(tracer.spans), tracer.counts.copy()
                try:
                    p = run_pass(w, traced_entry, traced_coloring)
                finally:
                    tracer.uninstall()
                p.spans, p.counts = (lo, len(tracer.spans)), tracer.counts - before
                settle(w, plain[0], p)
                traced.append(p)
            now = perf_counter_ns()
            # stop before a pass that would end past the deadline
            if (tracer is None or traced) and now + (now - began) > deadline:
                break
    for p in plain + traced:
        scale(p, probe)
    return plain, traced, tracer


def main(argv=None) -> int:
    t0 = perf_counter_ns()
    args = parse_args(argv)
    if args.seed < 0:
        raise SystemExit("--seed must be non-negative")
    w = set_up(args.workload, args.seed)
    setup_ns = perf_counter_ns() - t0
    if args.setup_only:
        print(repr(scaled_seconds(setup_ns)))
        return 0

    lines = []
    if not args.trace:
        setup_samples = [scaled_seconds(setup_ns)] + [
            fresh_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)
        ]
    plain, traced, tracer = measure(args, w)
    os.makedirs(OUT_DIR, exist_ok=True)
    if tracer is None:
        metrics, notes = end_to_end(w, plain, setup_samples)
        units = END_TO_END_UNITS
    else:
        metrics, notes = per_layer(w, tracer, traced, plain), {}
        units = PER_LAYER_UNITS
        if tracer.missing:
            lines.append("not wrapped (absent): " + ", ".join(tracer.missing))
        path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        tracer.dump(path)
        lines.append(f"{len(tracer.spans)} spans written to {os.path.relpath(path)}")

    passes = plain + traced
    attempted, failed, problems = check_passes(w, passes)
    counters = pass_counters(w, passes[0].results)
    if tracer is not None:
        counters = {k: metrics[k] for k in RECORDED_COUNTERS}
    correct = failed == 0 and not problems
    comparison = compare_recorded(args.workload, args.seed, counters)
    if tracer is not None and args.record_counters and correct:
        record_counters(args.workload, args.seed, counters)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(plain)} untraced + {len(traced)} traced, "
          f"{w.colorings_per_pass} colorings each")
    for name, value in metrics.items():
        extra = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:32s} {value:14.6g} {units[name]}{extra}")
    print(f"  {'fail_frac':32s} {failed / attempted:14.6g} ratio  "
          f"({failed} of {attempted} calls wrong)")
    if counters:
        print("  counters per pass: " + ", ".join(f"{k}={v:g}" for k, v in counters.items()))
    print("  " + comparison)
    for line in lines:
        print("  " + line)
    for line in problems[:20]:
        print("  WRONG " + line)
    summary = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = dict(summary, notes=notes, counters=counters, counter_check=comparison,
                  problems=problems)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

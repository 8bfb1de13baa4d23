"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps the repository's default test run from collecting these.
"""

from __future__ import annotations

import json
import os
import re
from time import perf_counter_ns

import run
import speed

run.import_program()

import workloads  # noqa: E402
from bergeham.hypercore import Coloring  # noqa: E402
from certcheck import colex_members, cycle_problem  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = os.path.dirname(run.HERE)
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_names_and_units_match_the_spec():
    spec = load_spec()
    for group, units in (("end_to_end", run.END_TO_END_UNITS),
                         ("per_layer", run.PER_LAYER_UNITS)):
        declared = {m["name"]: m["unit"] for m in spec[group]}
        assert declared == units, group
        for name in declared:
            assert NAME.fullmatch(name) and len(name) <= 64, name
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _results(w, inputs, call):
    out = []
    for inp in inputs:
        arg = inp.params if inp.colors is None else Coloring(inp.params, inp.colors)
        out.append(w.signature(call(arg, **inp.kwargs)))
    return out


def test_wrappers_are_transparent_on_a_small_slice():
    slices = [
        (workloads.SearchSmall(3), slice(0, 1200, 40)),
        (workloads.Exhaust(0), slice(1, 4)),
        (workloads.Construct(0), slice(2, 4)),
    ]
    for w, part in slices:
        inputs = w.inputs[part]
        plain = _results(w, inputs, w.entry)
        tracer = Tracer()
        tracer.install()
        try:
            traced = _results(w, inputs, tracer.wrap(w.entry, w.entry_name))
        finally:
            tracer.uninstall()
        assert traced == plain, w.name
        assert tracer.missing == []
        assert tracer.counts[w.entry_name] == len(inputs)
        assert all(s[2] >= s[1] for s in tracer.spans)
        assert min(tracer.self_seconds(0, len(tracer.spans)).values()) >= 0
        if w.name == "construct":
            # construct calls extend_matching without a counter; the tracer
            # passes its own
            assert tracer.counts["extend.augmentations"] > 0
    # uninstall restored the originals
    from bergeham import extend, harness
    assert harness.build_candidates is extend.build_candidates


def test_exhaust_calls_no_search_or_extension_layer():
    w = workloads.Exhaust(0)
    tracer = Tracer()
    tracer.install()
    try:
        w.entry(w.inputs[2].params)  # (5,3,2)
    finally:
        tracer.uninstall()
    names = {s[0] for s in tracer.spans}
    assert names == {"hypercore.coloring_init", "hypercore.verify"}


def test_checker_accepts_valid_and_rejects_broken_certificates():
    assert colex_members(5, 3)[:4] == ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
    w = workloads.Construct(0)
    inp = w.inputs[0]
    out = w.entry(Coloring(inp.params, inp.colors), **inp.kwargs)
    n, r = inp.params.n, inp.params.r
    core, edges, color = list(out.cycle.core), list(out.cycle.edges), out.cycle.color
    assert cycle_problem(core, edges, color, inp.colors, n, r) is None
    assert cycle_problem(core, edges, color % 4 + 1, inp.colors, n, r)
    assert cycle_problem(core, edges[1:] + edges[:1], color, inp.colors, n, r)
    assert cycle_problem(core, edges[:-1] + edges[:1], color, inp.colors, n, r)
    assert cycle_problem(core[:-1] + core[:1], edges, color, inp.colors, n, r)


def test_search_large_inputs_follow_the_seed():
    a, b = workloads.SearchLarge(0), workloads.SearchLarge(0)
    c = workloads.SearchLarge(1)
    keys = [i.key for i in a.inputs]
    assert keys == [i.key for i in b.inputs]
    assert keys != [i.key for i in c.inputs]
    assert len(set(keys)) == workloads.SearchLarge.STRATA
    assert f"seed{a.spare}" not in keys


def test_tail_statistic():
    assert run.tail_stat(list(range(5))) == (4, 100.0, 5)
    value, pct, m = run.tail_stat(list(range(100)))
    assert (value, pct, m) == (89, 90.0, 100)


def test_speed_probe_intervals():
    p = speed.SpeedProbe()
    p.starts, p.ends = [0, 100, 200, 300], [10, 110, 210, 310]
    p.refs = [1_000_000, 2_000_000, 4_000_000, 1_000_000]
    assert p.busy_ns(105, 305) == 5 + 10 + 5
    # the samples just before (100) and just after (200) the interval
    assert p.factor(120, 190) == speed.REF_NS / 3_000_000
    assert p.factor(50, 250) == speed.REF_NS / 2_000_000


def test_speed_probe_samples_inside_a_long_call():
    with speed.SpeedProbe() as p:
        start = perf_counter_ns()
        while perf_counter_ns() - start < 350_000_000:
            speed.kernel()
        end = perf_counter_ns()
    inside = [s for s in p.starts if start < s < end]
    assert len(inside) >= 2
    assert 0 < p.busy_ns(start, end) < end - start

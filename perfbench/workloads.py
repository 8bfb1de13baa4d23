"""The four benchmark workloads and their correctness references.

Every workload is a closed loop with one caller: each public call starts when
the previous one returns.  A pass calls the entry point once per input, and
each coloring is rebuilt from its stored color vector just before its call,
outside the timed span, so no memo attached to a Coloring object survives
from one pass to the next.  All checks run after the timed window.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from bergeham import construct, harness
from bergeham.fixtures import case1_fixture, case2_fixture
from bergeham.hypercore import Coloring, HyperParams

from certcheck import cycle_problem

HERE = os.path.dirname(os.path.abspath(__file__))
POOL_PATH = os.path.join(HERE, "pins", "search_large_pool.json")


@dataclass
class Input:
    key: str
    params: HyperParams
    colors: Optional[np.ndarray]  # None: the entry point takes the params
    kwargs: dict = field(default_factory=dict)


def _cycle_error(cycle, colors, params) -> Optional[str]:
    if cycle is None:
        return "found without a certificate"
    return cycle_problem(
        cycle.core, cycle.edges, cycle.color, colors, params.n, params.r
    )


class Workload:
    name = ""
    entry_name = ""  # span name of the public call
    # input keys whose calls feed verdict_ms_*; None means every call
    latency_keys: Optional[set] = None

    def __init__(self, seed: int):
        self.seed = seed
        self.inputs: list[Input] = []
        self.colorings_per_pass = 0

    def entry(self, arg, **kwargs):
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def signature(self, result) -> tuple:
        raise NotImplementedError

    def check(self, inp: Input, result) -> Optional[str]:
        """None when the result is right, else what is wrong."""
        raise NotImplementedError

    def run_checks(self, results: list) -> tuple[int, list[str]]:
        """Checks that need calls of their own, given one pass's results:
        (calls made, problems)."""
        return 0, []

    def counters(self, results: list) -> dict[str, float]:
        """Deterministic per-pass counters read from the public results."""
        return {}


# -- find_mono_berge ---------------------------------------------------------


class SearchWorkload(Workload):
    entry_name = "harness.find_mono_berge"

    def entry(self, coloring):
        return harness.find_mono_berge(coloring)

    def signature(self, rep) -> tuple:
        cycle = rep.cycle
        cert = None if cycle is None else (
            tuple(cycle.core), tuple(int(e) for e in cycle.edges), cycle.color
        )
        return (rep.verdict, rep.color, cert, rep.nodes, rep.augmentations)

    def reference_verdict(self, inp: Input) -> str:
        raise NotImplementedError

    def check(self, inp, rep) -> Optional[str]:
        if rep.verdict not in ("found", "not-found"):
            return f"verdict {rep.verdict!r}"
        want = self.reference_verdict(inp)
        if rep.verdict != want:
            return f"verdict {rep.verdict}, reference says {want}"
        if rep.verdict == "found":
            problem = _cycle_error(rep.cycle, inp.colors, inp.params)
            if problem:
                return f"certificate rejected: {problem}"
        return None

    def counters(self, results) -> dict[str, float]:
        stages = [
            list(r.stages.get("colors", {}).values()) for r in results
        ]
        return {
            "hamilton.nodes": sum(r.nodes for r in results),
            "extend.augmentations": sum(r.augmentations for r in results),
            "harness.colorings_classified": len(results),
            "harness.colors_tried": sum(
                sum(s != "class too small" for s in st) for st in stages
            ),
            "harness.colors_nonhamiltonian": sum(
                sum(s == "support graph not Hamiltonian" for s in st)
                for st in stages
            ),
        }


def load_pool() -> dict:
    with open(POOL_PATH) as fh:
        return json.load(fh)


class SearchLarge(SearchWorkload):
    """Random colorings at (12,3,24): large per-call work, mixed verdicts.

    The inputs are drawn from a pool of pinned seeds: the pool, sorted by its
    seed-commit work, is cut into STRATA rank strata and the workload seed
    draws one coloring from each, so every seed's set has the same spread of
    easy and hard instances.
    """

    name = "search-large"
    STRATA = 40

    def __init__(self, seed: int):
        super().__init__(seed)
        pool = load_pool()
        self.params = HyperParams(*pool["params"])
        self.pins = {e["seed"]: e for e in pool["entries"]}
        usable = sorted(
            (e for e in pool["entries"] if e["work"] <= pool["work_cap"]),
            key=lambda e: (e["work"], e["seed"]),
        )
        m = len(usable)
        bounds = [m * i // self.STRATA for i in range(self.STRATA + 1)]
        rng = random.Random(seed)
        chosen = [
            rng.choice(usable[bounds[i] : bounds[i + 1]])["seed"]
            for i in range(self.STRATA)
        ]
        self.spare = next(e["seed"] for e in usable if e["seed"] not in chosen)
        # similar instances sit apart in the pass, so the calls that set a
        # quantile are timed at different moments
        rng.shuffle(chosen)
        for s in chosen:
            colors = self._colors(s)
            self.inputs.append(Input(f"seed{s}", self.params, colors))
        self.colorings_per_pass = len(self.inputs)

    def _colors(self, s: int) -> np.ndarray:
        return harness.gen_coloring(self.params, "random", seed=s).colors.copy()

    def warm_up(self):
        harness.find_mono_berge(Coloring(self.params, self._colors(self.spare)))

    def reference_verdict(self, inp):
        return self.pins[int(inp.key[len("seed"):])]["verdict"]


SMALL_SHAPES = [(6, 3, 3), (7, 3, 4), (7, 3, 5), (7, 4, 8), (8, 3, 6), (8, 3, 8)]


class SearchSmall(SearchWorkload):
    """Many small random colorings: per-call fixed costs dominate.

    Each verdict is checked against `naive_oracle`, which shares no search
    code with `find_mono_berge`.
    """

    name = "search-small"
    PER_SHAPE = 200

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = random.Random(seed)
        self.spares = []
        for shape in SMALL_SHAPES:
            params = HyperParams(*shape)
            for _ in range(self.PER_SHAPE):
                s = rng.getrandbits(32)
                colors = harness.gen_coloring(params, "random", seed=s).colors.copy()
                self.inputs.append(Input(f"{shape}:{s}", params, colors))
            spare = harness.gen_coloring(params, "random", seed=rng.getrandbits(32))
            self.spares.append(spare)
        rng.shuffle(self.inputs)
        self.colorings_per_pass = len(self.inputs)

    def warm_up(self):
        for spare in self.spares:
            harness.find_mono_berge(Coloring(spare.params, spare.colors))

    def reference_verdict(self, inp):
        return harness.naive_oracle(Coloring(inp.params, inp.colors)).verdict


# -- exhaustive_verify -------------------------------------------------------

# (n, r, k) -> (total, success, failure), exact at the seed commit
EXHAUST_PINS = {
    (6, 4, 2): (32768, 32768, 0),
    (5, 4, 3): (243, 3, 240),
    (5, 3, 2): (1024, 1024, 0),
    (6, 5, 2): (64, 2, 62),
}


class Exhaust(Workload):
    """Serial exhaustive sweeps; no Hamiltonian search or extension code runs.

    The sweep spaces are fixed, so the seed does not change this workload's
    inputs.  verdict_ms_* read the (6,4,2) sweep calls only: the other three
    sweeps take milliseconds and would put the median between two sizes.
    """

    name = "exhaust"
    entry_name = "harness.exhaustive_verify"
    latency_keys = {"6-4-2"}

    def __init__(self, seed: int):
        super().__init__(seed)
        for shape in EXHAUST_PINS:
            self.inputs.append(Input("-".join(map(str, shape)), HyperParams(*shape), None))
        self.colorings_per_pass = sum(p[0] for p in EXHAUST_PINS.values())

    def entry(self, params):
        return harness.exhaustive_verify(params, workers=1)

    def warm_up(self):
        # one single-coloring sweep per (n, r) shape used above
        for n, r, _ in EXHAUST_PINS:
            harness.exhaustive_verify(HyperParams(n, r, 1))

    def signature(self, rep) -> tuple:
        return (rep.total, rep.success, rep.failure, tuple(rep.counterexamples))

    def check(self, inp, rep) -> Optional[str]:
        p = inp.params
        want = EXHAUST_PINS[(p.n, p.r, p.k)]
        got = (rep.total, rep.success, rep.failure)
        if got != want:
            return f"sweep {got}, pinned {want}"
        if len(rep.counterexamples) != min(rep.failure, rep.MAX_STORED):
            return f"{len(rep.counterexamples)} counterexamples kept"
        for text in rep.counterexamples:
            coloring = Coloring(p, [int(c) for c in text.split()])
            if harness.naive_oracle(coloring).verdict != "not-found":
                return f"counterexample {text!r} has a cycle"
        return None

    def run_checks(self, results):
        problems = []
        for inp, one in zip(self.inputs, results):
            eight = harness.exhaustive_verify(inp.params, shards=8)
            if isinstance(one, Exception) or self.signature(one) != self.signature(eight):
                problems.append(f"{inp.key}: shards=1 and shards=8 disagree")
        return len(self.inputs), problems


# -- constructive_find -------------------------------------------------------


class Construct(Workload):
    """The constructive pipeline on both fixtures.

    A pass calls the case-1 fixture three times and the case-2 fixture once,
    so the median call is a case-1 call and the tail is a case-2 call, and
    neither statistic straddles the two sizes.  The fixtures are fixed
    instances; the seed only draws the warm-up inputs.
    """

    name = "construct"
    entry_name = "construct.constructive_find"

    def __init__(self, seed: int):
        super().__init__(seed)
        one, two = case1_fixture(), case2_fixture()
        c1 = Input("case1", one.params, one.colors.copy())
        c2 = Input("case2", two.params, two.colors.copy(),
                   {"d_bound": 0, "good_threshold": 2})
        self.inputs = [c1, c1, c1, c2]
        self.colorings_per_pass = len(self.inputs)
        rng = random.Random(seed)
        self.spares = [
            harness.gen_coloring(p, "random", seed=rng.getrandbits(32))
            for p in (one.params, two.params)
        ]

    def entry(self, coloring, **kwargs):
        return construct.constructive_find(coloring, **kwargs)

    def warm_up(self):
        for spare in self.spares:
            construct.constructive_find(Coloring(spare.params, spare.colors))

    def signature(self, out) -> tuple:
        cycle = out.cycle
        cert = None if cycle is None else (
            tuple(cycle.core), tuple(int(e) for e in cycle.edges), cycle.color
        )
        return (out.stage, out.color, cert)

    def check(self, inp, out) -> Optional[str]:
        if out.stage != "done":
            return f"stopped at stage {out.stage!r}: {out.detail}"
        if out.cycle is None or out.cycle.color != out.color:
            return "outcome color and cycle color differ"
        problem = _cycle_error(out.cycle, inp.colors, inp.params)
        return f"certificate rejected: {problem}" if problem else None

    def counters(self, results) -> dict[str, float]:
        return {
            "harness.colorings_classified": len(results),
            "construct.done_frac": sum(r.stage == "done" for r in results)
            / len(results),
        }


WORKLOADS = {w.name: w for w in (SearchLarge, SearchSmall, Exhaust, Construct)}

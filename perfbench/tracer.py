"""Spans and counters recorded from outside the program.

The tracer replaces functions in bergeham's module namespaces with wrappers,
so each call a module makes to another layer opens a span.  Spans live in
memory as [name, start_ns, end_ns, parent, call_id] and are written out when
the run ends.  A layer's self time is its spans' durations minus those of
their children.

Per-edge helpers such as `rank_edge` and `unrank_edge` are not wrapped: they
run millions of times per pass and the wrapper would cost more than they do.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter_ns

# (module, attribute, span name).  Each entry wraps the name as the calling
# module sees it, so only calls made from that module are traced.
WRAP_POINTS = [
    ("bergeham.harness", "build_candidates", "extend.build_candidates"),
    ("bergeham.harness", "extend_matching", "extend.matching"),
    ("bergeham.harness", "find_hamiltonian_cycle", "hamilton.find_cycle"),
    ("bergeham.harness", "iter_hamiltonian_cycles", "hamilton.iter_cycles"),
    ("bergeham.harness", "verify_berge_cycle", "hypercore.verify"),
    ("bergeham.harness", "Coloring", "hypercore.coloring_init"),
    ("bergeham.harness", "constructive_find", "construct.constructive_find"),
    ("bergeham.construct", "ColorProfile", "shadow.profile"),
    ("bergeham.construct", "witness_search", "construct.witness"),
    ("bergeham.construct", "build_gamma_case1", "construct.gamma"),
    ("bergeham.construct", "build_gamma_case2", "construct.gamma"),
    ("bergeham.construct", "extend_greedy_ordered", "extend.greedy"),
    ("bergeham.construct", "build_candidates", "extend.build_candidates"),
    ("bergeham.construct", "extend_matching", "extend.matching"),
    ("bergeham.construct", "find_hamiltonian_cycle", "hamilton.find_cycle"),
    ("bergeham.extend", "verify_berge_cycle", "hypercore.verify"),
]

# Generators get one span per resumption, so time spent by the consumer
# between two yields is not charged to the generator.
GENERATOR_SPANS = {"hamilton.iter_cycles"}

# Counter names kept next to the call counts.
MATCH_HITS = "extend.matching.hits"
CORES_YIELDED = "hamilton.cores_yielded"

# Construct calls these searches without a work counter, so no report carries
# their work.  The wrapper passes a counter of its own under the keyword
# named here and adds what it gathers to the count named here.
INJECTED_COUNTERS = {
    ("bergeham.construct", "find_hamiltonian_cycle"): ("counter", "hamilton.nodes"),
    ("bergeham.construct", "extend_matching"): ("work_counter", "extend.augmentations"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        if self._stack:
            parent = self._stack[-1]
            call_id = self.spans[parent][4]
        else:
            parent, call_id = -1, sid
        span = [name, 0, 0, parent, call_id]
        self.spans.append(span)
        self._stack.append(sid)
        span[1] = perf_counter_ns()
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][2] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name: str, inject=None):
        """`fn` with a span around each call and a call count.  With
        `inject` = (keyword, count name), a call that does not pass that
        keyword gets a counter of its own, added to the count afterwards."""
        begin, end, counts = self.begin, self.end, self.counts
        hits = name == "extend.matching"
        params = list(inspect.signature(fn).parameters) if inject else []
        if inject and inject[0] not in params:
            self.missing.append(f"{fn.__module__}.{fn.__name__}({inject[0]}=)")
            inject = None
        position = params.index(inject[0]) if inject else 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[name] += 1
            box = None
            if inject and len(args) <= position and inject[0] not in kwargs:
                box = kwargs[inject[0]] = [0]
            sid = begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                end(sid)
                if box is not None:
                    counts[inject[1]] += box[0]
            if hits and out is not None:
                counts[MATCH_HITS] += 1
            return out

        return traced

    def wrap_generator(self, fn, name: str):
        """Generator function `fn` with a span around each resumption."""
        begin, end, counts = self.begin, self.end, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[name] += 1
            gen = fn(*args, **kwargs)
            try:
                while True:
                    sid = begin(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        end(sid)
                    counts[CORES_YIELDED] += 1
                    yield item
            finally:
                gen.close()

        return traced

    # -- installing wrappers ----------------------------------------------

    def install(self) -> None:
        """Replace every wrap point present in the loaded modules."""
        if self._saved:
            return
        self.missing = []
        for module_name, attr, name in WRAP_POINTS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            if name in GENERATOR_SPANS:
                wrapped = self.wrap_generator(fn, name)
            else:
                wrapped = self.wrap(fn, name, INJECTED_COUNTERS.get((module_name, attr)))
            setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved = []

    # -- results -----------------------------------------------------------

    def self_seconds(self, lo: int, hi: int) -> dict[str, float]:
        """Self time per span name over spans[lo:hi], in seconds.

        Spans in the slice must be complete call trees: every parent of a
        span in the slice is in the slice or is -1.
        """
        spans = self.spans
        child_ns = [0] * (hi - lo)
        for i in range(lo, hi):
            name, start, stop, parent, _ = spans[i]
            if parent >= lo:
                child_ns[parent - lo] += stop - start
        out: dict[str, float] = defaultdict(float)
        for i in range(lo, hi):
            name, start, stop, _, _ = spans[i]
            out[name] += (stop - start - child_ns[i - lo]) / 1e9
        return out

    def dump(self, path: str) -> None:
        """Write all spans as gzipped JSON lines: name, start, end, parent, call."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")

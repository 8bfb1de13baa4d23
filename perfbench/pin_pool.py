"""Record the search-large pool: verdict and work counters per coloring seed.

    python3 perfbench/pin_pool.py --label "<commit>"

Runs `find_mono_berge` on `gen_coloring((12,3,24), "random", seed=s)` for
s = 0 .. POOL_SEEDS-1 and writes pins/search_large_pool.json.  The not-found
verdicts at n = 12 are the recorded outputs of the labelled commit, not
proofs: n = 12 is beyond `naive_oracle`.  Re-run only with code whose
verdicts are trusted, because the benchmark checks every search-large verdict
against this file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from bergeham import HyperParams, find_mono_berge, gen_coloring  # noqa: E402

PARAMS = (12, 3, 24)
# The pool's strata, its work cap and the figures in README.md are all tied
# to these seeds.
POOL_SEEDS = 400
# An augmentation costs about ten search nodes at the seed commit
# (build_candidates runs once per core, and a core takes n augmentations).
AUG_WEIGHT = 10
# Colorings above this work (about 1.2 s each at the seed commit, 7 % of the
# pool) are kept in the file but not drawn: one such draw would be a tenth of
# a pass and set the pass time by itself.
WORK_CAP = 400_000


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="the commit the pins come from")
    args = ap.parse_args()
    params = HyperParams(*PARAMS)
    entries = []
    for s in range(POOL_SEEDS):
        rep = find_mono_berge(gen_coloring(params, "random", seed=s))
        if rep.verdict == "undecided":
            raise SystemExit(f"seed {s} is undecided; it cannot be pinned")
        entries.append({
            "seed": s,
            "verdict": rep.verdict,
            "color": rep.color,
            "nodes": rep.nodes,
            "augmentations": rep.augmentations,
            "work": rep.nodes + AUG_WEIGHT * rep.augmentations,
        })
    head = {
        "params": list(PARAMS),
        "recorded_at": args.label,
        "work": f"nodes + {AUG_WEIGHT} * augmentations",
        "work_cap": WORK_CAP,
    }
    # one entry per line keeps the file diffable
    body = ",\n".join(json.dumps(e) for e in entries)
    with open(os.path.join(HERE, "pins", "search_large_pool.json"), "w") as fh:
        fh.write(json.dumps(head)[:-1] + ', "entries": [\n' + body + "\n]}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Monochromatic Hamiltonian Berge-cycles in edge-colored K_n^r.

Library layout:

- hypercore: colex edge indexing, colorings, Berge-cycles, verification
- graphs:    shared undirected graph type (bitmask adjacency)
- shadow:    good-color lists, color degrees, avoidance, bad-pair graphs
- hamilton:  Dirac/Chvatal checks, closure with cycle transfer, exact finder
- extend:    candidate tables, matching and ordered-greedy extension
- construct: witness search and the two auxiliary-graph pipelines
- harness:   end-user search, naive oracle, exhaustive verification
- fixtures:  synthetic colorings exercising each construction
"""

from .construct import (
    ConstructOutcome,
    GammaBuildError,
    GammaBundle,
    Witness,
    build_gamma_case1,
    build_gamma_case2,
    constructive_find,
    witness_search,
)
from .extend import (
    CandidateTable,
    PrefixSDR,
    build_candidates,
    extend_greedy_ordered,
    extend_matching,
)
from .graphs import Graph
from .hamilton import (
    CycleCertificate,
    SearchBudgetExceeded,
    chvatal_check,
    closure,
    dirac_check,
    find_hamiltonian_cycle,
    iter_hamiltonian_cycles,
    transfer_cycle,
)
from .harness import (
    ExhaustReport,
    SearchReport,
    exhaustive_verify,
    find_mono_berge,
    gen_coloring,
    naive_oracle,
    paper_threshold,
)
from .hypercore import (
    BergeCycle,
    Coloring,
    HyperParams,
    Violation,
    edge_members,
    pair_edges,
    pair_supersets,
    rank_edge,
    unrank_edge,
    verify_berge_cycle,
)
from .shadow import (
    ColorProfile,
    PartitionTRQ,
    avoids,
    bad_edge_graph,
    color_degree,
    default_degree_bound,
    find_avoiding_set,
    minimal_breaking_subgraph,
    partition_trq,
    u_sets,
)

__version__ = "0.1.0"

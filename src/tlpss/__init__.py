"""Temporal link prediction toolkit.

Scores candidate pairs of a timestamped undirected network by combining
time-decayed edge weights (adjusted sigmoid or exponential) with local
2-simplex structure: common neighbors plus latent edges toward hidden
nodes.  Ships the TLPSS score, six decay-weighted baseline indices, and a
time-ordered evaluation harness (AUC, precision@L, parameter sweeps).
"""

from .adjacency import (
    DegreeVector,
    PairLayout,
    WeightedAdjacency,
    build_adjacency,
    degree_vector,
    latent_matrix,
    pair_layout,
)
from .decay import (
    DecayParams,
    ExpDecayParams,
    asf_array,
    asf_floor,
    asf_log_margin,
    decay_floor,
    decay_weights,
)
from .edges import (
    DropReport,
    SnapshotConfig,
    TemporalEdgeList,
    TrainTestSplit,
    load_edge_list,
    normalize,
    pair_key,
    parse_edge_list,
    serialize,
    snapshot_index,
    split_by_time,
)
from .errors import (
    ConfigError,
    EmptyDatasetError,
    EvaluationError,
    ParseError,
    SplitError,
    TlpssError,
)
from .evaluation import (
    CandidateSet,
    EvalReport,
    auc,
    build_candidates,
    evaluate_methods,
    sweep,
)
from .scoring import ALL_METHODS, MethodId, score_matrix

__version__ = "0.1.0"

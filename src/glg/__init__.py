"""Gradient-leakage attack laboratory for graph neural networks.

Simulates federated gradient exchange for two-layer GCN and GraphSAGE
classifiers (node- and graph-level) and implements a full attack suite on
the leaked gradients: exact closed-form recoveries of features and
structure, label inference from gradient signs, and iterative
gradient-matching reconstruction with smoothness and sparsity
regularization, plus the evaluation metrics and experiment pipeline to
measure all of it.
"""

from .attacks import (
    AttackSpec,
    RecoveryResult,
    attack_batched,
    attack_graph,
    attack_node1,
    attack_node2,
    finalize_adjacency,
    frobenius_penalty,
    project_interval,
)
from .closed_form import (
    MatrixRecovery,
    recover_adjacency_given_features,
    recover_adjacency_graph_sage,
    recover_agg_features,
    recover_both_sage,
    recover_features_given_adjacency,
    recover_target_features,
)
from .errors import GlgError
from .federated import (
    ClientShard,
    FedRound,
    LeakRecord,
    aggregate_and_step,
    client_gradients,
    leak,
)
from .graphs import (
    Graph,
    NormalizedAdjacency,
    dummy_tree,
    er_graph,
    khop_egonet,
    laplacian,
    load_graph,
    normalize_adjacency,
    save_graph,
    synthetic_graph,
)
from .metrics import (
    adjacency_accuracy,
    auc,
    average_precision,
    batch_match_score,
    mae_lower_tri,
    rnmse,
    rnmse_per_row,
    score_adjacency,
)
from .models import (
    GradientBundle,
    ModelParams,
    backward_graph,
    backward_node,
    forward_graph,
    forward_node,
    infer_label,
    init_params,
)
from .numkit import (
    AdamState,
    adam_step,
    hungarian_assign,
    least_squares,
    make_rng,
    pseudoinverse,
    sample_bernoulli,
)

__version__ = "0.1.0"

"""Maximum cliques via closed-neighborhood quotients, a random intersection
graph model, and a Monte Carlo harness for the model's structural claims."""

from .graph import (Graph, GraphError, LabelRepresentation, build_graph,
                    build_labels, induced_graph, is_chordal, is_clique)
from .io import (FormatError, decode_graph, decode_labels, encode_graph,
                 encode_labels)
from .oracle import (CYCLE_FOUND, CYCLE_NONE, CYCLE_UNKNOWN, LabeledCycle,
                     SearchBudgetExceeded, check_labeled_cycle,
                     enumerate_maximal_cliques, exact_max_clique,
                     find_distinct_label_cycle)
from .quotient import Partition, closed_neighborhood_partition, find_max_clique
from .reconstruct import ReconstructionResult, reconstruct_labels, reps_equivalent
from .rig import (RigParams, max_clique_from_labels, resolve_params,
                  sample_label_representation, sample_membership, trial_rng)
from .experiments import (KINDS, PRESETS, ExperimentConfig, TrialStats,
                          label_deviation_bound, run_experiment, set_size_bound)

__all__ = [
    "Graph", "GraphError", "LabelRepresentation", "build_graph", "build_labels",
    "induced_graph", "is_chordal", "is_clique",
    "FormatError", "decode_graph", "decode_labels", "encode_graph", "encode_labels",
    "CYCLE_FOUND", "CYCLE_NONE", "CYCLE_UNKNOWN", "LabeledCycle",
    "SearchBudgetExceeded", "check_labeled_cycle", "enumerate_maximal_cliques",
    "exact_max_clique", "find_distinct_label_cycle",
    "Partition", "closed_neighborhood_partition", "find_max_clique",
    "ReconstructionResult", "reconstruct_labels", "reps_equivalent",
    "RigParams", "max_clique_from_labels", "resolve_params",
    "sample_label_representation", "sample_membership", "trial_rng",
    "KINDS", "PRESETS", "ExperimentConfig", "TrialStats",
    "label_deviation_bound", "run_experiment", "set_size_bound",
]

"""Influence maximization on evolving directed graphs.

Snapshots, change streams, cascade simulation, localized spread estimation,
static seed-selection baselines, and an incremental selector that updates
the top-K seeds from a change stream instead of recomputing from scratch.
"""

from .errors import (EmptyGraph, EvoinfError, InsufficientSeeds,
                     InvalidConfig, InvalidProbability, ParseError,
                     PreconditionViolation, ScenarioError, TooLarge,
                     UnknownNode)
from .graph import (AddEdge, AddNode, AddWeight, Change, ChangeStream,
                    DecWeight, GraphBuilder, RemoveEdge, RemoveNode, Snapshot,
                    apply_all, cascade_node_removal, diff,
                    read_change_stream, write_change_stream)
from .ingest import (FixedProb, TemporalEdge, TrivalencyProb,
                     load_temporal_edges, parse_prob_policy, snapshot_at)
from .simulate import SpreadEstimate, exact_spread, simulate_spread
from .localize import (LocalRegion, activation_prob, local_region,
                       mia_spread)
from .select import (SeedResult, degree_select, greedy_select, mia_select,
                     random_select)
from .incremental import (DeltaTable, EvolutionContext, PruneConfig,
                          accumulate_deltas, delta_add_edge,
                          delta_remove_edge, delta_node, incinf_select,
                          prune)
from .generate import GenConfig, generate_evolving
from .analytics import (degree_distribution, degree_ranks, growth_stats,
                        influence_degree_rank, pa_correlation,
                        powerlaw_slope)

__version__ = "0.1.0"

__all__ = [
    "AddEdge", "AddNode", "AddWeight", "Change", "ChangeStream", "DecWeight",
    "DeltaTable", "EmptyGraph", "EvoinfError", "EvolutionContext",
    "FixedProb", "GenConfig", "GraphBuilder", "InsufficientSeeds",
    "InvalidConfig", "InvalidProbability", "LocalRegion",
    "ParseError", "PreconditionViolation", "PruneConfig", "RemoveEdge",
    "RemoveNode", "ScenarioError", "SeedResult", "Snapshot", "SpreadEstimate",
    "TemporalEdge", "TooLarge", "TrivalencyProb", "UnknownNode",
    "accumulate_deltas", "activation_prob", "apply_all",
    "cascade_node_removal", "degree_distribution",
    "degree_ranks", "degree_select", "delta_add_edge", "delta_node",
    "delta_remove_edge", "diff", "exact_spread", "generate_evolving",
    "greedy_select", "growth_stats", "incinf_select",
    "influence_degree_rank", "load_temporal_edges", "local_region",
    "mia_select", "mia_spread", "pa_correlation",
    "parse_prob_policy", "powerlaw_slope", "prune", "random_select",
    "read_change_stream", "simulate_spread", "snapshot_at",
    "write_change_stream",
]

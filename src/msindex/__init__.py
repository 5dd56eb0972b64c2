"""Multi-sender uniprior multicast index coding: bounds, codes, oracle."""

from .model import (GraphPair, InstanceError, ProblemInstance, build_graphs,
                    parse_instance, simplify)
from .graphs import (DegeneracyWitness, LeafClass, SccReport, classify_all,
                     classify_leaf_scc, grounded_set, is_grounded_digraph,
                     scc_decompose, to_dot)
from .bound import (GroundingTrace, append_dummy, break_leaf_sccs,
                    lower_bound, lower_bound_prune_all, make_message_connected,
                    prune_scc, run_grounding)
from .code import (CodeBlueprint, CodeRow, LinearIndexCode, Tree,
                   assign_senders, find_connecting_trees, plan_code,
                   upper_bound)
from .analysis import Analysis, analyze
from .verify import (DecodeCertificate, DecodeFailure, GuardError,
                     min_linear_length, oracle_min_linear, rank_decodable,
                     verify_exhaustive)

__version__ = "0.1.0"

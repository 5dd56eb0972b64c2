"""One pipeline from an instance to its bounds, code and linear optimum.

Each stage runs once, when first read, with the checks that tie it to the
others: a failed check raises ``AssertionError``.
"""

from __future__ import annotations

from functools import cached_property

from . import bound, code, verify
from .model import GraphPair, ProblemInstance, build_graphs, simplify


class Analysis:
    """An instance, its simplified form and graphs, and its lazy stages."""

    def __init__(self, instance: ProblemInstance, simple: ProblemInstance,
                 removed: frozenset[int], graphs: GraphPair, exhaustive: bool):
        self.instance, self.simple, self.removed = instance, simple, removed
        self.graphs, self.exhaustive = graphs, exhaustive

    @cached_property
    def trace(self) -> bound.GroundingTrace:
        """Exhaustive mode takes the rank-checked upper bound as a ceiling."""
        if not self.exhaustive:
            return bound.run_grounding(self.graphs)
        return bound.run_grounding(self.graphs, "exhaustive", ceiling=self.upper_bound)

    @cached_property
    def lower_bound(self) -> int:
        return bound.lower_bound(self.trace)

    @cached_property
    def trees(self) -> list[code.Tree]:
        return code.find_connecting_trees(self.graphs)

    @cached_property
    def planned(self) -> code.LinearIndexCode:
        """The tree-based XOR code, checked by the rank test."""
        planned = code.assign_senders(
            self.simple, code.plan_code(self.graphs, self.trees))
        check = verify.rank_decodable(planned, self.simple)
        if isinstance(check, verify.DecodeFailure):
            raise AssertionError(f"planned code failed verification at {check}")
        return planned

    @cached_property
    def upper_bound(self) -> int:
        counted = code.upper_bound(self.graphs, self.trees)
        if counted != self.planned.length:
            raise AssertionError(f"planned code length {self.planned.length} "
                                 f"!= counted bound {counted}")
        return counted

    @cached_property
    def oracle(self) -> tuple[int, code.LinearIndexCode]:
        """The minimum linear codelength and a witness code of that
        length, checked by the rank test.  Past ``verify.ORACLE_LIMIT``
        messages the oracle raises ``GuardError`` before either bound is
        read."""
        length, witness = verify.oracle_min_linear(self.simple)
        if not self.lower_bound <= length <= self.upper_bound:
            raise AssertionError(f"bound sandwich violated: "
                                 f"{self.lower_bound} <= {length} <= {self.upper_bound}")
        check = verify.rank_decodable(witness, self.simple)
        if isinstance(check, verify.DecodeFailure):
            raise AssertionError(f"oracle witness failed verification at {check}")
        if witness.length != length:
            raise AssertionError(f"oracle witness length {witness.length} "
                                 f"!= oracle length {length}")
        return length, witness


def analyze(instance: ProblemInstance, exhaustive: bool = False) -> Analysis:
    """Simplify ``instance`` and build its graphs; ``exhaustive`` picks the
    exhaustive grounding search for the lower bound."""
    simple, removed = simplify(instance)
    return Analysis(instance, simple, removed, build_graphs(simple), exhaustive)

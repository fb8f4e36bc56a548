"""Product-based possibilistic networks.

A network is a DAG over binary variables; each node carries a table of
conditional possibility degrees for both of its values given every
complete instantiation of its parents. The joint distribution is the
chain-rule product of the selected cells. Networks are value objects:
immutable after construction, evaluated eagerly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator, Mapping

from .errors import DomainError, NetworkSchemaError
from .model import Distribution, Interpretation, Var, as_weight, interpretations

Assignment = tuple[bool, ...]
Cell = tuple[Assignment, bool, Fraction]


@dataclass(frozen=True)
class CPT:
    """Conditional possibility table of one variable.

    Cells are stored canonically, sorted by parent assignment (False before
    True, parents in their listed order) then polarity, so equal tables are
    byte-stable under serialization. Completeness (all 2^|parents| x 2
    cells) is enforced; the normalization condition is audited separately
    by `check_normalization` so that imperfect tables can still be loaded
    and inspected.
    """

    var: Var
    parents: tuple[Var, ...]
    cells: tuple[Cell, ...]
    _table: Mapping[tuple[Assignment, bool], Fraction] = field(
        init=False, repr=False, compare=False, default=None
    )

    def __init__(self, var: Var, parents: Iterable[Var], table):
        parents = tuple(parents)
        if var in parents:
            raise DomainError(f"{var} cannot be its own parent")
        if len(set(parents)) != len(parents):
            raise DomainError("duplicate parent")
        cooked: dict[tuple[Assignment, bool], Fraction] = {}
        items = table.items() if isinstance(table, Mapping) else table
        for (assignment, polarity), weight in items:
            if not isinstance(weight, Fraction):
                weight = as_weight(weight)
            cooked[(tuple(bool(x) for x in assignment), bool(polarity))] = weight
        # Distinct keys whose assignments each give every parent a value
        # form the whole table exactly when there are 2^(k+1) of them, so
        # completeness is checked without enumerating the table's keys.
        size = 2 << len(parents)
        if len(cooked) != size or any(len(a) != len(parents) for a, _ in cooked):
            raise DomainError(f"table for {var} must define exactly {size} cells")
        cells = tuple(sorted((a, p, w) for (a, p), w in cooked.items()))
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "parents", parents)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "_table", cooked)

    def cell(self, assignment: Assignment, polarity: bool) -> Fraction:
        try:
            return self._table[(tuple(assignment), polarity)]
        except KeyError:
            raise DomainError(
                f"no cell for assignment {assignment} of {self.var}"
            ) from None

    def columns(self) -> Iterator[tuple[Assignment, Fraction, Fraction]]:
        """Yield (parent assignment, degree of negative value, degree of
        positive value) for every column."""
        for assignment in product((False, True), repeat=len(self.parents)):
            yield assignment, self.cell(assignment, False), self.cell(assignment, True)


@dataclass(frozen=True)
class Network:
    """A DAG of CPTs; node order is the evaluation/serialization order."""

    nodes: tuple[CPT, ...]

    def __init__(self, nodes: Iterable[CPT]):
        nodes = tuple(nodes)
        names = [n.var for n in nodes]
        if len(set(names)) != len(names):
            raise NetworkSchemaError("duplicate node variable")
        known = set(names)
        for n in nodes:
            for p in n.parents:
                if p not in known:
                    raise NetworkSchemaError(
                        f"parent {p} of {n.var} is not a node"
                    )
        _check_acyclic(nodes)
        object.__setattr__(self, "nodes", nodes)

    @property
    def variables(self) -> tuple[Var, ...]:
        return tuple(n.var for n in self.nodes)

    def node_for(self, var: Var) -> CPT:
        for n in self.nodes:
            if n.var == var:
                return n
        raise DomainError(f"no node for variable {var}")


def _check_acyclic(nodes: tuple[CPT, ...]) -> None:
    children: dict[Var, list[Var]] = {n.var: [] for n in nodes}
    indegree = {n.var: len(n.parents) for n in nodes}
    for n in nodes:
        for p in n.parents:
            children[p].append(n.var)
    ready = [v for v, d in indegree.items() if d == 0]
    seen = 0
    while ready:
        v = ready.pop()
        seen += 1
        for c in children[v]:
            indegree[c] -= 1
            if indegree[c] == 0:
                ready.append(c)
    if seen != len(nodes):
        raise NetworkSchemaError("parent links form a cycle")


def chain_rule_eval(n: Network, w: Interpretation) -> Fraction:
    """Joint degree of one world: the product over nodes of the cell
    selected by the world's values at the node and its parents."""
    result = Fraction(1)
    for cpt in n.nodes:
        assignment = tuple(w.value(p) for p in cpt.parents)
        result *= cpt.cell(assignment, w.value(cpt.var))
    return result


def network_distribution(n: Network) -> Distribution:
    """The full joint distribution induced by the chain rule."""
    universe = n.variables
    return Distribution(
        universe, tuple(chain_rule_eval(n, w) for w in interpretations(universe))
    )


@dataclass(frozen=True)
class NormalizationViolation:
    var: Var
    assignment: Assignment
    maximum: Fraction

    def __str__(self) -> str:
        return f"{self.var}: column {self.assignment} has max {self.maximum}"


def check_normalization(n: Network) -> tuple[NormalizationViolation, ...]:
    """Every CPT column must reach degree 1 on one of the two values.
    Returns the offending columns; an empty report means the network is
    well-formed."""
    bad = []
    for cpt in n.nodes:
        for assignment, neg, pos in cpt.columns():
            if max(neg, pos) != 1:
                bad.append(NormalizationViolation(cpt.var, assignment, max(neg, pos)))
    return tuple(bad)

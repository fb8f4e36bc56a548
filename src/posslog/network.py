"""Product-based possibilistic networks.

A network is a DAG over binary variables; each node carries a table of
conditional possibility degrees for both of its values given every
complete instantiation of its parents. The joint distribution is the
chain-rule product of the selected cells. Networks are value objects:
immutable after construction, evaluated eagerly.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator

from .errors import DomainError, NetworkSchemaError
from .model import Distribution, Interpretation, Var, _degrees, _Value, interpretations

Assignment = tuple[bool, ...]
Cell = tuple[Assignment, bool, Fraction]


def _column(assignment: Iterable[bool]) -> int:
    """The number of the column of a parent assignment (see `CPT`)."""
    i = 0
    for value in assignment:
        i = i << 1 | bool(value)
    return i


def check_parents(var: Var, parents: tuple[Var, ...]) -> None:
    """Raises `DomainError` when `var` is among its parents or a parent
    repeats."""
    if var in parents:
        raise DomainError(f"{var} cannot be its own parent")
    if len(set(parents)) != len(parents):
        raise DomainError("duplicate parent")


class CPT(_Value):
    """Conditional possibility table of one variable.

    The table is two columns of degrees, `neg[i]` = Π(¬x | u) and
    `pos[i]` = Π(x | u), where column i is the parent assignment u that
    reads i in binary, first parent most significant: the order of
    product((False, True), repeat=len(parents)). Each column must hold
    2^|parents| degrees in [0, 1]; unless every degree of a column is a
    `Fraction`, each is read by `as_weight`. The normalization condition is
    audited separately by `check_normalization` so that imperfect tables
    can still be loaded and inspected.
    """

    __slots__ = _fields = ("var", "parents", "neg", "pos")
    var: Var
    parents: tuple[Var, ...]
    neg: tuple[Fraction, ...]
    pos: tuple[Fraction, ...]

    def __init__(
        self,
        var: Var,
        parents: Iterable[Var],
        neg: Iterable[object],
        pos: Iterable[object],
    ) -> None:
        parents = tuple(parents)
        check_parents(var, parents)
        neg, pos = _degrees(neg), _degrees(pos)
        if not len(neg) == len(pos) == 1 << len(parents):
            raise DomainError(f"columns of {var} must hold {1 << len(parents)} degrees")
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "parents", parents)
        object.__setattr__(self, "neg", neg)
        object.__setattr__(self, "pos", pos)

    @property
    def cells(self) -> tuple[Cell, ...]:
        """Every (parent assignment, polarity, degree) cell, sorted by
        assignment (False before True) then polarity."""
        return tuple(
            cell
            for assignment, neg, pos in self.columns()
            for cell in ((assignment, False, neg), (assignment, True, pos))
        )

    def cell(self, assignment: Assignment, polarity: bool) -> Fraction:
        assignment = tuple(assignment)
        if len(assignment) != len(self.parents):
            raise DomainError(f"no cell for assignment {assignment} of {self.var}")
        return (self.pos if polarity else self.neg)[_column(assignment)]

    def columns(self) -> Iterator[tuple[Assignment, Fraction, Fraction]]:
        """Yield (parent assignment, degree of negative value, degree of
        positive value) for every column, in column-number order."""
        assignments = product((False, True), repeat=len(self.parents))
        return zip(assignments, self.neg, self.pos)


class Network(_Value):
    """A DAG of CPTs; node order is the evaluation/serialization order."""

    __slots__ = _fields = ("nodes",)
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
        column = cpt.pos if w.value(cpt.var) else cpt.neg
        result *= column[_column(w.value(p) for p in cpt.parents)]
    return result


def network_distribution(n: Network) -> Distribution:
    """The full joint distribution induced by the chain rule."""
    universe = n.variables
    return Distribution(
        universe, tuple(chain_rule_eval(n, w) for w in interpretations(universe))
    )


class NormalizationViolation(_Value):
    __slots__ = _fields = ("var", "assignment", "maximum")

    def __init__(self, var: Var, assignment: Assignment, maximum: Fraction):
        self._set(var, assignment, maximum)

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

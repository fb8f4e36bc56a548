"""Compiling a weighted base into a product-based possibilistic network.

The pipeline fixes an elimination ordering and peels variables off one at
a time. At each stage the current base determines the node's parents and
its conditional table, then the variable is forgotten via the marginal
base, and the next stage starts from the result. Parents always lie later
in the ordering, so the edge set is acyclic by construction, and the
chain-rule product over the emitted tables reproduces the input base's
distribution exactly.

Parent determination starts from the variables sharing a clause with the
node. That seed can be too small: once the node is derivable to some
positive degree in a given parent context, any remaining clause can shift
that context's conditional degree when instantiated against, either by
drowning the derivation outright under a stronger conflict or by
rescaling the product-conditioned ratio through a weaker one. So whenever
a parent instantiation leaves the node derivable (to any positive degree,
for either value), the variables of every clause of the conditioned base
not mentioning the node join the parent set, and the sweep restarts. If
the node is underivable both ways in a context, no completion of that
context can move its conditionals off 1, and nothing needs to be added.
The loop is monotone over a finite universe, hence terminates. The
resulting parent sets are sufficient for exactness but not guaranteed
minimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import DomainError, InconsistentBaseError, ResourceCapError
from .marginalize import marginal_base
from .model import ONE, Literal, Var, WeightedBase
from .network import CPT, Network, check_parents
from .normalize import remove_subsumed, remove_tautologies, to_clausal
from .semantics import _levels, _truth_tables, inconsistency_degree
from .semantics import certainty_degree  # not called here; bench/tracing.py wraps it here

# Most cells a node's table may have: 2 per parent instantiation, so at most
# 19 parents. `parse_network` holds every node it reads to the same cap.
MAX_CPT_CELLS = 1 << 20


@dataclass(frozen=True)
class Ordering:
    """An elimination order: first variable is eliminated first, and a
    node's parents may only be later variables."""

    sequence: tuple[Var, ...]

    def __init__(self, sequence: Iterable[Var]):
        sequence = tuple(sequence)
        if len(set(sequence)) != len(sequence):
            raise DomainError("ordering repeats a variable")
        object.__setattr__(self, "sequence", sequence)

    @classmethod
    def of(cls, sequence) -> "Ordering":
        return sequence if isinstance(sequence, Ordering) else cls(sequence)

    def position(self, var: Var) -> int:
        try:
            return self.sequence.index(var)
        except ValueError:
            raise DomainError(f"{var} not in ordering") from None

    def validate_for(self, variables: Iterable[Var]) -> None:
        expected = set(variables)
        if set(self.sequence) != expected or len(self.sequence) != len(expected):
            raise DomainError("ordering must list each base variable exactly once")


def immediate_parents(b: WeightedBase, var: Var) -> frozenset[Var]:
    """Variables that share a clause with `var` (either polarity)."""
    if not b.is_clausal:
        raise DomainError("immediate_parents requires a clausal base")
    out: set[Var] = set()
    for c, _ in b.entries:
        if var in c.variables:
            out |= c.variables
    out.discard(var)
    return frozenset(out)


def _check_cells(var: Var, parents: int) -> None:
    """Raises `ResourceCapError` when a table of `var` given that many
    parents would have more than `MAX_CPT_CELLS` cells."""
    cells = 2 << parents
    if cells > MAX_CPT_CELLS:
        raise ResourceCapError(
            f"the table of {var} would have {cells} cells,"
            f" more than the cap of {MAX_CPT_CELLS}"
        )


def hidden_parent_closure(
    b: WeightedBase, var: Var, seed: Iterable[Var]
) -> frozenset[Var]:
    """Grow `seed` until no parent instantiation exposes an influencing
    clause (see the module docstring for the rule and its rationale).

    Each round sweeps the columns of `var`'s table given the parents in
    name order, so runs are reproducible. A candidate clause, one that
    could bring a fresh parent, stands in a column when the column makes
    each of its literals on a parent false: its mask of columns is the AND
    of those literals' false columns, read off the parents' truth tables
    (column i is world i). A round with no candidate standing anywhere
    ends the closure. Otherwise the first column that is derivable, not
    (1, 1) in `_Levels.column_levels`, and has a candidate standing adds
    those candidates' variables, and the next round starts. Each entry's
    variables and literals are read once per call.
    """
    levels = _levels(b, "hidden_parent_closure")
    clauses = []  # (variables, literals) of each entry not on `var`
    for c, _ in b.entries:
        variables = c.variables
        if var not in variables:
            clauses.append((variables, c.literals))
    parents = set(seed) - {var}
    while True:
        names = tuple(sorted(parents))
        _check_cells(var, len(names))
        full = (1 << (1 << len(names))) - 1
        true_in = dict(zip(names, _truth_tables(len(names))))
        candidates = []
        for variables, literals in clauses:
            if variables <= parents:
                continue
            mask = full
            for lit in literals:
                table = true_in.get(lit.var)
                if table is not None:
                    mask &= full ^ table if lit.positive else table
            if mask:
                candidates.append((variables, mask))
        if not candidates:
            return frozenset(parents)
        stands = 0
        for _, mask in candidates:
            stands |= mask
        standing = f"{stands:0{full.bit_length()}b}"[::-1]  # column i at i
        for i, (neg, pos) in enumerate(levels.column_levels(var, names)):
            if neg != pos and standing[i] == "1":
                for variables, mask in candidates:
                    if mask >> i & 1:
                        parents |= variables
                break
        else:
            return frozenset(parents)


def _conditional(context_degree: Fraction, joint_degree: Fraction) -> Fraction:
    """Π(x | c) = Π(c ∧ x) / Π(c) from the inconsistency degrees of c and
    of c ∧ x; an impossible context makes x fully possible by convention."""
    h = ONE - context_degree
    return ONE if h == 0 else (ONE - joint_degree) / h


def conditional_possibility(
    b: WeightedBase, lit: Literal, context: Iterable[Literal]
) -> Fraction:
    """Product-based conditional degree of `lit` given a literal context.

    h is the degree of the context alone, h' the degree of context plus
    literal, both read off the base's weight levels with the literals as
    hard facts: the one-column case of `cpt_for`.
    """
    levels = _levels(b, "conditional_possibility")
    context = tuple(context)
    return _conditional(
        levels.inconsistency(context), levels.inconsistency((*context, lit))
    )


def cpt_for(b: WeightedBase, var: Var, parents: Sequence[Var]) -> CPT:
    """The full conditional table of `var` given `parents`, one column per
    parent instantiation, both polarities per column.

    Column i is the parent instantiation u that reads i in binary. h' is
    asked once per polarity and h not at all: Π(u) = max(Π(u ∧ ¬x),
    Π(u ∧ x)), so u's level is the larger of the two. The weight levels
    hand over each column's pair of levels in column order
    (`_Levels.column_levels`). The answers are level indices, and the few
    distinct pairs of them share one column each. The half at u's own
    level has degree 1, Π(u ∧ x) / Π(u) with equal terms, so a column needs
    one division at most.
    """
    parents = tuple(parents)
    _check_cells(var, len(parents))
    check_parents(var, parents)
    levels = _levels(b, "cpt_for")
    degrees = levels.degrees
    cells: dict[tuple[int, int], tuple[Fraction, ...]] = {}
    columns = []
    for key in levels.column_levels(var, parents):
        cell = cells.get(key)
        if cell is None:
            top = max(key)
            h = degrees[top]
            cell = cells[key] = tuple(
                ONE if i == top else _conditional(h, degrees[i]) for i in key
            )
        columns.append(cell)
    return CPT(var, parents, *zip(*columns))


@dataclass(frozen=True)
class StageSummary:
    """Per-variable compilation trace, for logging and inspection. The
    node and its parents, in ordering order, are `cpt.var` and
    `cpt.parents`."""

    index: int
    stage_entries: int
    cpt: CPT
    marginal_entries: int


def compile_stages(b: WeightedBase, ordering) -> Iterator[StageSummary]:
    """Compile a consistent base one variable at a time, yielding each
    stage's summary (with its table) as soon as the variable is forgotten.

    The base is first clausalized, tautology-freed and subsumption-reduced;
    an inconsistent input is rejected with its inconsistency degree when
    iteration starts. Each stage computes the node's parents and table
    from the current base, then forgets the variable. A node whose table
    would have more than `MAX_CPT_CELLS` cells raises `ResourceCapError`
    before its parent instantiations are swept.
    """
    ordering = Ordering.of(ordering)
    ordering.validate_for(b.variables)
    stage = remove_subsumed(remove_tautologies(to_clausal(b)))
    inc = inconsistency_degree(stage)
    if inc != 0:
        raise InconsistentBaseError(inc)
    for i, var in enumerate(ordering.sequence):
        parents = hidden_parent_closure(stage, var, immediate_parents(stage, var))
        cpt = cpt_for(stage, var, sorted(parents, key=ordering.position))
        stage_entries = len(stage)
        stage = marginal_base(stage, var)
        yield StageSummary(
            index=i,
            stage_entries=stage_entries,
            cpt=cpt,
            marginal_entries=len(stage),
        )


def compile_network(b: WeightedBase, ordering) -> Network:
    """Compile a consistent base into a product-based network whose
    chain-rule distribution equals the base's distribution exactly
    (see `compile_stages`)."""
    return Network(s.cpt for s in compile_stages(b, ordering))

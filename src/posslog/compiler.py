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

from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter
from typing import Iterable, Iterator, Sequence

from .errors import DomainError, InconsistentBaseError, ResourceCapError
from .marginalize import _marginal
from .marginalize import marginal_base  # not called here; bench/tracing.py wraps it here
from .model import ONE, Literal, Var, WeightedBase
from .network import CPT, Network, check_parents
from .normalize import to_clausal
from .normalize import remove_subsumed, remove_tautologies  # not called here; bench/tracing.py wraps it here
from .semantics import (
    _ClauseBits,
    _encoded,
    _layout,
    _Levels,
    _levels,
    _literal_bits,
    _negations,
    _reduce,
)
from .semantics import certainty_degree, inconsistency_degree  # not called here; bench/tracing.py wraps it here

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

    def validate_for(self, variables: Iterable[Var]) -> None:
        expected = set(variables)
        if set(self.sequence) != expected or len(self.sequence) != len(expected):
            raise DomainError("ordering must list each base variable exactly once")


def _seed(codec: _ClauseBits, entries: list[tuple[int, int]], var: Var) -> int:
    """`immediate_parents` on integer clauses: the mask of the pairs of
    every clause on `var`'s pair, less that pair."""
    own = codec.pairs.get(var, 0) * 3  # both bits of var's pair
    touched = 0
    for c, _ in entries:
        if c & own:
            touched |= c
    return codec.span(touched) & ~own


def immediate_parents(b: WeightedBase, var: Var) -> frozenset[Var]:
    """Variables that share a clause with `var` (either polarity)."""
    codec, entries, _ = _encoded(b, "immediate_parents")
    return frozenset(codec.variables(_seed(codec, entries, var)))


def _check_cells(var: Var, parents: int) -> None:
    """Raises `ResourceCapError` when a table of `var` given that many
    parents would have more than `MAX_CPT_CELLS` cells."""
    cells = 2 << parents
    if cells > MAX_CPT_CELLS:
        raise ResourceCapError(
            f"the table of {var} would have {cells} cells,"
            f" more than the cap of {MAX_CPT_CELLS}"
        )


def _closure(
    codec: _ClauseBits,
    entries: list[tuple[int, int]],
    levels: _Levels,
    var: Var,
    parents: int,
    free: int = 0,
) -> int:
    """`hidden_parent_closure` on integer clauses, with the parents as a
    mask of pairs (`_ClauseBits.span`) and `free` more parents that no
    clause mentions: they only widen the table, since a column's levels
    and each clause's standing repeat over their values."""
    own = codec.pairs.get(var, 0) * 3  # both bits of var's pair
    clauses = [c for c, _ in entries if not c & own]
    while True:
        names = tuple(codec.variables(parents))
        _check_cells(var, len(names) + free)
        full, tables = _layout([codec.pairs[v] for v in names])
        candidates = []
        for c in clauses:
            if not c & ~parents:
                continue
            mask = full  # the columns that make each literal on a parent false
            for bit in _literal_bits(_negations(c & parents)):
                mask &= tables[bit]
            if mask:
                candidates.append((c, mask))
        if not candidates:
            return parents
        stands = 0
        for _, mask in candidates:
            stands |= mask
        standing = f"{stands:0{full.bit_length()}b}"[::-1]  # column i at i
        for i, (neg, pos) in enumerate(levels.column_levels(var, names)):
            if neg != pos and standing[i] == "1":
                for c, mask in candidates:
                    if mask >> i & 1:
                        parents |= codec.span(c)
                break
        else:
            return parents


def hidden_parent_closure(
    b: WeightedBase, var: Var, seed: Iterable[Var]
) -> frozenset[Var]:
    """Grow `seed` until no parent instantiation exposes an influencing
    clause (see the module docstring for the rule and its rationale).

    Each round sweeps the columns of `var`'s table given the parents in
    name order. The order decides which fixpoint the closure reaches, not
    only that runs repeat: another order can meet another column first and
    end at another, still sufficient, parent set. A candidate clause, one that
    could bring a fresh parent, stands in a column when the column makes
    each of its literals on a parent false: its mask of columns is the AND
    of those literals' false columns, read off the parents' truth tables
    (column i is world i). A round with no candidate standing anywhere
    ends the closure. Otherwise the first column that is derivable, not
    (1, 1) in `_Levels.column_levels`, and has a candidate standing adds
    those candidates' variables, and the next round starts. The clauses
    and parents are integers (`_closure`), so a candidate is tested and
    added by its mask of pairs.
    """
    codec, entries, _ = _encoded(b, "hidden_parent_closure")
    levels = _levels(b, "hidden_parent_closure")
    seed = set(seed) - {var}
    free = {v for v in seed if v not in codec.pairs}
    held = sum(codec.pairs[v] for v in seed - free) * 3
    closed = _closure(codec, entries, levels, var, held, len(free))
    return frozenset(free.union(codec.variables(closed)))


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


def _cpt(levels: _Levels, var: Var, parents: tuple[Var, ...]) -> CPT:
    """`cpt_for` on a base's weight levels, with parents already checked."""
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
    return _cpt(_levels(b, "cpt_for"), var, parents)


@dataclass(frozen=True)
class StageSummary:
    """Per-variable compilation trace, for logging and inspection. The
    node and its parents, in ordering order, are `cpt.var` and
    `cpt.parents`. `cross_clauses` counts the pairs the marginal's cross
    product forms; the `_s` fields are `perf_counter` seconds spent on
    the parents (seed, weight levels and closure; stage 0's levels, built
    before the input's consistency check, are timed with that check), on
    the table and on the marginal, and take no part in equality."""

    index: int
    stage_entries: int
    cpt: CPT
    marginal_entries: int
    cross_clauses: int
    closure_s: float = field(compare=False)
    cpt_s: float = field(compare=False)
    marginal_s: float = field(compare=False)


def compile_stages(b: WeightedBase, ordering) -> Iterator[StageSummary]:
    """Compile a consistent base one variable at a time, yielding each
    stage's summary (with its table) as soon as the variable is forgotten.

    The base is clausalized, encoded once (`semantics._encoded`) and
    reduced (`semantics._reduce`: no tautology, duplicate or subsumed
    entry). An inconsistent input is rejected when iteration starts, with
    the degree of the first stage's weight levels: reducing drops only
    entailed entries, so it is the input's own. Each stage computes the
    node's parents and table from the current clauses, on one set of
    weight levels, then forgets the variable. A node whose table would
    have more than `MAX_CPT_CELLS` cells raises `ResourceCapError` before
    its parent instantiations are swept.

    The integer clauses are handed from stage to stage through the cores
    of `immediate_parents`, `hidden_parent_closure`, `cpt_for` and
    `marginal_base`; no base is built and nothing is kept on `b`, so a
    stage costs nothing per universe variable that no clause mentions. A
    stage whose variable is on no clause passes its clauses on as they
    are: crossed with itself, a reduced stage reduces back to itself.
    """
    ordering = Ordering.of(ordering)
    ordering.validate_for(b.variables)
    codec, entries, weights = _encoded(to_clausal(b), "compile_stages")
    entries = _reduce(entries)
    start = perf_counter()
    levels = _Levels(codec, entries, weights)
    inc = levels.degrees[levels.own_level()]
    if inc != 0:
        raise InconsistentBaseError(inc)
    position = {v: i for i, v in enumerate(ordering.sequence)}
    for i, var in enumerate(ordering.sequence):
        if i:
            start = perf_counter()
            levels = _Levels(codec, entries, weights)
        parents = _closure(codec, entries, levels, var, _seed(codec, entries, var))
        closed = perf_counter()
        names = sorted(codec.variables(parents), key=position.__getitem__)
        cpt = _cpt(levels, var, tuple(names))
        tabled = perf_counter()
        own = codec.pairs.get(var, 0) * 3  # both bits of var's pair
        if any(c & own for c, _ in entries):
            marginal, cross = _marginal(codec, entries, var)
        else:
            marginal, cross = entries, 0
        yield StageSummary(
            index=i,
            stage_entries=len(entries),
            cpt=cpt,
            marginal_entries=len(marginal),
            cross_clauses=cross,
            closure_s=closed - start,
            cpt_s=tabled - closed,
            marginal_s=perf_counter() - tabled,
        )
        entries = marginal


def compile_network(b: WeightedBase, ordering) -> Network:
    """Compile a consistent base into a product-based network whose
    chain-rule distribution equals the base's distribution exactly
    (see `compile_stages`)."""
    return Network(s.cpt for s in compile_stages(b, ordering))

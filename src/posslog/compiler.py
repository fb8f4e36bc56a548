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

from fractions import Fraction
from time import perf_counter
from typing import Iterable, Iterator, Sequence

from .errors import DomainError, InconsistentBaseError, ResourceCapError
from .marginalize import _marginal
from .marginalize import marginal_base  # not called here; bench/tracing.py wraps it here
from .model import ONE, Literal, Var, WeightedBase, _Value
from .network import CPT, Network, check_parents
from .normalize import to_clausal
from .normalize import remove_subsumed, remove_tautologies  # not called here; bench/tracing.py wraps it here
from .semantics import (
    _ClauseBits,
    _clause_models,
    _encoded,
    _layout,
    _Levels,
    _levels,
    _reduce,
)
from .semantics import certainty_degree, inconsistency_degree  # not called here; bench/tracing.py wraps it here

# Most cells a node's table may have: 2 per parent instantiation, so at most
# 19 parents. `parse_network` holds every node it reads to the same cap.
MAX_CPT_CELLS = 1 << 20


class Ordering(_Value):
    """An elimination order: first variable is eliminated first, and a
    node's parents may only be later variables."""

    __slots__ = _fields = ("sequence",)
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
    and each clause's standing repeat over their values. A candidate's
    columns are the complement of `semantics._clause_models` of its part
    on the parents, and `stands`, their union, is gathered in the same
    pass."""
    own = codec.pairs.get(var, 0) * 3  # both bits of var's pair
    clauses = [c for c, _ in entries if not c & own]
    while True:
        names = tuple(codec.variables(parents))
        _check_cells(var, len(names) + free)
        full, tables = _layout([codec.pairs[v] for v in names])
        candidates = []
        stands = 0
        for c in clauses:
            if c & ~parents:
                # The columns that make each literal on a parent false.
                mask = full ^ _clause_models(c & parents, tables)
                candidates.append((c, mask))
                stands |= mask
        if not stands:
            return parents
        # Only standing columns are read, so above the cap no other column
        # is asked its levels.
        columns = levels.column_levels(var, names)
        standing = f"{stands:b}"[::-1]  # column i at i
        i = standing.find("1")
        while i >= 0:
            neg, pos = columns[i]
            if neg != pos:
                for c, mask in candidates:
                    if mask >> i & 1:
                        parents |= codec.span(c)
                break
            i = standing.find("1", i + 1)
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
    each of its literals on a parent false: its mask of columns is every
    column but the models of its literals on the parents, read off the
    parents' truth tables (column i is world i). So a candidate with no
    literal on a parent stands everywhere, and one that holds both
    literals of a parent stands nowhere. A round where no candidate stands
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


def conditional_possibility(
    b: WeightedBase, lit: Literal, context: Iterable[Literal]
) -> Fraction:
    """Product-based conditional degree of `lit` given a literal context.

    h is the degree of the context alone, h' the degree of context plus
    literal, both read off the base's weight levels with the literals as
    hard facts: the one-column case of `cpt_for`. The levels hand over the
    pair in one call (`_Levels.conditional_levels`): above the bitset cap
    the model that answers the context also answers the context with the
    literal, unless it makes the literal false. The base's own level is
    asked first, so that above the cap its model can answer both. The
    degree Π(c ∧ x) / Π(c) is read from the levels' memo of the pair
    (`_Levels.conditional`); an impossible context makes x fully possible
    by convention.
    """
    levels = _levels(b, "conditional_possibility")
    levels.own_level()
    h, joint = levels.conditional_levels(tuple(context), lit)
    return levels.conditional(h, joint)


def _cpt(levels: _Levels, var: Var, parents: tuple[Var, ...]) -> CPT:
    """`cpt_for` on a base's weight levels, with parents already checked.

    A column's two levels share a cell tuple with every column of the same
    pair, so that columns share degree objects: the lower level's
    conditional given the context's level, read from the levels' memo
    (`_Levels.conditional`), which divides once per pair of levels. The
    context's own level, the larger of the two, gets 1."""
    cells: dict[tuple[int, int], tuple[Fraction, Fraction]] = {}
    columns = []
    for key in levels.column_levels(var, parents):
        cell = cells.get(key)
        if cell is None:
            neg, pos = key
            if neg == pos:
                cell = (ONE, ONE)
            elif neg < pos:
                cell = (levels.conditional(pos, neg), ONE)
            else:
                cell = (ONE, levels.conditional(neg, pos))
            cells[key] = cell
        columns.append(cell)
    return CPT(var, parents, *zip(*columns))


def cpt_for(b: WeightedBase, var: Var, parents: Sequence[Var]) -> CPT:
    """The full conditional table of `var` given `parents`, one column per
    parent instantiation, both polarities per column.

    Column i is the parent instantiation u that reads i in binary, and its
    cells are read off the levels h' of its halves, u ∧ ¬x and u ∧ x:
    Π(u) = max(Π(u ∧ ¬x), Π(u ∧ x)), so u's level h is the larger of the
    two. The weight levels hand over each column's pair of levels in
    column order (`_Levels.column_levels`); above the bitset cap one walk
    of u usually answers both. The answers are level indices, and the few
    distinct pairs of them share one column each. The half at u's own
    level has degree 1, Π(u ∧ x) / Π(u) with equal terms, so a column needs
    one division at most.
    """
    parents = tuple(parents)
    _check_cells(var, len(parents))
    check_parents(var, parents)
    return _cpt(_levels(b, "cpt_for"), var, parents)


class StageSummary(_Value):
    """Per-variable compilation trace, for logging and inspection. The
    node and its parents, in ordering order, are `cpt.var` and
    `cpt.parents`. `cross_clauses` counts the pairs the marginal's cross
    product forms; the `_s` fields are `perf_counter` seconds spent on
    the parents (seed, weight levels and closure), on the table and on the
    marginal, and take no part in equality. The levels built for the
    input's consistency check are timed with that check, in the
    `closure_s` of the first stage whose variable is on a clause, which
    reads them. A stage whose variable is on no clause does none of that
    work: its three `_s` fields are 0.0, and its `marginal_entries`
    equal its `stage_entries`."""

    __slots__ = _fields = (
        "index",
        "stage_entries",
        "cpt",
        "marginal_entries",
        "cross_clauses",
        "closure_s",
        "cpt_s",
        "marginal_s",
    )

    def __init__(
        self,
        index: int,
        stage_entries: int,
        cpt: CPT,
        marginal_entries: int,
        cross_clauses: int,
        closure_s: float,
        cpt_s: float,
        marginal_s: float,
    ):
        self._set(
            index, stage_entries, cpt, marginal_entries, cross_clauses,
            closure_s, cpt_s, marginal_s,
        )

    def _compared(self) -> tuple:
        return self._values()[:5]  # not the timings


def compile_stages(b: WeightedBase, ordering) -> Iterator[StageSummary]:
    """Compile a consistent base one variable at a time, yielding each
    stage's summary (with its table) as soon as the variable is forgotten.

    The base is clausalized, encoded once (`semantics._encoded`) and
    reduced (`semantics._reduce`: no tautology, duplicate or subsumed
    entry). An inconsistent input is rejected when iteration starts, with
    the degree of the reduced entries' weight levels: reducing drops only
    entailed entries, so it is the input's own. Each stage computes the
    node's parents and table from the current clauses, on one set of
    weight levels, then forgets the variable. A node whose table would
    have more than `MAX_CPT_CELLS` cells raises `ResourceCapError` before
    its parent instantiations are swept.

    The integer clauses are handed from stage to stage through the cores
    of `immediate_parents`, `hidden_parent_closure`, `cpt_for` and
    `marginal_base`; no base is built and nothing is kept on `b`, so a
    stage costs nothing per universe variable that no clause mentions.

    A stage whose variable is on no current clause builds no weight
    levels, runs no closure and sweeps no table: its seed is empty, and
    the closure's one column gives ¬var and var the same level, so no
    parent joins and both cells are 1. It yields the table (1, 1) with no
    parents and passes its clauses on as they are: crossed with itself, a
    reduced stage reduces back to itself. The levels are kept until the
    clauses change, so those built for the consistency check serve the
    first stage whose variable is on a clause, and each later such stage
    builds its own from the marginal before it.
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
    # The levels' build and the check, timed with the first stage that reads them.
    built = perf_counter() - start
    position = {v: i for i, v in enumerate(ordering.sequence)}
    for i, var in enumerate(ordering.sequence):
        own = codec.pairs.get(var, 0) * 3  # both bits of var's pair
        if not (own and any(c & own for c, _ in entries)):
            n = len(entries)
            yield StageSummary(i, n, CPT(var, (), (ONE,), (ONE,)), n, 0, 0.0, 0.0, 0.0)
            continue
        start = perf_counter() - built
        if levels is None:
            levels = _Levels(codec, entries, weights)
        parents = _closure(codec, entries, levels, var, _seed(codec, entries, var))
        closed = perf_counter()
        names = sorted(codec.variables(parents), key=position.__getitem__)
        cpt = _cpt(levels, var, tuple(names))
        tabled = perf_counter()
        marginal, cross = _marginal(codec, entries, var)
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
        entries, levels, built = marginal, None, 0.0


def compile_network(b: WeightedBase, ordering) -> Network:
    """Compile a consistent base into a product-based network whose
    chain-rule distribution equals the base's distribution exactly
    (see `compile_stages`)."""
    return Network(s.cpt for s in compile_stages(b, ordering))

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
from itertools import product
from typing import Iterable, Iterator, Sequence

from .errors import DomainError, InconsistentBaseError, ResourceCapError
from .marginalize import marginal_base
from .model import ONE, Literal, Var, WeightedBase
from .network import CPT, Network
from .normalize import remove_subsumed, remove_tautologies, to_clausal
from .semantics import _levels, certainty_degree, inconsistency_degree

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


def hidden_parent_closure(
    b: WeightedBase, var: Var, seed: Iterable[Var]
) -> frozenset[Var]:
    """Grow `seed` until no parent instantiation exposes an influencing
    clause (see the module docstring for the rule and its rationale).
    Instantiations are swept in variable-name order, so runs are
    reproducible.

    A clause survives an instantiation unless it holds one of the chosen
    literals, so each clause that could bring a fresh parent is kept as two
    masks over the swept parents: the bits an instantiation must set and
    the bits it must clear for the clause to survive.
    """
    if not b.is_clausal:
        raise DomainError("hidden_parent_closure requires a clausal base")
    node = (Literal(var, True), Literal(var, False))
    parents = set(seed)
    parents.discard(var)
    while True:
        swept = sorted(parents)
        bit = {v: 1 << (len(swept) - 1 - j) for j, v in enumerate(swept)}
        candidates = []
        for c, _ in b.entries:
            variables = c.variables
            if var in variables or variables <= parents:
                continue
            must = clear = 0
            for lit in c.literals:
                if lit.var in bit:
                    if lit.positive:
                        clear |= bit[lit.var]
                    else:
                        must |= bit[lit.var]
            candidates.append((must, clear, variables))
        grew = False
        # Instantiation i gives swept[j] the value of bit len(swept)-1-j of
        # i: the order of product((False, True), repeat=len(swept)).
        for i in range(1 << len(swept)):
            fresh: set[Var] = set()
            for must, clear, variables in candidates:
                if i & must == must and not i & clear:
                    fresh |= variables
            if not fresh:
                continue
            context = [Literal(v, bool(i & bit[v])) for v in swept]
            if all(certainty_degree(b, x, context) == 0 for x in node):
                continue
            parents |= fresh
            grew = True
            break
        if not grew:
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

    Each column's context is grown from the previous parents' contexts one
    parent at a time (on the bitset path: one AND with the parent's truth
    table), so h is asked once per column and h' once per polarity. The
    answers are level indices, and the few distinct pairs of them share
    one exact division each.
    """
    parents = tuple(parents)
    levels = _levels(b, "cpt_for")
    # In the order of product((False, True), repeat=len(parents)).
    contexts = [levels.condition()]
    for p in parents:
        values = (Literal(p, False), Literal(p, True))
        contexts = [levels.narrow(c, lit) for c in contexts for lit in values]
    node = (Literal(var, False), Literal(var, True))
    degrees = levels.degrees
    ratios: dict[tuple[int, int], Fraction] = {}
    table = {}
    for assignment, ctx in zip(product((False, True), repeat=len(parents)), contexts):
        h = levels.level(ctx)
        for x in node:
            key = (h, levels.level(levels.narrow(ctx, x)))
            ratio = ratios.get(key)
            if ratio is None:
                ratio = ratios[key] = _conditional(degrees[key[0]], degrees[key[1]])
            table[(assignment, x.positive)] = ratio
    return CPT(var, parents, table)


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
    before the table is built.
    """
    ordering = Ordering.of(ordering)
    ordering.validate_for(b.variables)
    stage = remove_subsumed(remove_tautologies(to_clausal(b)))
    inc = inconsistency_degree(stage)
    if inc != 0:
        raise InconsistentBaseError(inc)
    for i, var in enumerate(ordering.sequence):
        parents = hidden_parent_closure(stage, var, immediate_parents(stage, var))
        cells = 2 << len(parents)
        if cells > MAX_CPT_CELLS:
            raise ResourceCapError(
                f"the table of {var} would have {cells} cells,"
                f" more than the cap of {MAX_CPT_CELLS}"
            )
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

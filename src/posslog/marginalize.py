"""Syntactic variable elimination.

Forgetting a variable from a clausal base happens in two moves. First the
base is instantiated on each value of the variable: clauses satisfied by
the chosen literal disappear, clauses containing its negation lose that
literal, and the variable vanishes from the universe. Each instantiation
base induces, over the remaining variables, the restriction of the
original distribution to that value of the variable. Second, the two
instantiation bases are recombined by pairwise disjunction with
min-combined weights, which realizes the pointwise maximum of the two
restrictions: the max-marginal of the original distribution.
"""

from __future__ import annotations

from .errors import DomainError
from .model import (
    Distribution,
    Literal,
    Var,
    WeightedBase,
    ZERO,
    negate,
)
from .normalize import _encoded, _reduce, remove_subsumed, remove_tautologies
from .semantics import distribution_of_base

# `remove_subsumed` and `remove_tautologies` are not called here: a
# marginal base runs their cores on integer clauses. They stay importable
# from this module, where bench/tracing.py wraps them.


def _condition(
    entries: list[tuple[int, int]], chosen: int, dropped: int
) -> list[tuple[int, int]]:
    """Integer clauses conditioned on the literal bits `chosen`: a clause
    holding one is satisfied and goes, and the bits `dropped` (their
    negations) are cleared from the others."""
    return [(c & ~dropped, w) for c, w in entries if not c & chosen]


def instantiate(b: WeightedBase, *literals: Literal) -> WeightedBase:
    """Condition a clausal, tautology-free base on `literals` and forget
    their variables: drop clauses containing a chosen literal, delete the
    negations of chosen literals where they occur (weights kept). A literal
    whose variable is outside the universe, or already chosen, is skipped,
    so the result equals instantiating one literal at a time. An empty
    clause may result; it carries the conflict weight of contexts
    incompatible with the chosen literals."""
    if not b.is_clausal:
        raise DomainError("instantiate requires a clausal base")
    by_var: dict[Var, Literal] = {}
    for lit in literals:
        if lit.var in b.variables:
            by_var.setdefault(lit.var, lit)
    if not by_var:
        return b
    codec, encoded, weights = _encoded(b)
    chosen = dropped = 0
    for lit in by_var.values():
        chosen |= codec.bits[lit]
        dropped |= codec.bits[negate(lit)]
    conditioned = _condition(encoded, chosen, dropped)
    return WeightedBase(
        [(codec.decode(c), weights[r]) for c, r in conditioned],
        tuple(v for v in b.variables if v not in by_var),
    )


def marginal_base(b: WeightedBase, var: Var) -> WeightedBase:
    """A base over the universe minus `var` whose distribution is the
    max-marginal of the input's distribution over `var`.

    Built as all pairwise disjunctions of the two instantiation bases with
    min-combined weights, then canonicalized: tautologies dropped, then
    `remove_subsumed`'s duplicate merge and subsumption removal. The
    cross-product blowup is accepted; the cleanup runs immediately after.
    Every step works on integer clauses (`semantics._ClauseBits`), and
    only the result is decoded into a base.
    """
    if not b.is_clausal:
        raise DomainError("marginal_base requires a clausal base")
    if var not in b.variables:
        raise DomainError(f"variable {var} not in the base universe")
    codec, encoded, weights = _encoded(b)
    x = codec.bits[Literal(var, True)]
    not_x = codec.bits[Literal(var, False)]
    neg = _condition(encoded, not_x, x)
    cross = []
    for c1, r1 in _condition(encoded, x, not_x):
        for c2, r2 in neg:
            c = c1 | c2
            if not codec.is_tautology(c):
                cross.append((c, r1 if r1 < r2 else r2))
    return WeightedBase(
        [(codec.decode(c), weights[r]) for c, r in _reduce(cross)],
        tuple(v for v in b.variables if v != var),
    )


def decompose_check(b: WeightedBase, var: Var) -> tuple[Distribution, Distribution]:
    """The two value-restrictions of the base's distribution: each keeps
    the original degree on worlds matching that value of `var` and is 0
    elsewhere. Their pointwise max reassembles the distribution; this is a
    diagnostic aid, not a pipeline step."""
    if not b.is_clausal:
        raise DomainError("decompose_check requires a clausal base")
    if var not in b.variables:
        raise DomainError(f"variable {var} not in the base universe")
    pi = distribution_of_base(b)
    pos_vals = []
    neg_vals = []
    for w, val in pi.items():
        if w.value(var):
            pos_vals.append(val)
            neg_vals.append(ZERO)
        else:
            pos_vals.append(ZERO)
            neg_vals.append(val)
    return (
        Distribution(pi.universe, pos_vals),
        Distribution(pi.universe, neg_vals),
    )

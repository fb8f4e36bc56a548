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
    Clause,
    Distribution,
    Literal,
    Var,
    WeightedBase,
    ZERO,
    negate,
)
from .normalize import remove_subsumed, remove_tautologies
from .semantics import distribution_of_base


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
    chosen = frozenset(by_var.values())
    dropped = frozenset(negate(l) for l in chosen)
    out = []
    for c, w in b.entries:
        if not chosen.isdisjoint(c.literals):
            continue
        if dropped.isdisjoint(c.literals):
            out.append((c, w))
        else:
            out.append((Clause(c.literals - dropped), w))
    return WeightedBase(out, tuple(v for v in b.variables if v not in by_var))


def marginal_base(b: WeightedBase, var: Var) -> WeightedBase:
    """A base over the universe minus `var` whose distribution is the
    max-marginal of the input's distribution over `var`.

    Built as all pairwise disjunctions of the two instantiation bases with
    min-combined weights, then canonicalized (tautology removal, duplicate
    merge, subsumption removal). The cross-product blowup is accepted; the
    cleanup runs immediately after.
    """
    if not b.is_clausal:
        raise DomainError("marginal_base requires a clausal base")
    if var not in b.variables:
        raise DomainError(f"variable {var} not in the base universe")
    pos = instantiate(b, Literal(var, True))
    neg = instantiate(b, Literal(var, False))
    cross = [
        (c1.union(c2), min(w1, w2))
        for c1, w1 in pos.entries
        for c2, w2 in neg.entries
    ]
    combined = WeightedBase(cross, pos.variables)
    return remove_subsumed(remove_tautologies(combined))


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

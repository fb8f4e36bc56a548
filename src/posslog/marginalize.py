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
from .normalize import remove_subsumed, remove_tautologies
from .semantics import (
    _ClauseBits,
    _clause_models,
    _decoded,
    _encoded,
    _kept,
    _literal_tables,
    _reduce,
    distribution_of_base,
)

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
    codec, encoded, weights = _encoded(b, "instantiate")
    by_var: dict[Var, Literal] = {}
    for lit in literals:
        if lit.var in b.variables:
            by_var.setdefault(lit.var, lit)
    if not by_var:
        return b
    chosen = dropped = 0
    for lit in by_var.values():
        # A variable that no clause mentions changes no clause.
        chosen |= codec.bit(lit)
        dropped |= codec.bit(negate(lit))
    conditioned = _condition(encoded, chosen, dropped)
    return _decoded(
        (codec, conditioned, weights), tuple(v for v in b.variables if v not in by_var)
    )


def _marginal(
    codec: _ClauseBits, entries: list[tuple[int, int]], var: Var
) -> tuple[list[tuple[int, int]], int]:
    """`marginal_base` on integer clauses with weight ranks (see
    `semantics._encoded`): the reduced entries of the marginal, and the
    number of pairs the cross product forms, one per clause without `var`
    times one per clause without `¬var`.

    Every pair is formed and tested, and the result is `_reduce`'s on the
    whole cross product, order included. Up to the bitset cap the
    variables of the entries, less `var`, are laid out once and each side
    clause's models are built once. The pairs are merged here, each distinct one
    at its largest rank in first-occurrence order, and keep the side
    models of their first occurrence, whose OR is their own models;
    `_reduce`'s group walk (`_kept`) forms those a group at a time. A pair
    c1 | c2 is skipped as a tautology when c1 holds the negation of a
    literal of c2, against each `¬var` side clause's negations, taken
    once. A pair is a tautology otherwise only when a side clause is one;
    its models are every world, so the walk drops it as redundant. Above
    the cap the pairs go to `_reduce` as they are formed."""
    x = codec.pairs.get(var, 0)  # the bit of `var`; that of `¬var` is above it
    not_x = x << 1
    pos = _condition(entries, x, not_x)
    neg = _condition(entries, not_x, x)
    used = 0
    for c, _ in entries:
        used |= c
    found = _literal_tables(used & ~(x | not_x))
    if found is None:
        cross = ((c1 | c2, r1 if r1 < r2 else r2) for c1, r1 in pos for c2, r2 in neg)
        return _reduce(cross), len(pos) * len(neg)
    full, tables = found
    low = codec._positive  # the lower bit of every pair
    neg = [(c, (c & low) << 1 | c >> 1 & low, r, _clause_models(c, tables)) for c, r in neg]
    best: dict[int, int] = {}
    models: dict[int, tuple[int, int]] = {}  # the side models of each first occurrence
    for c1, r1 in pos:
        m1 = _clause_models(c1, tables)
        for c2, n2, r2, m2 in neg:
            if c1 & n2:
                continue
            c = c1 | c2
            r = r1 if r1 < r2 else r2
            old = best.get(c)
            if old is None:
                best[c] = r
                models[c] = m1, m2
            elif r > old:
                best[c] = r
    of = models.__getitem__
    kept = _kept(best, full, lambda group: [m1 | m2 for m1, m2 in map(of, group)])
    return kept, len(pos) * len(neg)


def marginal_base(b: WeightedBase, var: Var) -> WeightedBase:
    """A base over the universe minus `var` whose distribution is the
    max-marginal of the input's distribution over `var`.

    Built as all pairwise disjunctions of the two instantiation bases with
    min-combined weights, then canonicalized by `remove_subsumed`'s core,
    `semantics._reduce`: tautologies dropped and duplicates merged as the
    pairs are formed, then subsumed entries removed. Every pair is still
    formed and tested; up to the bitset cap each side clause's models are
    built once, and a pair's models are the OR of its two sides'. Every
    step works on integer clauses (`_marginal`), and only the result is
    decoded into a base.
    """
    codec, encoded, weights = _encoded(b, "marginal_base")
    try:
        # Found once: the universe can be thousands of variables long.
        at = b.variables.index(var)
    except ValueError:
        raise DomainError(f"variable {var} not in the base universe") from None
    kept, _ = _marginal(codec, encoded, var)
    return _decoded((codec, kept, weights), b.variables[:at] + b.variables[at + 1 :])


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

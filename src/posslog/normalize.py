"""Canonicalization passes over weighted bases.

Every pass preserves the induced possibility distribution exactly:
clausal conversion, tautology removal, duplicate merging and subsumption
removal are all pure simplifications.
"""

from __future__ import annotations

from typing import Iterable

from .errors import DomainError
from .model import Clause, Literal, WeightedBase, cnf_clauses
from .semantics import _clause_models, _ClauseBits, _decoded, _encoded
from .semantics import _literal_tables, _negations, _search
from .semantics import entails  # not called here; bench/tracing.py wraps it here


def to_clausal(b: WeightedBase) -> WeightedBase:
    """Replace every formula entry by the clauses of one of its CNFs, each
    carrying the original weight. Entries that already are clauses pass
    through untouched; no new variables are introduced."""
    out = []
    for f, w in b.entries:
        if isinstance(f, Clause):
            out.append((f, w))
        elif isinstance(f, Literal):
            out.append((Clause((f,)), w))
        else:
            out.extend((c, w) for c in cnf_clauses(f))
    return WeightedBase(out, b.variables)


def remove_tautologies(b: WeightedBase) -> WeightedBase:
    """Drop tautological clauses; they are never falsified, and they fake
    dependence links between their variables downstream."""
    if not b.is_clausal:
        raise DomainError("remove_tautologies requires a clausal base")
    kept = [(c, w) for c, w in b.entries if not c.is_tautology]
    return b if len(kept) == len(b.entries) else WeightedBase(kept, b.variables)


def remove_subsumed(b: WeightedBase) -> WeightedBase:
    """Merge duplicates, then test each entry once, lower weights first
    (ties broken by a deterministic clause order), dropping it if the
    entries still present subsume it. The clauses are worked on as
    integers (see `_reduce`) and decoded once into the result, which keeps
    them."""
    codec, entries, weights = _encoded(b, "remove_subsumed")
    kept = _reduce(entries)
    if len(kept) == len(b.entries):
        return b
    return _decoded((codec, kept, weights), b.variables)


def _reduce(entries: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """`remove_subsumed` on integer clauses (`semantics._ClauseBits`) with
    weight ranks (see `semantics._encoded`): the merged entries that
    survive, in first-occurrence order.

    Entries are tested by weight, then clause length, then sorted literals.
    One pass reaches the fixpoint: dropping a premise only weakens
    entailment, so an entry kept once is never redundant later.

    Each clause is encoded once into its models over the variables the
    clauses mention. Every entry weighing more than the one under test is
    tested later, so it is still present: the premises are the AND of all
    heavier entries, of the kept entries of equal weight tested before, and
    of those of equal weight still to come. The entry is redundant when
    they have no model outside its own. A lighter entry is never a premise,
    so the weight groups can be worked through heaviest first. Above the
    bitset cap each test is a DPLL search over the entries still present
    that starts from the entry's negated literals.
    """
    best: dict[int, int] = {}  # each distinct clause's largest rank
    for c, r in entries:
        if r > best.get(c, 0):
            best[c] = r
    entries = list(best.items())
    order = sorted(
        range(len(entries)),
        key=lambda k: (entries[k][1], *_ClauseBits.order(entries[k][0])),
    )
    alive = [True] * len(entries)
    used = 0
    for c, _ in entries:
        used |= c
    found = _literal_tables(used)
    if found is None:
        for k in order:
            clause, weight = entries[k]
            premises = [
                c
                for j, (c, w) in enumerate(entries)
                if alive[j] and j != k and w >= weight
            ]
            # Kept unless the premises have no model from the entry's
            # negated literals; a tautology has none to start from.
            n = _negations(clause)
            alive[k] = not (n & clause) and _search(premises, n, []) is not None
    else:
        full, tables = found
        models = [_clause_models(c, tables) for c, _ in entries]
        by_weight: dict[int, list[int]] = {}
        for k in order:
            by_weight.setdefault(entries[k][1], []).append(k)
        heavier = full  # the models of every entry of a greater weight
        for group in reversed(by_weight.values()):
            # rest[t]: heavier entries and the group's entries from t on.
            rest = [heavier]
            for k in reversed(group):
                rest.append(rest[-1] & models[k])
            rest.reverse()
            kept = full
            for t, k in enumerate(group):
                if kept & rest[t + 1] & ~models[k]:
                    kept &= models[k]
                else:
                    alive[k] = False
            heavier = rest[0]
    return [e for e, keep in zip(entries, alive) if keep]

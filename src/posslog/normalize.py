"""Canonicalization passes over weighted bases.

Every pass preserves the induced possibility distribution exactly:
clausal conversion, tautology removal, duplicate merging and subsumption
removal are all pure simplifications.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError
from .model import Clause, Literal, WeightedBase, cnf_clauses
from .semantics import _clause_models, entails


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
    return WeightedBase(
        [(c, w) for c, w in b.entries if not c.is_tautology], b.variables
    )


def merge_duplicates(b: WeightedBase) -> WeightedBase:
    """Collapse duplicate clauses onto their maximum weight (lower-weight
    copies are semantically vacuous). First-occurrence order is kept."""
    if not b.is_clausal:
        raise DomainError("merge_duplicates requires a clausal base")
    best: dict[Clause, Fraction] = {}
    order: list[Clause] = []
    for c, w in b.entries:
        if c not in best:
            best[c] = w
            order.append(c)
        elif w > best[c]:
            best[c] = w
    return WeightedBase([(c, best[c]) for c in order], b.variables)


def is_subsumed(b: WeightedBase, entry: tuple[Clause, Fraction]) -> bool:
    """Whether `entry` is redundant inside `b`: the rest of the base, cut
    at the entry's weight, already entails the clause."""
    if not b.is_clausal:
        raise DomainError("is_subsumed requires a clausal base")
    if entry not in b.entries:
        raise DomainError("entry is not part of the base")
    clause, weight = entry
    remaining = list(b.entries)
    remaining.remove(entry)
    return entails([c for c, w in remaining if w >= weight], clause)


def _entry_key(entry: tuple[Clause, Fraction]):
    clause, weight = entry
    return (
        weight,
        len(clause),
        tuple(sorted((l.var.name, l.positive) for l in clause.literals)),
    )


def remove_subsumed(b: WeightedBase) -> WeightedBase:
    """Merge duplicates, then test each entry once, lower weights first
    (ties broken by a deterministic clause order), dropping it if the
    entries still present subsume it. One pass reaches the fixpoint:
    dropping a premise only weakens entailment, so an entry kept once is
    never redundant later.

    Each clause is encoded once into its models over the variables the
    clauses mention. Every entry weighing more than the one under test is
    tested later, so it is still present: the premises are the AND of all
    heavier entries, of the kept entries of equal weight tested before, and
    of those of equal weight still to come. The entry is redundant when
    they have no model outside its own. A lighter entry is never a premise,
    so the weight groups can be worked through heaviest first. Above the
    bitset cap each test asks `entails` of the entries still present.
    """
    merged = merge_duplicates(b)
    entries = merged.entries
    order = sorted(range(len(entries)), key=lambda k: _entry_key(entries[k]))
    alive = [True] * len(entries)
    encoded = _clause_models([c for c, _ in entries])
    if encoded is None:
        for k in order:
            clause, weight = entries[k]
            premises = [
                c
                for j, (c, w) in enumerate(entries)
                if alive[j] and j != k and w >= weight
            ]
            alive[k] = not entails(premises, clause)
    else:
        full, models = encoded
        by_weight: dict[Fraction, list[int]] = {}
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
    if all(alive):
        return merged
    return WeightedBase([e for e, keep in zip(entries, alive) if keep], b.variables)

"""Canonicalization passes over weighted bases.

Every pass preserves the induced possibility distribution exactly:
clausal conversion, tautology removal, duplicate merging and subsumption
removal are all pure simplifications.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError
from .model import Clause, Literal, WeightedBase, cnf_clauses
from .semantics import entails


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
    never redundant later."""
    current = merge_duplicates(b)
    for entry in sorted(current.entries, key=_entry_key):
        if is_subsumed(current, entry):
            entries = list(current.entries)
            entries.remove(entry)
            current = WeightedBase(entries, b.variables)
    return current

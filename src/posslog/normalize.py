"""Canonicalization passes over weighted bases.

Every pass preserves the induced possibility distribution exactly:
clausal conversion, tautology removal, duplicate merging and subsumption
removal are all pure simplifications.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Iterable

from .errors import DomainError
from .model import ZERO, Clause, Literal, WeightedBase, cnf_clauses
from .semantics import (
    _bits_models,
    _bits_signed,
    _ClauseBits,
    _refutes,
    entails,
)


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


def _merged(entries: Iterable[tuple[Hashable, Fraction | int]]) -> dict:
    """Each distinct clause of `entries` with its maximum weight (or weight
    rank), in first-occurrence order. Weights are positive."""
    best: dict = {}
    for c, w in entries:
        if w > best.get(c, 0):
            best[c] = w
    return best


def merge_duplicates(b: WeightedBase) -> WeightedBase:
    """Collapse duplicate clauses onto their maximum weight (lower-weight
    copies are semantically vacuous). First-occurrence order is kept."""
    if not b.is_clausal:
        raise DomainError("merge_duplicates requires a clausal base")
    return WeightedBase(_merged(b.entries).items(), b.variables)


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


def remove_subsumed(b: WeightedBase) -> WeightedBase:
    """Merge duplicates, then test each entry once, lower weights first
    (ties broken by a deterministic clause order), dropping it if the
    entries still present subsume it. The clauses are worked on as
    integers (see `_reduce`) and decoded once into the result."""
    if not b.is_clausal:
        raise DomainError("remove_subsumed requires a clausal base")
    codec, entries, weights = _encoded(b)
    kept = _reduce(entries)
    if len(kept) == len(b.entries):
        return b
    return WeightedBase([(codec.decode(c), weights[r]) for c, r in kept], b.variables)


def _encoded(b: WeightedBase) -> tuple[_ClauseBits, list[tuple[int, int]], list]:
    """The entries of a clausal base as integer clauses over its universe,
    each with the rank of its weight: rank r stands for `weights[r]`, and
    ranks order as the weights do. Rank 0 is unused, so that every rank is
    positive, as `_merged` needs. Ranks compare as plain ints, where
    weights would compare as `Fraction`s."""
    codec = _ClauseBits(b.variables)
    weights = [ZERO, *sorted({w for _, w in b.entries})]
    rank = {w: r for r, w in enumerate(weights)}
    return codec, [(codec.encode(c), rank[w]) for c, w in b.entries], weights


def _reduce(entries: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """`remove_subsumed` on integer clauses (`semantics._ClauseBits`) with
    weight ranks (see `_encoded`): the merged entries that survive, in
    first-occurrence order.

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
    bitset cap each test is a DPLL refutation from the entries still
    present.
    """
    entries = list(_merged(entries).items())
    order = sorted(
        range(len(entries)),
        key=lambda k: (entries[k][1], *_ClauseBits.order(entries[k][0])),
    )
    alive = [True] * len(entries)
    encoded = _bits_models([c for c, _ in entries])
    if encoded is None:
        signed = [_bits_signed(c) for c, _ in entries]
        for k in order:
            weight = entries[k][1]
            premises = [
                signed[j]
                for j, (_, w) in enumerate(entries)
                if alive[j] and j != k and w >= weight
            ]
            alive[k] = not _refutes(premises, signed[k])
    else:
        full, models = encoded
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

"""Conditioning, the marginal base and subsumption removal written over
`Clause` objects, one `WeightedBase` per step: the reference that the
differential tests hold `instantiate`, `marginal_base` and
`remove_subsumed` (which work on integer clauses) to, entry for entry and
in order. `is_subsumed` is the one-entry question the reference loops in
`test_normalize` ask."""

from __future__ import annotations

from fractions import Fraction

from posslog import Clause, Literal, WeightedBase, negate, semantics
from posslog.semantics import entails


def instantiate(b, *literals):
    by_var = {}
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


def remove_tautologies(b):
    return WeightedBase(
        [(c, w) for c, w in b.entries if not any(negate(l) in c for l in c)],
        b.variables,
    )


def merge_duplicates(b):
    best = {}
    order = []
    for c, w in b.entries:
        if c not in best:
            best[c] = w
            order.append(c)
        elif w > best[c]:
            best[c] = w
    return WeightedBase([(c, best[c]) for c in order], b.variables)


def is_subsumed(b, entry):
    """Whether `entry` of the clausal base `b` is redundant: the rest of
    the base, cut at the entry's weight, entails the clause."""
    clause, weight = entry
    remaining = list(b.entries)
    remaining.remove(entry)
    return entails([c for c, w in remaining if w >= weight], clause)


def _entry_key(entry):
    clause, weight = entry
    return (
        weight,
        len(clause),
        tuple(sorted((l.var.name, l.positive) for l in clause.literals)),
    )


def _clause_models(clauses):
    index = {}
    encoded = []
    for c in clauses:
        lits = []
        for lit in c.literals:
            i = index.setdefault(lit.var, len(index) + 1)
            lits.append(i if lit.positive else -i)
        encoded.append(lits)
    if len(index) > semantics._BITSET_MAX_VARS:
        return None
    n = len(index)
    full = (1 << (1 << n)) - 1
    tables = semantics._truth_tables(n)
    models = []
    for lits in encoded:
        m = 0
        for i in lits:
            m |= tables[abs(i) - 1] if i > 0 else full ^ tables[abs(i) - 1]
        models.append(m)
    return full, models


def remove_subsumed(b):
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
        heavier = full
        for group in reversed(by_weight.values()):
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


def marginal_base(b, var):
    pos = instantiate(b, Literal(var, True))
    neg = instantiate(b, Literal(var, False))
    cross = [
        (c1.union(c2), min(w1, w2))
        for c1, w1 in pos.entries
        for c2, w2 in neg.entries
    ]
    return remove_subsumed(remove_tautologies(WeightedBase(cross, pos.variables)))

"""Canonicalization passes over weighted bases.

Every pass preserves the induced possibility distribution exactly:
clausal conversion, tautology removal, duplicate merging and subsumption
removal are all pure simplifications.
"""

from __future__ import annotations

from .errors import DomainError
from .model import Clause, WeightedBase, cnf_clauses
from .semantics import _decoded, _encoded, _reduce
from .semantics import entails  # not called here; bench/tracing.py wraps it here


def to_clausal(b: WeightedBase) -> WeightedBase:
    """Replace every formula entry by the clauses of one of its CNFs, each
    carrying the original weight. Entries that already are clauses pass
    through untouched, and a base of clauses only is returned as it is; no
    new variables are introduced."""
    if b.is_clausal:
        return b
    out = []
    for f, w in b.entries:
        if isinstance(f, Clause):
            out.append((f, w))
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
    integers (see `semantics._reduce`) and decoded once into the result."""
    codec, entries, weights = _encoded(b, "remove_subsumed")
    kept = _reduce(entries)
    if len(kept) == len(b.entries):
        return b
    return _decoded((codec, kept, weights), b.variables)

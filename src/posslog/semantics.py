"""Possibility-theoretic semantics of weighted bases.

The central object is the best-out distribution of a base: a world that
satisfies every entry has possibility 1, any other world is penalized by
the strongest entry it falsifies. On top of that sit alpha-cuts, the
inconsistency degree, possibility/necessity measures, entailment degrees
and the converse construction of a base from a distribution.

Satisfiability is decided by a complete search with unit propagation; for
small universes (the common case here) an exhaustive bitset sweep is used
instead, which also lets the inconsistency degree be computed in a single
descending pass over the weight levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from .errors import DomainError, InconsistentBaseError
from .model import (
    ONE,
    ZERO,
    Clause,
    Distribution,
    Formula,
    Interpretation,
    Literal,
    Not,
    Var,
    WeightedBase,
    as_weight,
    cnf_clauses,
    interpretations,
    negate,
    satisfies,
    unit,
)

# Above this many variables the exhaustive bitset path would allocate
# multi-megabyte integers, so the clause solver switches to DPLL.
_BITSET_MAX_VARS = 16


@dataclass(frozen=True)
class CutSpec:
    """Threshold selecting entries by weight: >= threshold, or > when strict."""

    threshold: Fraction
    strict: bool = False

    def __init__(self, threshold, strict: bool = False):
        object.__setattr__(self, "threshold", as_weight(threshold))
        object.__setattr__(self, "strict", bool(strict))

    def admits(self, weight: Fraction) -> bool:
        return weight > self.threshold if self.strict else weight >= self.threshold


def world_possibility(b: WeightedBase, w: Interpretation) -> Fraction:
    """Best-out degree of a single world: 1 if it satisfies every entry,
    otherwise 1 minus the largest weight it falsifies."""
    worst = None
    for f, a in b.entries:
        if not satisfies(w, f):
            if worst is None or a > worst:
                worst = a
    return ONE if worst is None else ONE - worst


def distribution_of_base(b: WeightedBase) -> Distribution:
    """The possibility distribution induced by a base (entries may be
    clauses or general formulas)."""
    return Distribution(
        b.variables, tuple(world_possibility(b, w) for w in interpretations(b.variables))
    )


# ---------------------------------------------------------------------------
# satisfiability


@lru_cache(maxsize=32)
def _truth_tables(n: int) -> tuple[int, ...]:
    """truth_tables(n)[j] is the bitset of the 2**n worlds where variable j
    is true, under the package-wide enumeration order (variable 0 is the
    most significant bit)."""
    full = (1 << (1 << n)) - 1
    tables = []
    for j in range(n):
        seg = 1 << (n - 1 - j)
        period = seg << 1
        block = ((1 << seg) - 1) << seg
        reps = full // ((1 << period) - 1)
        tables.append(block * reps)
    return tuple(tables)


def _dpll_sat(clauses: list[frozenset[int]]) -> bool:
    """Complete backtracking search with unit propagation."""
    while True:
        if not clauses:
            return True
        unit_lit = None
        for c in clauses:
            if not c:
                return False
            if len(c) == 1:
                unit_lit = next(iter(c))
                break
        if unit_lit is None:
            break
        new: list[frozenset[int]] = []
        for c in clauses:
            if unit_lit in c:
                continue
            if -unit_lit in c:
                c = c - {-unit_lit}
                if not c:
                    return False
            new.append(c)
        clauses = new
    lit = min(next(iter(clauses)), key=abs)
    return _dpll_sat(clauses + [frozenset((lit,))]) or _dpll_sat(
        clauses + [frozenset((-lit,))]
    )


def _first_unsat_group(groups: Iterable[Iterable[Clause]]) -> int | None:
    """Index of the first group whose clauses, together with those of all
    earlier groups, are unsatisfiable; None when every cut is satisfiable.

    Clauses are mapped onto signed integer literals (tautologies dropped).
    An empty clause encodes to the empty set, which both the bitset sweep
    and the DPLL search read as false.
    """
    index: dict[Var, int] = {}
    encoded: list[list[frozenset[int]]] = []
    for group in groups:
        enc = []
        for c in group:
            if c.is_tautology:
                continue
            lits = []
            for lit in c.literals:
                i = index.setdefault(lit.var, len(index) + 1)
                lits.append(i if lit.positive else -i)
            enc.append(frozenset(lits))
        encoded.append(enc)

    n = len(index)
    if n <= _BITSET_MAX_VARS:
        full = (1 << (1 << n)) - 1
        tables = _truth_tables(n)
        acc = full
        for k, enc in enumerate(encoded):
            for c in enc:
                cb = 0
                for lit in c:
                    cb |= tables[lit - 1] if lit > 0 else (full & ~tables[-lit - 1])
                acc &= cb
                if not acc:
                    return k
        return None

    accumulated: list[frozenset[int]] = []
    for k, enc in enumerate(encoded):
        accumulated.extend(enc)
        if not _dpll_sat(accumulated):
            return k
    return None


def is_satisfiable(clauses: Iterable[Clause]) -> bool:
    """True iff some interpretation satisfies every clause."""
    return _first_unsat_group([clauses]) is None


def entails(premises: Iterable[Clause], conclusion: Clause) -> bool:
    """Classical entailment, decided by refutation."""
    units = [unit(negate(l)) for l in conclusion.literals]
    return not is_satisfiable(list(premises) + units)


# ---------------------------------------------------------------------------
# cuts and inconsistency


def _require_clausal(b: WeightedBase, op: str) -> None:
    if not b.is_clausal:
        raise DomainError(f"{op} requires a clausal base; run to_clausal first")


def alpha_cut(b: WeightedBase, cut: CutSpec) -> frozenset[Clause]:
    """Clauses of the entries whose weight passes the cut."""
    _require_clausal(b, "alpha_cut")
    return frozenset(c for c, w in b.entries if cut.admits(w))


def inconsistency_degree(b: WeightedBase) -> Fraction:
    """The largest weight whose (non-strict) cut is unsatisfiable; 0 when
    the whole base is satisfiable.

    Computed as one descending sweep over the distinct weights: cuts only
    grow as the threshold drops, so the first unsatisfiable one wins.
    """
    _require_clausal(b, "inconsistency_degree")
    by_level: dict[Fraction, list[Clause]] = {w: [] for w in b.distinct_weights()}
    for c, w in b.entries:
        by_level[w].append(c)
    k = _first_unsat_group(by_level.values())
    return ZERO if k is None else list(by_level)[k]


# ---------------------------------------------------------------------------
# measures


def _as_hard_entries(f: Formula) -> list[tuple[Clause, Fraction]]:
    return [(c, ONE) for c in cnf_clauses(f)]


def possibility(b: WeightedBase, f: Formula) -> Fraction:
    """Degree to which `f` is consistent with the base.

    Requires a consistent clausal base. Equals the maximum best-out degree
    over the models of `f`; an unsatisfiable `f` gets 0 (maximum over an
    empty set of worlds).
    """
    _require_clausal(b, "possibility")
    inc = inconsistency_degree(b)
    if inc != 0:
        raise InconsistentBaseError(inc)
    return ONE - inconsistency_degree(b.extended(_as_hard_entries(f)))


def necessity(b: WeightedBase, f: Formula) -> Fraction:
    """Degree to which `f` is entailed by the base: 1 - possibility(not f)."""
    return ONE - possibility(b, Not(f))


def certainty_degree(b: WeightedBase, lit: Literal) -> Fraction:
    """Entailment degree of a literal, defined for inconsistent bases too:
    the refutation level counts only when it exceeds the base's own
    inconsistency, otherwise nothing genuinely supports the literal."""
    _require_clausal(b, "certainty_degree")
    base_inc = inconsistency_degree(b)
    refute_inc = inconsistency_degree(b.extended([(unit(negate(lit)), ONE)]))
    return refute_inc if refute_inc > base_inc else ZERO


# ---------------------------------------------------------------------------
# distribution -> base


def base_of_distribution(d: Distribution) -> WeightedBase:
    """A clausal base whose best-out distribution is exactly `d`.

    Every world with degree beta < 1 contributes the clause negating its
    own description, weighted 1 - beta: that clause is falsified by that
    world and by no other. No minimization is attempted; subsumption
    cleanup may shrink the result.
    """
    if not d.is_normalized:
        raise DomainError("only normalized distributions can be turned into a base")
    entries = []
    for w, val in d.items():
        if val != ONE:
            entries.append((Clause(negate(l) for l in w.literals()), ONE - val))
    return WeightedBase(entries, d.universe)

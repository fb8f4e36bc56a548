"""Possibility-theoretic semantics of weighted bases.

The central object is the best-out distribution of a base: a world that
satisfies every entry has possibility 1, any other world is penalized by
the strongest entry it falsifies. On top of that sit alpha-cuts, the
inconsistency degree, possibility/necessity measures, entailment degrees
and the converse construction of a base from a distribution.

Satisfiability is decided by a complete search with unit propagation; for
small universes (the common case here) an exhaustive bitset sweep is used
instead. Either way a base is encoded once into its weight levels, which
then answer the inconsistency degree of the base under any literal context:
on the bitset path that is a few integer ANDs per question.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

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


def _encode(c: Clause, index: dict[Var, int]) -> frozenset[int]:
    """A clause as signed variable numbers (negative for a negated
    literal); a variable not yet in `index` gets the next number."""
    lits = []
    for lit in c.literals:
        i = index.setdefault(lit.var, len(index) + 1)
        lits.append(i if lit.positive else -i)
    return frozenset(lits)


def _literal_models(n: int) -> tuple[int, dict[int, int]]:
    """The set of all 2**n worlds, and the worlds where each signed
    literal holds."""
    full = (1 << (1 << n)) - 1
    bits: dict[int, int] = {}
    for i, table in enumerate(_truth_tables(n), 1):
        bits[i] = table
        bits[-i] = full ^ table
    return full, bits


def _models_of(c: frozenset[int], bits: dict[int, int]) -> int:
    """The worlds that satisfy an encoded clause."""
    out = 0
    for lit in c:
        out |= bits[lit]
    return out


# ---------------------------------------------------------------------------
# integer clauses


class _ClauseBits:
    """Clauses over an ordered universe as integers, for the syntactic
    layer (conditioning, the cross product, duplicate merging and
    subsumption).

    The variable of name rank i owns the two bits at 2(n-1-i): the upper
    one for its negative literal, the lower one for its positive literal.
    So a clause is a tautology when some pair has both bits set, and two
    clauses of the same length compare by their literals sorted as
    `(name, positive)` pairs exactly as their integers compare, reversed.
    """

    __slots__ = ("bits", "literals", "_positive")

    def __init__(self, universe: Iterable[Var]):
        ranked = sorted(universe)
        n = len(ranked)
        self.bits: dict[Literal, int] = {}
        for i, v in enumerate(ranked):
            shift = 2 * (n - 1 - i)
            self.bits[Literal(v, True)] = 1 << shift
            self.bits[Literal(v, False)] = 2 << shift
        self.literals = {bit: lit for lit, bit in self.bits.items()}
        self._positive = ((1 << 2 * n) - 1) // 3  # every lower bit of a pair

    def encode(self, c: Clause) -> int:
        bits = self.bits
        out = 0
        for lit in c.literals:
            out |= bits[lit]
        return out

    def decode(self, c: int) -> Clause:
        literals = self.literals
        out = []
        while c:
            low = c & -c
            out.append(literals[low])
            c ^= low
        return Clause(out)

    def is_tautology(self, c: int) -> bool:
        return bool(c & (c >> 1) & self._positive)

    @staticmethod
    def order(c: int) -> tuple[int, int]:
        """Sorts clauses by length, then by their literals sorted as
        `(name, positive)` pairs."""
        return c.bit_count(), -c


def _bits_models(clauses: Sequence[int]) -> tuple[int, list[int]] | None:
    """The models of each integer clause over the variables the clauses
    mention, with the set of all those worlds; None above
    `_BITSET_MAX_VARS`, where satisfiability is left to the DPLL search.
    An empty clause has no model and a tautology has every world."""
    used = 0
    for c in clauses:
        used |= c
    pairs = []  # the lower bit of each mentioned variable's pair
    while used:
        low = ((used & -used).bit_length() - 1) & ~1
        pairs.append(low)
        used &= ~(3 << low)
    if len(pairs) > _BITSET_MAX_VARS:
        return None
    full, bits = _literal_models(len(pairs))
    models_of: dict[int, int] = {}
    for i, low in enumerate(pairs, 1):
        models_of[1 << low] = bits[i]
        models_of[2 << low] = bits[-i]
    models = []
    for c in clauses:
        m = 0
        while c:
            bit = c & -c
            m |= models_of[bit]
            c ^= bit
        models.append(m)
    return full, models


def _bits_signed(c: int) -> frozenset[int]:
    """An integer clause as the signed variable numbers `_dpll_sat`
    reads: the pair at bit 2k is variable k+1."""
    out = []
    while c:
        low = c & -c
        bit = low.bit_length() - 1
        var = (bit >> 1) + 1
        out.append(-var if bit & 1 else var)
        c ^= low
    return frozenset(out)


def _refutes(premises: list[frozenset[int]], conclusion: frozenset[int]) -> bool:
    """Whether signed-int premises entail a signed-int clause: they have
    no model once the clause's negated literals are hard facts."""
    return not _dpll_sat(premises + [frozenset((-lit,)) for lit in conclusion])


class _Levels:
    """A clause set split into weight levels (highest first), encoded once
    and then asked for the inconsistency degree of the set together with
    any literal context taken as hard facts.

    Up to `_BITSET_MAX_VARS` variables, level i is the bitset of the worlds
    that satisfy every clause of the first i+1 levels, so the bitsets only
    shrink; encoding stops at the first empty one, since every later level
    is empty too. A context is then the AND of its literals' truth tables,
    and the degree is the first level weight whose models miss it. Above
    the cap the encoded groups are kept and each question runs the DPLL
    search on the growing cut plus the context's unit clauses.

    A context is built once by `condition` (or grown a literal at a time
    by `narrow`) and can then be asked its `level`: on the bitset path it
    is the mask of its worlds, above the cap the tuple of its unit clauses.
    Its degree is `degrees[level]`, read off the descending ladder of 1,
    the level weights and 0, so that callers can memoize on the index.

    Clauses are mapped onto signed integer literals (tautologies dropped).
    An empty clause encodes to the empty set, which both the bitset sweep
    and the DPLL search read as false. A context literal on a variable no
    clause mentions constrains nothing, unless the context also holds its
    negation.
    """

    __slots__ = ("degrees", "_index", "_bits", "_models", "_groups", "_unconditioned")

    def __init__(self, weights: Sequence[Fraction], groups: Iterable[Iterable[Clause]]):
        index: dict[Var, int] = {}
        encoded = [
            [_encode(c, index) for c in group if not c.is_tautology] for group in groups
        ]
        self.degrees = (ONE, *weights, ZERO)
        self._index = index

        n = len(index)
        if n > _BITSET_MAX_VARS:
            self._bits = self._models = None
            self._groups = encoded
            self._unconditioned = ()
            return
        full, bits = _literal_models(n)
        models = []
        acc = full
        for enc in encoded:
            for c in enc:
                acc &= _models_of(c, bits)
                if not acc:
                    break
            models.append(acc)
            if not acc:
                break
        self._bits = bits
        self._models = models
        self._groups = None
        self._unconditioned = full

    def condition(self, context: Iterable[Literal] = ()):
        """The worlds of a literal context: a bitset, 0 when the context
        contradicts itself; above the cap its unit clauses, None when a
        contradiction lies on variables no clause mentions."""
        free: set[Literal] = set()
        ctx = self._unconditioned
        for lit in context:
            if lit.var in self._index:
                ctx = self.narrow(ctx, lit)
            elif negate(lit) in free:
                return 0 if self._models is not None else None
            else:
                free.add(lit)
        return ctx

    def narrow(self, ctx, lit: Literal):
        """`ctx` with `lit` added. A context does not record literals on
        variables no clause mentions, so a clash with one goes unseen here:
        add only literals on variables the context does not mention yet,
        and let `condition` take any other context."""
        i = self._index.get(lit.var)
        if i is None:
            return ctx
        if not lit.positive:
            i = -i
        if self._models is not None:
            return ctx & self._bits[i]
        return None if ctx is None else (*ctx, i)

    def level(self, ctx) -> int:
        """The index into `degrees` of the context's degree: 0 (degree 1)
        for a contradictory context; otherwise i for the first level i whose
        cut has no model of the context, or the last index (degree 0)."""
        if self._models is not None:
            if not ctx:
                return 0
            for i, models in enumerate(self._models, 1):
                if not models & ctx:
                    return i
            return len(self.degrees) - 1

        if ctx is None or any(-u in ctx for u in ctx):
            return 0
        accumulated = [frozenset((u,)) for u in ctx]
        for i, enc in enumerate(self._groups, 1):
            accumulated.extend(enc)
            if not _dpll_sat(accumulated):
                return i
        return len(self.degrees) - 1

    def inconsistency(self, context: Iterable[Literal] = ()) -> Fraction:
        """1 when the context contradicts itself; otherwise the weight of
        the first level whose cut has no model of the context, or 0."""
        return self.degrees[self.level(self.condition(context))]


def _require_clausal(b: WeightedBase, op: str) -> None:
    if not b.is_clausal:
        raise DomainError(f"{op} requires a clausal base; run to_clausal first")


def _levels(b: WeightedBase, op: str) -> _Levels:
    """The weight levels of a clausal base, highest first.

    They are encoded on the first degree question asked of `b` and kept on
    the base, which is immutable, so a stage's closure and CPT sweep ask
    all their questions of one encoding. `op` names the caller in the
    error for a base that is not clausal.
    """
    levels = b._levels
    if levels is None:
        _require_clausal(b, op)
        by_weight: dict[Fraction, list[Clause]] = {}
        for c, w in b.entries:
            by_weight.setdefault(w, []).append(c)
        weights = sorted(by_weight, reverse=True)
        levels = _Levels(weights, [by_weight[w] for w in weights])
        object.__setattr__(b, "_levels", levels)
    return levels


def is_satisfiable(clauses: Iterable[Clause]) -> bool:
    """True iff some interpretation satisfies every clause."""
    return _Levels((ONE,), [clauses]).inconsistency() == 0


def entails(premises: Iterable[Clause], conclusion: Clause) -> bool:
    """Classical entailment, decided by refutation: the premises have no
    model once the conclusion's negated literals are hard facts."""
    refutation = (negate(l) for l in conclusion.literals)
    return _Levels((ONE,), [premises]).inconsistency(refutation) != 0


# ---------------------------------------------------------------------------
# cuts and inconsistency


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
    return _levels(b, "inconsistency_degree").inconsistency()


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


def certainty_degree(
    b: WeightedBase, lit: Literal, context: Iterable[Literal] = ()
) -> Fraction:
    """Entailment degree of a literal, with the literals of `context` taken
    as hard facts; defined for inconsistent bases too: the refutation level
    counts only when it exceeds the inconsistency of the base under the
    context, otherwise nothing genuinely supports the literal."""
    levels = _levels(b, "certainty_degree")
    context = tuple(context)
    base_inc = levels.inconsistency(context)
    refute_inc = levels.inconsistency((*context, negate(lit)))
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

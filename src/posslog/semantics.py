"""Possibility-theoretic semantics of weighted bases.

The central object is the best-out distribution of a base: a world that
satisfies every entry has possibility 1, any other world is penalized by
the strongest entry it falsifies. On top of that sit the inconsistency
degree, possibility/necessity measures, entailment degrees and the converse
construction of a base from a distribution.

A clause has one encoding, `_ClauseBits`' two bits per variable in one
int. A clausal base is encoded on the first question asked of it and
keeps its weight levels, the encoding split by weight, which then answer
the inconsistency degree of the base under any literal or formula
context; a compile encodes its clausal input once, builds nothing on it,
and hands the integer clauses from stage to stage. Clause cleanup
(`_reduce`: dropping tautologies, merging duplicates, removing subsumed
entries) runs on the same encoding.
Satisfiability is decided by an exhaustive bitset sweep for small
universes (the common case here), where a question is a few integer
ANDs, and above that by a complete search with unit propagation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product
from operator import and_
from typing import Callable, Iterable, Iterator

from .errors import DomainError, InconsistentBaseError
from .model import (
    ONE,
    ZERO,
    And,
    Clause,
    Const,
    Distribution,
    Formula,
    Interpretation,
    Literal,
    Not,
    Or,
    Var,
    WeightedBase,
    _formula_models,
    interpretations,
    negate,
    satisfies,
)
from .model import cnf_clauses  # not called here; bench/tracing.py wraps it here

# Above this many variables the exhaustive bitset path would allocate
# multi-megabyte integers, so the clause solver switches to DPLL.
_BITSET_MAX_VARS = 16


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
    size = 1 << n
    tables = []
    for j in range(n):
        period = 1 << (n - j)  # a run of false worlds, then one of true
        table = ((1 << (period >> 1)) - 1) << (period >> 1)
        while period < size:
            table |= table << period
            period <<= 1
        tables.append(table)
    return tuple(tables)


def _search(
    clauses: list[int], true: int, false: int, pending: list[tuple[int, int]]
) -> tuple[int, int] | None:
    """Depth-first search with unit propagation on integer clauses
    (`_ClauseBits`), from the partial assignment `true` (literal bits, no
    pair with both), whose negations are `false`, and the alternatives left
    on `pending`, each such a pair. A clause is
    satisfied when it has a bit in `true`, and its free bits are those
    whose negation is not in `true`: none is a conflict, one is a unit,
    which is set. When no clause is a unit, the search sets the lowest
    free bit of the first clause not yet satisfied and pushes the
    assignment with its negation instead onto `pending`; on a conflict it
    resumes from the last one pushed.

    The result is a model with its negations, the `true` it reached with
    every clause satisfied and every start bit kept and its `false`, or
    None once `pending` is empty. A model leaves the alternatives not yet
    tried on `pending`, so a caller that appends clauses can resume the
    search from the model and its negations (as `_Levels._refuted` does):
    an assignment that conflicted with fewer clauses conflicts with more,
    so a resumed search still covers every assignment not refuted."""
    while True:
        first = 0  # the free bits of the first clause not yet satisfied
        units = False
        for c in clauses:
            if c & true:
                continue
            free = c & ~false
            if free & (free - 1):
                if not first:
                    first = free
            elif free:
                true |= free
                # `_negation(free)`, inlined: units are the search's hot path.
                false |= free >> 1 if free.bit_length() & 1 == 0 else free << 1
                units = True
            else:
                break
        else:
            if units:
                continue  # a late unit can make an earlier clause a unit or a conflict
            if not first:
                return true, false
            lit = first & -first
            negation = _negation(lit)
            pending.append((true | negation, false | lit))
            true |= lit
            false |= negation
            continue
        if not pending:
            return None
        true, false = pending.pop()


def _negation(bit: int) -> int:
    """The negation of a literal bit: the other bit of its pair."""
    return bit >> 1 if bit.bit_length() % 2 == 0 else bit << 1


def _negations(bits: int) -> int:
    """The negations of a set of literal bits, each swapped within its
    pair. The mask of lower bits must reach the highest pair, so its width
    is rounded up to a whole pair."""
    lower = ((1 << 2 * ((bits.bit_length() + 1) // 2)) - 1) // 3
    return (bits & lower) << 1 | (bits >> 1) & lower


def _literal_bits(c: int) -> list[int]:
    """The literal bits of an integer clause, lowest first."""
    out = []
    while c:
        bit = c & -c
        out.append(bit)
        c ^= bit
    return out


# ---------------------------------------------------------------------------
# integer clauses


class _ClauseBits:
    """Clauses over an ordered universe as integers: the one clause
    encoding, read by the syntactic layer (conditioning, the cross product,
    duplicate merging and subsumption) and by the weight levels.

    The variable of name rank i owns the two bits at 2(n-1-i): the upper
    one for its negative literal, the lower one for its positive literal.
    So a clause is a tautology when some pair has both bits set, and two
    clauses of the same length compare by their literals sorted as
    `(name, positive)` pairs exactly as their integers compare, reversed.
    Bit order is monotone in name rank, so a codec over more variables
    orders, decodes and masks the same clauses as one over fewer.
    """

    __slots__ = ("pairs", "literals", "_positive")

    def __init__(self, universe: Iterable[Var]):
        ranked = sorted(universe, key=lambda v: v.name)
        n = len(ranked)
        # The bit of each variable's positive literal, the lower of its pair.
        self.pairs = {v: 1 << 2 * (n - 1 - i) for i, v in enumerate(ranked)}
        # Built on the first decode: a base only asked degrees never decodes.
        self.literals: dict[int, Literal] | None = None
        self._positive = ((1 << 2 * n) - 1) // 3  # every lower bit of a pair

    def bit(self, lit: Literal) -> int:
        """The bit of `lit`; 0 for a variable outside the codec."""
        return self.pairs.get(lit.var, 0) << (not lit.positive)

    def encode(self, c: Clause) -> int:
        pairs = self.pairs
        return sum(pairs[lit.var] << (not lit.positive) for lit in c.literals)

    def decode(self, c: int) -> Clause:
        # The literals go into the clause's set in sorted order, highest
        # bit first, as a clause built from sorted literals has them: the
        # two sets then iterate, and print, in the same order.
        literals = self.literals
        if literals is None:
            literals = self.literals = {}
            for v, bit in self.pairs.items():
                literals[bit], literals[bit << 1] = Literal(v, True), Literal(v, False)
        return Clause([literals[bit] for bit in reversed(_literal_bits(c))])

    def span(self, c: int) -> int:
        """Both bits of each pair that `c` touches: a mask of variables."""
        return ((c | c >> 1) & self._positive) * 3

    def variables(self, mask: int) -> list[Var]:
        """The variables whose pairs `mask` touches, in name order: the
        order of `pairs`, highest pair first."""
        return [v for v, bit in self.pairs.items() if bit * 3 & mask]

    @staticmethod
    def order(c: int) -> tuple[int, int]:
        """Sorts clauses by length, then by their literals sorted as
        `(name, positive)` pairs."""
        return c.bit_count(), -c


def _in_order(clauses: Iterable[int]) -> list[int]:
    """`clauses` sorted in `_ClauseBits.order` by two sorts at C level,
    with no Python key call per clause: by descending integer, then by
    length, which a stable sort keeps among clauses of one length."""
    out = sorted(clauses, reverse=True)
    out.sort(key=int.bit_count)
    return out


def _layout(bits: list[int]) -> tuple[int, dict[int, int]]:
    """The set of all worlds over the variables whose positive literal bits
    are `bits`, the first most significant, and the worlds where each
    literal bit of those pairs holds, keyed by the bit."""
    full = (1 << (1 << len(bits))) - 1
    tables: dict[int, int] = {}
    for bit, table in zip(bits, _truth_tables(len(bits))):
        tables[bit] = table
        tables[bit << 1] = full ^ table
    return full, tables


def _literal_tables(used: int) -> tuple[int, dict[int, int]] | None:
    """`_layout` of the variables whose pairs `used` touches, highest pair
    most significant; None above `_BITSET_MAX_VARS`, where satisfiability
    is left to the DPLL search."""
    bits = []  # the lower bit of each used variable's pair, highest first
    while used:
        low = (used.bit_length() - 1) & ~1
        bits.append(1 << low)
        used &= ~(3 << low)
    if len(bits) > _BITSET_MAX_VARS:
        return None
    return _layout(bits)


def _clause_models(c: int, tables: dict[int, int]) -> int:
    """The worlds that satisfy an integer clause, given the tables of
    `_literal_tables`: none for the empty clause, all for a tautology."""
    out = 0
    while c:
        bit = c & -c
        out |= tables[bit]
        c ^= bit
    return out


def _cuts(groups: list[list[int]], tables: dict[int, int], full: int) -> list[int]:
    """The ladder of cuts: entry i holds the worlds of `full` that satisfy
    every clause of the first i groups, so entry 0 is `full` itself, and a
    context's level is the index of the first entry that misses it. The
    literal tables are those of a layout keyed as `_literal_tables` keys
    them. A tautology's models are every world, so it cuts nothing; the
    ladder stops at the first empty cut, since every later one is empty
    too."""
    cut = full
    ladder = [cut]
    for group in groups:
        for c in group:
            cut &= _clause_models(c, tables)
            if not cut:
                break
        ladder.append(cut)
        if not cut:
            break
    return ladder


def _project(worlds: int, size: int, width: int) -> int:
    """A set of worlds of a `size`-world layout projected onto its `width`
    lowest worlds (both powers of two): halving the layout, each time
    ORing the upper half onto the lower one, forgets its most significant
    variables, so bit i is set when some world of `worlds` agrees with
    world i on the variables left. The column sweep
    (`_Levels.column_levels`) folds each cut onto its cells this way."""
    while size > width:
        size >>= 1
        worlds = worlds >> size | worlds & ((1 << size) - 1)
    return worlds


class _World(dict):
    """A world as the one-world truth tables `_formula_models` reads: 1
    for each variable it holds true; any other variable, one a model
    leaves unassigned or one no clause uses, is false."""

    __slots__ = ()

    def __missing__(self, var: Var) -> int:
        return 0


def _gate_clauses(f: Formula, pairs: dict[Var, int]) -> list[int]:
    """Integer clauses that are satisfiable together with any set of
    clauses over `pairs` exactly when `f` is: the one-sided Tseitin
    encoding of Plaisted and Greenbaum, built in one walk of `f` with its
    negations pushed to the literals. `pairs` holds the positive literal's
    bit of each variable the clauses use; any other variable of `f`, and
    each gate, takes the next pair above the highest of `pairs`, in the
    order the walk meets them: a conjunction's gate before its parts.

    A disjunction is the OR of its parts' literals and gates. Each
    conjunction is a fresh gate g, with one clause ¬g ∨ part per part
    that is not true (the unit ¬g for a false part): g only implies its
    parts, and that is all a disjunction that holds g, only positively,
    needs. The walk's result at the top is one more clause, so a
    top-level conjunction is its gate's clauses and the unit g, which
    unit propagation sets before any branch. `false` is the empty clause.
    Every clause the walk makes is kept: a tautological clause holds
    under every assignment, and the clauses of a part whose disjunction
    turned out true name gates that nothing else names, so setting those
    gates false satisfies them."""
    out: list[int] = []
    bits = dict(pairs)  # and then each variable of `f` outside `pairs`
    fresh = max(pairs.values(), default=0) << 2 or 1

    def clause(g: Formula, negated: bool) -> int | None:
        """A literal bit or clause that implies `g`, negated when
        `negated`: 0 when `g` is false, None when it is true."""
        nonlocal fresh
        if isinstance(g, Literal):
            b = bits.get(g.var)
            if b is None:
                b = bits[g.var] = fresh
                fresh <<= 2
            return b if g.positive != negated else b << 1
        if isinstance(g, Not):
            return clause(g.operand, not negated)
        if isinstance(g, Const):
            return None if g.value != negated else 0
        if isinstance(g, Clause):
            parts, conjunctive = g.literals, negated
        elif isinstance(g, (And, Or)):
            parts, conjunctive = g.parts, isinstance(g, And) != negated
        else:
            raise TypeError(f"not a formula: {g!r}")
        if conjunctive:
            gate, fresh = fresh, fresh << 2
            for p in parts:
                d = clause(p, negated)
                if d is not None:
                    out.append(d | gate << 1)
            return gate
        c = 0
        for p in parts:
            d = clause(p, negated)
            if d is None:
                return None
            c |= d
        return c

    c = clause(f, False)
    if c is not None:
        out.append(c)
    return out


class _SearchedColumns:
    """`_Levels.column_levels` above the cap: the level pairs of a table's
    columns, each asked only when it is read, in column order or by index.
    Column i is the parent context u that reads i in binary, one (negative,
    positive) bit pair per parent, the first most significant.

    A column is one level walk of u (`_Levels._walk`). u's level is the
    larger of its halves' levels, u ∧ ¬x and u ∧ x, and the model the walk
    leaves satisfies every cut below that level, so the half whose literal
    the model does not make false has u's level. Only the other half, if
    the model assigns x at all, is walked again. A column's negations are
    its bits XOR both bits of every parent's pair, so no walk negates its
    start."""

    __slots__ = ("_levels", "_x", "_bits", "_span")

    def __init__(self, levels: _Levels, x: int, bits: list[tuple[int, int]]):
        self._levels, self._x, self._bits = levels, x, bits
        self._span = sum(neg | pos for neg, pos in bits)  # both bits of each parent

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return map(self._pair, map(sum, product(*self._bits)))

    def __getitem__(self, i: int) -> tuple[int, int]:
        u = 0
        for neg, pos in reversed(self._bits):  # the last parent is i's lowest bit
            u |= pos if i & 1 else neg
            i >>= 1
        return self._pair(u)

    def _pair(self, u: int) -> tuple[int, int]:
        walk, x = self._levels._walk, self._x
        negations = u ^ self._span
        level, false = walk(u, negations)
        neg = walk(u | x << 1, negations | x)[0] if false & x << 1 else level
        return neg, walk(u | x, negations | x << 1)[0] if false & x else level


class _Levels:
    """A clausal base's integer clauses (`_encoded`) split into weight
    levels, highest first, and then asked for the inconsistency degree of
    the base together with any literal context, or any formula, taken as
    hard facts. Tautologies, clauses with both bits of a pair, are
    dropped.

    Up to `_BITSET_MAX_VARS` variables that the clauses use, the levels
    are a ladder of bitsets (`_cuts`): entry 0 holds every world, and entry
    i the worlds that satisfy every clause of the first i levels, so the
    entries only shrink, and entry i lines up with `degrees[i]`. A context
    is then the AND of its literals' truth tables, and its level is the
    index of the first entry that misses it. The used variables' truth
    tables are laid out when the levels are built, and `_tables` is None
    exactly above the cap; the ladder is built by the first `level`
    question (`_ladder`), and a base's kept levels (`_levels`) build it at
    once. `column_levels` reads only the groups, and lays out a ladder of
    its own, so a compile stage whose levels answer only its closure and
    table builds none. Above the cap a question is one
    depth-first search (`_search`) over the growing cut, resumed level by
    level, that starts from a literal context's bits (a formula context is
    its gate clauses instead, `_gate_clauses`, hard clauses searched from
    the empty assignment, whose units, the top conjunction's gate among
    them, are set before any branch): a level
    whose clauses the witness in hand satisfies is satisfiable as it
    stands, and at a level the witness misses the search goes on from the
    last searched model with the branches it left pending, to find the
    next model or to refute the cut. A cut only adds
    clauses, so a branch refuted under an earlier cut is refuted under
    every later one, and no level searches again what an earlier one
    refuted. The groups are kept on both paths, since a formula on a
    variable that no clause uses is asked by that walk on either.

    Above the cap every literal context is asked through one primitive,
    `_walk`: the context's level and the negations of its walk's last
    witness, a model of every cut below that level. The witness settles
    more than the context: adding a literal it does not make false leaves
    the level as it is, since a literal only removes models and the
    witness extended by it shows the level is not lower. So a context with
    one more literal, the question of a conditional and of each half of a
    table's column, is walked again only where the witness makes that
    literal false.

    The level of the empty context, the base's own inconsistency, is
    asked by every query and so is computed once, by `own_level`. Above
    the cap its walk's witness, the own model, is kept: a model of every
    level of a consistent base. Once it is kept, `_walk` answers a context
    the model admits with the own level and that model, with no search,
    and any other walk completes each model it searches with the own
    model's literals before it searches a level (`_refuted`): the
    completion often passes the levels that the searched model misses.
    Bitset-path levels keep no model.

    A context is built by `condition` and can then be asked its `level`:
    on the bitset path it is the mask of its worlds, above the cap the OR
    of its literals' bits with the OR of their negations, built bit by bit
    beside them, so that no walk negates its start. `formula_level` asks
    the same of a formula, and `conditional_levels` the levels of a
    context with and without a literal from one `condition` of the
    context: the literal's table is ANDed in, or its bit ORed in, and
    above the cap one walk usually answers both.
    `column_levels` gives the pair of levels of every column of a CPT, the
    one sweep behind both the CPT and the hidden-parent closure: on the
    bitset path all at once, above the cap lazily, a column at a time,
    each usually one walk. A degree is `degrees[level]`, read off the
    descending tuple of 1, the level weights and 0, so that callers can
    memoize on the index.

    Every product-based degree is a ratio of the complements of two of
    them, Π(x | u) = (1 − Inc(Σ ∧ u ∧ x)) / (1 − Inc(Σ ∧ u)), and Π(φ)
    is the conditional given the own level of a consistent base, whose
    degree is 0. So the levels keep one memo, `conditional(h, joint)`,
    keyed by the pair of level indices and never by the question: a
    pair's ratio is one exact division (`_ratio`) the first time the pair
    is met, and a lookup after.

    The codec may span variables that no clause uses, such as one a
    marginal base forgot. A context literal on such a variable, or on one
    the codec lacks, constrains nothing, unless the context also holds its
    negation.
    """

    __slots__ = (
        "degrees", "_pairs", "_full", "_tables", "_models", "_groups", "_own",
        "_kept", "_true", "_false", "_world", "_columns", "_ratios",
    )

    def __init__(
        self, codec: _ClauseBits, entries: list[tuple[int, int]], weights: list[Fraction]
    ):
        by_rank: dict[int, list[int]] = {}
        used = 0
        low = codec._positive  # the lower bit of every pair
        for c, r in entries:
            if not c & c >> 1 & low:
                by_rank.setdefault(r, []).append(c)
                used |= c
        ranks = sorted(by_rank, reverse=True)
        self.degrees = (ONE, *(weights[r] for r in ranks), ZERO)
        # The positive literal's bit of each variable that some clause uses.
        self._pairs = {v: bit for v, bit in codec.pairs.items() if bit * 3 & used}
        self._groups = [by_rank[r] for r in ranks]
        self._own: int | None = None
        # Set by `own_level` above the cap only, so None means there is no
        # model to consult: the own walk's answer, kept whole so that
        # `_walk` hands it over with nothing built, its model, the model's
        # negations and its world.
        self._kept = self._true = self._false = self._world = None
        # Each used variable's truth table, keyed by the variable: built
        # by the first `formula_level` on the bitset path.
        self._columns: dict[Var, int] | None = None
        # `conditional`'s memo: the ratio of each pair of level indices met.
        self._ratios: dict[tuple[int, int], Fraction] = {}
        # The ladder, built by the first `level` question (`_ladder`).
        self._models: list[int] | None = None
        # The layout of the used variables; no tables above the cap.
        self._full, self._tables = _literal_tables(used) or (0, None)

    def condition(self, context: Iterable[Literal] = ()):
        """The worlds of a literal context: a bitset, 0 when the context
        contradicts itself; above the cap the OR of its literals' bits and
        the OR of their negations, None when it contradicts itself. A
        literal on a variable no clause uses has no bit, so a clash with
        one is caught by name."""
        pairs, tables = self._pairs, self._tables
        free: set[Literal] = set()
        if tables is not None:
            ctx = self._full
            for lit in context:
                bit = pairs.get(lit.var)
                if bit is not None:
                    ctx &= tables[bit if lit.positive else bit << 1]
                elif negate(lit) in free:
                    return 0
                else:
                    free.add(lit)
            return ctx
        true = false = 0
        for lit in context:
            bit = pairs.get(lit.var)
            if bit is None:
                if negate(lit) in free:
                    return None
                free.add(lit)
                continue
            neg = bit << 1
            if not lit.positive:
                bit, neg = neg, bit
            if false & bit:
                return None
            true |= bit
            false |= neg
        return true, false

    def formula_level(self, f: Formula) -> int:
        """`level` with a formula, instead of literals, as the hard context.

        On the bitset path the formula is evaluated to the mask of its
        models, in one walk with the used variables' truth tables. A
        formula that names a variable no clause uses, and every formula
        above the cap, is instead asked by the search's level walk, with
        the formula's gate clauses as its hard clauses (`_gate_clauses`, a
        linear encoding with no CNF expansion, a gate per conjunction):
        with any cut they are satisfiable exactly when the formula is, so
        each level is the formula's own. Their gates, and the variables
        that no clause uses, take pairs above every pair the clauses use,
        so their bits never leave the walk.
        Once `own_level` has kept the own model, the formula is first
        evaluated once on the model's world; a world that satisfies it
        answers the own level, with no search.
        A formula context is not a `level` argument, so that `level` keeps
        its literal contexts free of a type dispatch.
        """
        world = self._world
        if world is not None and _formula_models(f, world, 1):
            return self._own
        pairs, tables = self._pairs, self._tables
        if tables is not None:
            columns = self._columns
            if columns is None:
                columns = self._columns = {v: tables[bit] for v, bit in pairs.items()}
            try:
                return self.level(_formula_models(f, columns, self._full))
            except KeyError:  # f mentions a variable that no clause uses
                pass
        return self._refuted(_gate_clauses(f, pairs), 0, 0)[0]

    def level(self, ctx) -> int:
        """The index into `degrees` of the context's degree: 0 (degree 1)
        for a contradictory context; otherwise i for the first level i whose
        cut has no model of the context, or the last index (degree 0). On
        the bitset path that is the first ladder entry that misses the
        context, and a contradictory context, no world, misses entry 0.
        Above the cap it is the level of the context's walk (`_walk`)."""
        ladder = self._models
        if ladder is None and self._tables is not None:
            ladder = self._ladder()
        if ladder is not None:
            for i, models in enumerate(ladder):
                if not models & ctx:
                    return i
            return len(self.degrees) - 1

        if ctx is None:
            return 0
        return self._walk(*ctx)[0]

    def _ladder(self) -> list[int]:
        """The ladder of cuts on the bitset path (`_cuts`), built once."""
        ladder = self._models = _cuts(self._groups, self._tables, self._full)
        return ladder

    def conditional_levels(
        self, context: tuple[Literal, ...], lit: Literal
    ) -> tuple[int, int]:
        """The `level` of a literal context and that of the context with
        `lit`, from one `condition` of the context. A `lit` on a variable
        that no clause uses leaves the level as it is, unless the context
        holds its negation. On the bitset path the joint context is the
        context's worlds ANDed with `lit`'s table, and each is asked its
        `level`. Above the cap it is the context with `lit`'s bit ORed in,
        and the two are one walk of the context (`_walk`, which the own
        model answers when it admits the context), and a second of the
        joint context only where the walk's model makes `lit` false:
        otherwise the two levels are equal."""
        ctx = self.condition(context)
        bit = self._pairs.get(lit.var)
        if bit is None:
            level = self.level(ctx)
            return level, 0 if negate(lit) in context else level
        neg = bit << 1
        if not lit.positive:
            bit, neg = neg, bit
        if self._tables is not None:
            return self.level(ctx), self.level(ctx & self._tables[bit])
        if ctx is None:
            return 0, 0
        true, false = ctx
        level, missed = self._walk(true, false)  # the negations of its witness
        if false & bit:  # the context holds the negation of `lit`
            return level, 0
        return level, self._walk(true | bit, false | neg)[0] if missed & bit else level

    def conditional(self, h: int, joint: int) -> Fraction:
        """The ratio (1 − degrees[joint]) / (1 − degrees[h]), or 1 when
        degrees[h] is 1 (an impossible context): Π(x | u) with h the level
        of u and `joint` that of u ∧ x. Memoized by the pair of indices,
        so each pair is divided once (`_ratio`)."""
        ratios = self._ratios
        ratio = ratios.get((h, joint))
        if ratio is None:
            degrees = self.degrees
            ratio = ratios[h, joint] = _ratio(degrees[h], degrees[joint])
        return ratio

    def column_levels(
        self, var: Var, parents: tuple[Var, ...]
    ) -> Iterable[tuple[int, int]]:
        """The `level` pair of each column of `var`'s table given `parents`
        (its parent context with ¬var, then with var), in column order:
        False before True, first parent most significant.

        Above the cap the pairs are asked lazily (`_SearchedColumns`), a
        column at a time, when it is read in order or by index, so a caller
        that stops early or skips columns asks no more: a column's context
        is the OR of one literal bit per parent, and a variable that no
        clause uses has bit 0. A column is one walk of its parent context,
        and a second only for the half whose literal that walk's model
        makes false.

        On the bitset path they are read off in one pass, as a list, from a
        ladder of cuts of its own (`_ladder`'s is never read), built from
        the groups over the used variables laid out with the rest most
        significant, then the parents in parent order, then `var`, so that
        the low bits of a world number its cell (a parent assignment and a
        value of `var`). `_project` forgets the variables
        of the rest and leaves bit c of an entry set when the entry meets
        cell c. Entries are nested, so a cell meets a prefix of the ladder,
        and its level is the number of entries it meets: the cells' counts
        are summed for all cells at once, as fields of one integer.

        A parent or `var` that no clause uses is not laid out: it changes
        no level, so its columns repeat those without it.
        """
        pairs = self._pairs
        if self._tables is None:
            bits = [(pairs.get(p, 0) << 1, pairs.get(p, 0)) for p in parents]
            return _SearchedColumns(self, pairs.get(var, 0), bits)
        held = [p for p in parents if p in pairs]
        front = [*held, var] if var in pairs else held
        rest = [v for v in pairs if v not in front]
        full, tables = _layout([pairs[v] for v in (*rest, *front)])
        ladder = _cuts(self._groups, tables, full)
        cells = 1 << len(front)
        # A projected entry's binary text has one digit per cell, cell 0
        # last. Read with a byte (or, from 256 entries on, four) per digit,
        # the digit's character code, it is an integer with a field per
        # cell; less the reading of an all-"0" text, each field is 0 or 1,
        # and the sum of those adds up every cell's count without a carry
        # between fields.
        width, code = (1, "latin-1") if len(ladder) < 256 else (4, "utf-32-be")
        size = full.bit_length()
        total = -len(ladder) * int.from_bytes(("0" * cells).encode(code), "big")
        for cut in ladder:
            cut = _project(cut, size, cells)
            total += int.from_bytes(f"{cut:0{cells}b}".encode(code), "big")
        raw = total.to_bytes(width * cells, "little")  # cell 0 first
        counts = raw if width == 1 else [
            int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)
        ]
        if len(front) > len(held):
            columns = list(zip(counts[0::2], counts[1::2]))
        else:
            columns = list(zip(counts, counts))
        if len(held) < len(parents):
            index = [0]
            for p in parents:
                index = [2 * i + v if p in pairs else i for i in index for v in (0, 1)]
            columns = [columns[i] for i in index]
        return columns

    def own_level(self) -> int:
        """`level` of the empty context, computed on the first call. Above
        the cap its walk's answer is kept: the own model, which `_refuted`
        completes other walks' models with, its negations for `_walk` and
        its world for `formula_level`."""
        own = self._own
        if own is None:
            if self._tables is not None:
                own = self.level(self._full)
            else:
                own, self._true, self._false = self._refuted([], 0, 0)
                self._kept = own, self._false
                self._world = _World(
                    {v: 1 for v, bit in self._pairs.items() if self._false & bit << 1}
                )
            self._own = own
        return own

    def _walk(self, true: int, false: int) -> tuple[int, int]:
        """Above the cap, the `level` of a literal context's bits `true`
        (not a contradictory context), whose negations are `false`, with
        the negations of its walk's last witness (`_refuted`): a model of
        every cut below that level that holds the context's bits. Once the
        own model is kept, a context it admits is answered by the kept
        pair, the own level and that model, with no search."""
        own = self._false
        if own is not None and not true & own:
            return self._kept
        level, _, false = self._refuted([], true, false)
        return level, false

    def _refuted(
        self, hard: list[int], true: int, false: int
    ) -> tuple[int, int | None, int | None]:
        """`level` by one resumed `_search` over integer hard clauses (a
        formula's gate clauses) from the literal bits `true` (a literal
        context's) and their negations `false`, handed back with the walk's
        last witness and its negations: level 0, with no witness, when no
        model keeps the hard clauses. Otherwise the cut of each level is
        appended to the hard clauses in turn, and a level whose clauses the
        witness in hand satisfies is satisfiable as it stands.

        Where the witness misses one, and the own model is kept, the
        completion of the last searched model is tried first: the model
        plus every literal of the own model whose negation the model does
        not hold, one OR and consistent. It extends the model, so it
        satisfies every clause the model does; if it also satisfies the
        level's, it is the new witness, with no search. Otherwise the
        search resumes from the last searched model, not its completion,
        with the alternatives it left pending; its model is the new
        witness, and the first level where it finds none is the answer.
        The witness then in hand holds `true` and is a model of the cut
        before it (of every cut, at the last index).

        Cuts only grow, and added clauses only remove models, so an
        assignment refuted under one cut stays refuted under every later
        one and is never searched again. A completion changes no search
        state, so the search stays complete and every level exact."""
        pending: list[tuple[int, int]] = []
        found = _search(hard, true, false, pending)
        if found is None:
            return 0, None, None
        model, false = witness, mask = found
        own = self._true
        tried = own is None  # whether the completion of `model` was tried
        for i, group in enumerate(self._groups, 1):
            hard.extend(group)
            if all(c & witness for c in group):
                continue
            if not tried:
                tried = True
                completion = model | own & ~false
                if all(c & completion for c in group):
                    witness, mask = completion, false | self._false & ~model
                    continue
            found = _search(hard, model, false, pending)
            if found is None:
                return i, witness, mask
            model, false = witness, mask = found
            tried = own is None
        return len(self.degrees) - 1, witness, mask

    def inconsistency(self, context: Iterable[Literal]) -> Fraction:
        """1 when the context contradicts itself; otherwise the weight of
        the first level whose cut has no model of the context, or 0."""
        return self.degrees[self.level(self.condition(context))]


def _ratio(context: Fraction, joint: Fraction) -> Fraction:
    """(1 − joint) / (1 − context), or 1 when `context` is 1, as one
    `Fraction` built from the two degrees' numerators and denominators:
    one normalization instead of the three of two subtractions and a
    division."""
    n, d = context.numerator, context.denominator
    if n == d:
        return ONE
    jn, jd = joint.numerator, joint.denominator
    return Fraction((jd - jn) * d, jd * (d - n))


def _reduce(entries: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """`normalize.remove_subsumed` on integer clauses (`_ClauseBits`) with
    weight ranks (see `_encoded`): the merged entries that survive, in
    first-occurrence order. The merge keeps each distinct clause at its
    largest rank and skips tautologies, which follow from no premises at
    all, so the result is free of them too.

    Entries are tested lightest first, by weight, then clause length, then
    sorted literals. One pass reaches the fixpoint: dropping a premise only
    weakens entailment, so an entry kept once is never redundant later.

    So every heavier entry is still present at a test, and a lighter one
    is never a premise: the weight groups can be walked heaviest first,
    each in `_ClauseBits.order`, and an entry's premises are every clause
    of a greater weight, the kept clauses of its group tested before it,
    and the rest of its group (`_kept`, the walk after the merge). The
    entry is redundant when they have no model outside its own. Up to the
    bitset cap each clause is encoded once into its models over the
    variables the clauses mention, a group at a time (a marginal's pairs
    take theirs from their sides' models instead, `marginalize._marginal`),
    and the test is an AND of models; above it the test is a DPLL search
    of the premises from the entry's negated literals, whose negations are
    the entry itself. The premises are one list per group, heavier +
    group, from which the entry under test is taken out and, if kept, put
    back in its place: each search gets heavier + mine + group[t + 1:].
    """
    best: dict[int, int] = {}  # each distinct clause's largest rank
    for c, r in entries:
        if r > best.get(c, 0) and not c & _negations(c):
            best[c] = r
    used = 0
    for c in best:
        used |= c
    found = _literal_tables(used)
    if found is None:
        return _kept(best, 0, None)
    full, tables = found
    return _kept(best, full, lambda group: [_clause_models(c, tables) for c in group])


def _kept(
    best: dict[int, int], full: int, models: Callable[[list[int]], list[int]] | None
) -> list[tuple[int, int]]:
    """`_reduce`'s weight-group walk on merged entries `best` (each
    distinct clause at its largest rank, in first-occurrence order): the
    entries that survive, in that order. `models` gives the models of each
    clause of a group, over a layout of the worlds `full` that spans every
    clause; None above the bitset cap, where each test is a search and the
    entries must be tautology-free. On the bitset path a tautology's
    models are every world, so it is dropped as redundant and changes no
    other test.

    Each group is tested in `_ClauseBits.order` (`_in_order`)."""
    by_rank: dict[int, list[int]] = {}
    for c, r in best.items():
        by_rank.setdefault(r, []).append(c)
    below = full  # the models of every clause of a greater weight
    heavier: list[int] = []  # every clause of a greater weight
    kept: set[int] = set()
    for r in sorted(by_rank, reverse=True):
        group = _in_order(by_rank[r])
        mine: list[int] = []  # the group's kept clauses so far
        if models is None:
            premises = heavier + group
            for c in group:
                slot = len(heavier) + len(mine)
                del premises[slot]
                if _search(premises, _negations(c), c, []) is not None:
                    premises.insert(slot, c)
                    mine.append(c)
            heavier += group
        else:
            group_models = models(group)
            # suffix[j]: the models of every heavier clause and of the
            # group's last j clauses, one AND each at C level.
            suffix = list(accumulate(reversed(group_models), and_, initial=below))
            below = suffix.pop()
            mine_models = full
            for c, m, after in zip(group, group_models, reversed(suffix)):
                if mine_models & after & ~m:
                    mine_models &= m
                    mine.append(c)
        kept.update(mine)
    return [(c, r) for c, r in best.items() if c in kept]


def _encoded(b: WeightedBase, op: str) -> tuple[_ClauseBits, list[tuple[int, int]], list]:
    """The entries of a clausal base as integer clauses, each with the rank
    of its weight: rank r stands for `weights[r]`, and ranks order as the
    weights do. Rank 0 is unused, so that every rank is positive, as
    `_reduce` needs; ranks compare as plain ints, not `Fraction`s.
    Nothing is kept on the base. The codec spans the variables the entries
    mention, so a universe variable no entry mentions costs nothing. `op`
    names the caller in the error for a base that is not clausal."""
    if not b.is_clausal:
        raise DomainError(f"{op} requires a clausal base; run to_clausal first")
    codec = _ClauseBits({lit.var for c, _ in b.entries for lit in c.literals})
    # Each weight is hashed once, for its index of first appearance; a
    # `Fraction` hash is not cached and costs about a microsecond.
    first: dict[Fraction, int] = {}
    indices = [first.setdefault(w, len(first)) for _, w in b.entries]
    distinct = list(first)
    order = sorted(range(len(distinct)), key=distinct.__getitem__)
    weights = [ZERO, *(distinct[i] for i in order)]
    rank = {i: r for r, i in enumerate(order, 1)}
    entries = [(codec.encode(c), rank[i]) for (c, _), i in zip(b.entries, indices)]
    return codec, entries, weights


def _decoded(encoding: tuple, variables: Iterable[Var]) -> WeightedBase:
    """The base over `variables` of the integer clauses of `encoding`,
    laid out as `_encoded`'s: the result of the syntactic layer's public
    functions, which is encoded afresh if it is asked a question."""
    codec, entries, weights = encoding
    return WeightedBase([(codec.decode(c), weights[r]) for c, r in entries], variables)


def _levels(b: WeightedBase, op: str) -> _Levels:
    """The weight levels of a clausal base, built from `_encoded` on the
    first degree question asked of `b` and kept on the base, its only
    cache, so every later question asked of it reads the same levels. On
    the bitset path their ladder of cuts is built here too: every question
    but a column sweep's reads it. `op` names the caller in `_encoded`'s
    error for a base that is not clausal."""
    levels = b._levels
    if levels is None:
        levels = _Levels(*_encoded(b, op))
        if levels._tables is not None:
            levels._ladder()
        object.__setattr__(b, "_levels", levels)
    return levels


def entails(premises: Iterable[Clause], conclusion: Clause) -> bool:
    """Classical entailment, decided by refutation: the premises have no
    model once the conclusion's negated literals are hard facts."""
    premises = list(premises)
    codec = _ClauseBits({lit.var for c in premises for lit in c.literals})
    levels = _Levels(codec, [(codec.encode(c), 1) for c in premises], [ZERO, ONE])
    return levels.inconsistency(negate(l) for l in conclusion.literals) != 0


# ---------------------------------------------------------------------------
# inconsistency


def inconsistency_degree(b: WeightedBase) -> Fraction:
    """The largest weight whose (non-strict) cut is unsatisfiable; 0 when
    the whole base is satisfiable.

    Computed as one descending sweep over the distinct weights: cuts only
    grow as the threshold drops, so the first unsatisfiable one wins. The
    base's weight levels keep the answer, so the sweep runs once per base.
    """
    levels = _levels(b, "inconsistency_degree")
    return levels.degrees[levels.own_level()]


# ---------------------------------------------------------------------------
# measures


def possibility(b: WeightedBase, f: Formula) -> Fraction:
    """Degree to which `f` is consistent with the base.

    Requires a consistent clausal base. Equals the maximum best-out degree
    over the models of `f`; an unsatisfiable `f` gets 0 (maximum over an
    empty set of worlds). `f` is asked of the base's weight levels as a
    hard context: 1 minus the inconsistency degree of the base with `f`,
    read from the levels' memo as the conditional given the own level,
    whose degree is 0 (`_Levels.conditional`).
    """
    levels = _consistent_levels(b, "possibility")
    return levels.conditional(levels.own_level(), levels.formula_level(f))


def necessity(b: WeightedBase, f: Formula) -> Fraction:
    """Degree to which `f` is entailed by the base: 1 - possibility(not f),
    which is the inconsistency degree of the base with not f."""
    levels = _consistent_levels(b, "necessity")
    return levels.degrees[levels.formula_level(Not(f))]


def _consistent_levels(b: WeightedBase, op: str) -> _Levels:
    """The weight levels of a base, with its own level asked first, so
    that the own model can answer; raises `InconsistentBaseError` for an
    inconsistent base."""
    levels = _levels(b, op)
    inc = levels.degrees[levels.own_level()]
    if inc != 0:
        raise InconsistentBaseError(inc)
    return levels


def certainty_degree(b: WeightedBase, lit: Literal) -> Fraction:
    """Entailment degree of a literal; defined for inconsistent bases too:
    the refutation level counts only when it exceeds the inconsistency of
    the base, otherwise nothing genuinely supports the literal. Levels are
    compared as indices: past index 0, which a single literal never
    reaches, a lower index has a higher degree."""
    levels = _levels(b, "certainty_degree")
    own = levels.own_level()
    refuted = levels.level(levels.condition((negate(lit),)))
    return levels.degrees[refuted] if refuted < own else ZERO


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

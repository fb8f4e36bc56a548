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
from itertools import product
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
    _formula_models,
    cnf_clauses,
    interpretations,
    negate,
    satisfies,
    vars_of,
)

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


def _search(clauses: list[int], true: int, pending: list[tuple[int, int]]) -> int | None:
    """Depth-first search with unit propagation on integer clauses
    (`_ClauseBits`), from the partial assignment `true` (literal bits, no
    pair with both) and the alternatives left on `pending`. A clause is
    satisfied when it has a bit in `true`, and its free bits are those
    whose negation is not in `true`: none is a conflict, one is a unit,
    which is set. When no clause is a unit, the search sets the lowest
    free bit of the first clause not yet satisfied and pushes the
    assignment with its negation instead onto `pending`; on a conflict it
    resumes from the last one pushed.

    The result is a model, the `true` it reached with every clause
    satisfied and every start bit kept (0 for no clauses from no start, so
    test it against None), or None once `pending` is empty. A model leaves
    the alternatives not yet tried on `pending`, so a caller that appends
    clauses can resume the search from the model (as `_Levels._refuted`
    does): an assignment that conflicted with fewer clauses conflicts with
    more, so a resumed search still covers every assignment not refuted."""
    false = _negations(true)
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
                return true
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

    __slots__ = ("pairs", "literals", "_ranked", "_positive")

    def __init__(self, universe: Iterable[Var]):
        self._ranked = ranked = sorted(universe, key=lambda v: v.name)
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

    def is_tautology(self, c: int) -> bool:
        return bool(c & (c >> 1) & self._positive)

    def span(self, c: int) -> int:
        """Both bits of each pair that `c` touches: a mask of variables."""
        return ((c | c >> 1) & self._positive) * 3

    def variables(self, mask: int) -> list[Var]:
        """The variables whose pairs `mask` touches, in name order (highest
        pair first)."""
        ranked, n = self._ranked, len(self._ranked)
        out = []
        while mask:
            pair = (mask.bit_length() - 1) >> 1
            out.append(ranked[n - 1 - pair])
            mask &= (1 << 2 * pair) - 1
        return out

    @staticmethod
    def order(c: int) -> tuple[int, int]:
        """Sorts clauses by length, then by their literals sorted as
        `(name, positive)` pairs."""
        return c.bit_count(), -c


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
    for bit in _literal_bits(c):
        out |= tables[bit]
    return out


def _cuts(groups: list[list[int]], tables: dict[int, int], full: int) -> list[int]:
    """The worlds of `full` that satisfy every clause of the first i+1
    groups, for each i in turn, given the literal tables of a layout keyed
    as `_literal_tables` keys them. A tautology's models are every world,
    so it cuts nothing; the list stops at the first empty cut, since every
    later one is empty too."""
    cuts = []
    acc = full
    for group in groups:
        for c in group:
            acc &= _clause_models(c, tables)
            if not acc:
                break
        cuts.append(acc)
        if not acc:
            break
    return cuts


class _Levels:
    """A clausal base's integer clauses (`_encoded`) split into weight
    levels, highest first, and then asked for the inconsistency degree of
    the base together with any literal context, or any formula, taken as
    hard facts. Tautologies are dropped.

    Up to `_BITSET_MAX_VARS` variables that the clauses use, level i is
    the bitset of the worlds that satisfy every clause of the first i+1
    levels, so the bitsets only shrink; building stops at the first empty
    one, since every later level is empty too. A context is then the AND
    of its literals' truth tables, and the degree is the first level
    weight whose models miss it. Above the cap a question is one
    depth-first search (`_search`) over the growing cut, resumed level by
    level, that starts from a literal context's bits (a formula context is
    its CNF as hard clauses instead): a level whose clauses the model in
    hand satisfies is satisfiable as it stands, and at a level the model
    misses the search goes on from that model with the branches it left
    pending, to find the next model or to refute the cut. A cut only adds
    clauses, so a branch refuted under an earlier cut is refuted under
    every later one, and no level searches again what an earlier one
    refuted. The groups are kept on both paths, since a formula's own
    variables can take a question past the cap.

    The level of the empty context, the base's own inconsistency, is
    asked by every query and so is computed once, by `own_level`.

    A context is built by `condition` and can then be asked its `level`:
    on the bitset path it is the mask of its worlds, above the cap the OR
    of its literals' bits. `formula_level` asks the same of a formula.
    `column_levels` gives the pair of levels of every column of a CPT, the
    one sweep behind both the CPT and the hidden-parent closure: on the
    bitset path all at once, above the cap lazily, a column at a time. A
    degree is `degrees[level]`, read off the descending ladder of 1, the
    level weights and 0, so that callers can memoize on the index.

    The codec may span variables that no clause uses, such as one a
    marginal base forgot. A context literal on such a variable, or on one
    the codec lacks, constrains nothing, unless the context also holds its
    negation.
    """

    __slots__ = (
        "degrees", "_pairs", "_tables", "_models", "_groups", "_unconditioned", "_own"
    )

    def __init__(
        self, codec: _ClauseBits, entries: list[tuple[int, int]], weights: list[Fraction]
    ):
        by_rank: dict[int, list[int]] = {}
        used = 0
        for c, r in entries:
            if not codec.is_tautology(c):
                by_rank.setdefault(r, []).append(c)
                used |= c
        ranks = sorted(by_rank, reverse=True)
        self.degrees = (ONE, *(weights[r] for r in ranks), ZERO)
        # The positive literal's bit of each variable that some clause uses.
        self._pairs = {v: bit for v, bit in codec.pairs.items() if bit * 3 & used}
        self._groups = groups = [by_rank[r] for r in ranks]
        self._own: int | None = None

        found = _literal_tables(used)
        if found is None:
            self._tables = self._models = None
            self._unconditioned = 0
            return
        full, tables = found
        self._tables = tables
        self._models = _cuts(groups, tables, full)
        self._unconditioned = full

    def condition(self, context: Iterable[Literal] = ()):
        """The worlds of a literal context: a bitset, 0 when the context
        contradicts itself; above the cap the OR of its literals' bits,
        None when it contradicts itself. A literal on a variable no clause
        uses has no bit, so a clash with one is caught by name."""
        pairs, tables = self._pairs, self._tables
        free: set[Literal] = set()
        ctx = self._unconditioned
        for lit in context:
            bit = pairs.get(lit.var)
            if bit is None:
                if negate(lit) in free:
                    return 0 if tables is not None else None
                free.add(lit)
                continue
            if not lit.positive:
                bit <<= 1
            if tables is not None:
                ctx &= tables[bit]
            elif ctx & _negation(bit):
                return None
            else:
                ctx |= bit
        return ctx

    def formula_level(self, f: Formula) -> int:
        """`level` with a formula, instead of literals, as the hard context.

        A variable the formula mentions but no clause uses takes a pair of
        bits above those the clauses use, in name order. On the bitset
        path the formula is evaluated to the mask of its models: with k
        such variables, over n + k variables, those k most significant,
        and its 2**k blocks of 2**n worlds are ORed together, projecting
        them away. That path is taken when the levels are on it and n + k
        is within the cap. Otherwise the formula's CNF is the hard clauses
        of the DPLL level walk, so only that path meets the
        `MAX_CNF_CLAUSES` cap.
        A formula context is not a `level` argument, so that `level` keeps
        its literal contexts free of a type dispatch.
        """
        place = {v: self._pairs.get(v) for v in vars_of(f)}  # positive bits
        free = sorted(v for v, bit in place.items() if bit is None)
        used = sum(self._pairs.values()) * 3  # both bits of each pair
        for i, v in enumerate(free):
            place[v] = 1 << (used.bit_length() + 2 * i)
        found = None
        if self._models is not None:
            found = (self._unconditioned, self._tables)
            if free:
                found = _literal_tables(used | sum(place[v] for v in free))
        if found is not None:
            full, tables = found
            column = {v: tables[bit] for v, bit in place.items()}
            models = _formula_models(f, column, full)
            size = full.bit_length()
            while size > self._unconditioned.bit_length():
                size >>= 1
                models = (models >> size) | (models & ((1 << size) - 1))
            return self.level(models)
        return self._refuted([
            sum(place[lit.var] << (not lit.positive) for lit in c.literals)
            for c in cnf_clauses(f)
        ], 0)

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

        if ctx is None:
            return 0
        return self._refuted([], ctx)

    def column_levels(
        self, var: Var, parents: tuple[Var, ...]
    ) -> Iterable[tuple[int, int]]:
        """The `level` pair of each column of `var`'s table given `parents`
        (its parent context with ¬var, then with var), in column order:
        False before True, first parent most significant.

        Above the cap the pairs are asked lazily, a column at a time, so a
        caller that stops early asks no more: a column's context is the OR
        of one literal bit per parent, the product of their (negative,
        positive) bits, and a variable that no clause uses has bit 0.

        On the bitset path they are read off in one pass, as a list. The
        cuts are rebuilt over the used variables laid out with the rest
        most significant, then the parents in parent order, then `var`, so
        that the low bits of a world number its cell (a parent assignment
        and a value of `var`). Halving a cut's width r times, each time
        ORing its upper half onto its lower one, projects away the r
        variables of the rest and leaves bit c set when the cut meets cell
        c. Cuts are nested, so a cell meets a prefix of them, and its level
        is 1 plus their number: the cells' counts are summed for all cells
        at once, as fields of one integer.

        A parent or `var` that no clause uses is not laid out: it changes
        no level, so its columns repeat those without it.
        """
        pairs = self._pairs
        if self._models is None:
            level = self.level
            x = pairs.get(var, 0)
            bits = [(pairs.get(p, 0) << 1, pairs.get(p, 0)) for p in parents]
            return ((level(u | x << 1), level(u | x)) for u in map(sum, product(*bits)))
        held = [p for p in parents if p in pairs]
        front = [*held, var] if var in pairs else held
        rest = [v for v in pairs if v not in front]
        full, tables = _layout([pairs[v] for v in (*rest, *front)])
        cuts = _cuts(self._groups, tables, full)
        cells = 1 << len(front)
        # A cut's binary text has one digit per cell, cell 0 last. Read with
        # a byte (or, past 255 cuts, four) per digit, the digit's character
        # code, it is an integer with a field per cell; less the reading of
        # an all-"0" text, each field is 0 or 1, and the sum of those adds
        # up every cell's count without a carry between fields.
        width, code = (1, "latin-1") if len(cuts) < 255 else (4, "utf-32-be")
        zero = int.from_bytes(("0" * cells).encode(code), "big")
        total = int.from_bytes(("1" * cells).encode(code), "big") - zero
        for cut in cuts:
            size = full.bit_length()
            while size > cells:
                size >>= 1
                cut = cut >> size | cut & ((1 << size) - 1)
            total += int.from_bytes(f"{cut:0{cells}b}".encode(code), "big") - zero
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
        """`level` of the empty context, computed on the first call."""
        own = self._own
        if own is None:
            own = self._own = self.level(self._unconditioned)
        return own

    def _refuted(self, hard: list[int], true: int) -> int:
        """`level` by one resumed `_search` over integer hard clauses (a
        formula's CNF) from the literal bits `true` (a literal context's):
        0 when no model keeps them. Otherwise the cut of each level is
        appended to the hard clauses in turn; where the model in hand misses
        one of its clauses, the search resumes from that model with the
        alternatives it left pending, and the first level where it finds
        none is the answer. Cuts only grow, and added clauses only remove
        models, so an assignment refuted under one cut stays refuted under
        every later one and is never searched again."""
        pending: list[tuple[int, int]] = []
        true = _search(hard, true, pending)
        if true is None:
            return 0
        for i, group in enumerate(self._groups, 1):
            hard.extend(group)
            if all(c & true for c in group):
                continue
            true = _search(hard, true, pending)
            if true is None:
                return i
        return len(self.degrees) - 1

    def inconsistency(self, context: Iterable[Literal]) -> Fraction:
        """1 when the context contradicts itself; otherwise the weight of
        the first level whose cut has no model of the context, or 0."""
        return self.degrees[self.level(self.condition(context))]


def _reduce(entries: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """`normalize.remove_subsumed` on integer clauses (`_ClauseBits`) with
    weight ranks (see `_encoded`): the merged entries that survive, in
    first-occurrence order. A tautology never survives, since it follows
    from no premises at all, so the result is free of them too.

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
    cache, so every later question asked of it reads the same levels. `op`
    names the caller in `_encoded`'s error for a base that is not clausal."""
    levels = b._levels
    if levels is None:
        levels = _Levels(*_encoded(b, op))
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
    hard context: 1 minus the inconsistency degree of the base with `f`.
    """
    levels = _levels(b, "possibility")
    inc = levels.degrees[levels.own_level()]
    if inc != 0:
        raise InconsistentBaseError(inc)
    return ONE - levels.degrees[levels.formula_level(f)]


def necessity(b: WeightedBase, f: Formula) -> Fraction:
    """Degree to which `f` is entailed by the base: 1 - possibility(not f)."""
    return ONE - possibility(b, Not(f))


def certainty_degree(b: WeightedBase, lit: Literal) -> Fraction:
    """Entailment degree of a literal; defined for inconsistent bases too:
    the refutation level counts only when it exceeds the inconsistency of
    the base, otherwise nothing genuinely supports the literal."""
    levels = _levels(b, "certainty_degree")
    refute_inc = levels.inconsistency((negate(lit),))
    return refute_inc if refute_inc > levels.degrees[levels.own_level()] else ZERO


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

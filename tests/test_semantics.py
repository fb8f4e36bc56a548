import random
from fractions import Fraction
import itertools
from itertools import combinations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from posslog import (
    FALSE,
    TRUE,
    And,
    Clause,
    DomainError,
    InconsistentBaseError,
    Interpretation,
    Literal,
    Not,
    Or,
    ResourceCapError,
    Var,
    WeightedBase,
    base_of_distribution,
    certainty_degree,
    conditional_possibility,
    cnf_clauses,
    cpt_for,
    distribution_of_base,
    enumerate_distribution,
    inconsistency_degree,
    negate,
    necessity,
    possibility,
    satisfies,
    unit,
)
from posslog import model, semantics

from helpers import (
    A1,
    A2,
    A3,
    SE,
    SU,
    WI,
    WEATHER_VALUES,
    WEATHER_WORLDS,
    X,
    Y,
    clause,
    neg,
    pos,
    random_clausal_base,
    random_formula,
)

F = Fraction


def holds(f, world):
    """The truth of `f` in a world given as a dict of variable values."""
    if isinstance(f, Literal):
        return world[f.var] == f.positive
    if isinstance(f, Clause):
        return any(world[l.var] == l.positive for l in f.literals)
    if isinstance(f, Not):
        return not holds(f.operand, world)
    if isinstance(f, And):
        return all(holds(p, world) for p in f.parts)
    if isinstance(f, Or):
        return any(holds(p, world) for p in f.parts)
    return f.value


def enumerated_worlds(b, extra):
    """Each world of the base's universe extended by `extra`, as a dict,
    with its degree in the enumerated distribution."""
    d = enumerate_distribution(WeightedBase(b.entries, b.variables + tuple(extra)))
    return [(w.as_dict(), val) for w, val in d.items()]


def brute_measures(worlds, f):
    """Π(f) and N(f) by maximizing over enumerated worlds; the worlds must
    cover every variable of `f`."""
    best = {True: F(0), False: F(0)}
    for w, val in worlds:
        t = holds(f, w)
        if val > best[t]:
            best[t] = val
    return best[True], 1 - best[False]


def query_formulas(rng, variables):
    """Random formulas over `variables`, then the fixed shapes: constants,
    empty `And`/`Or`, a clause, nested negations and a contradiction."""
    x, y = rng.choice(variables), rng.choice(variables)
    lits = [Literal(v, rng.random() < 0.5) for v in rng.sample(variables, 2)]
    out = [random_formula(rng, variables) for _ in range(4)]
    out += [
        TRUE,
        FALSE,
        And(()),
        Or(()),
        Clause(lits),
        Not(Not(Not(Clause(lits)))),
        Not(And((Not(pos(x)), Or((neg(y), Not(Clause(lits))))))),
        And((pos(x), Not(Or((pos(x), pos(y)))))),
    ]
    return out


class TestDistributionOfBase:
    def test_weather_golden(self, weather):
        d = distribution_of_base(weather)
        for values, expected in zip(WEATHER_WORLDS, WEATHER_VALUES):
            assert d[Interpretation((SU, WI, SE), values)] == expected

    def test_empty_base_is_all_ones(self):
        d = distribution_of_base(WeightedBase((), (X,)))
        assert d.values == (F(1), F(1))

    def test_two_entry_base_by_hand(self):
        b = WeightedBase(
            [(clause(pos(A2), pos(A1)), F(2, 5)), (clause(pos(A3)), F(7, 10))],
            (A1, A2, A3),
        )
        d = distribution_of_base(b)
        w = Interpretation((A1, A2, A3), (False, False, False))
        assert d[w] == F(3, 10)


def is_satisfiable(clauses):
    """Whether some interpretation satisfies every clause: the clauses as
    hard entries have inconsistency degree 0."""
    return inconsistency_degree(WeightedBase((c, 1) for c in clauses)) == 0


class TestClauseBits:
    def test_variables_come_in_name_order(self):
        # Name order is string order: v10, v11 and v12 sort before v2.
        names = [Var(f"v{i}") for i in range(1, 13)]
        by_name = sorted(names, key=lambda v: v.name)
        assert [v.name for v in by_name[:5]] == ["v1", "v10", "v11", "v12", "v2"]
        rng = random.Random(24)
        shuffled = names[:]
        rng.shuffle(shuffled)
        codec = semantics._ClauseBits(shuffled)
        assert codec.variables(codec.span(-1)) == by_name
        for _ in range(200):
            chosen = rng.sample(names, rng.randint(0, 12))
            # One or both literals of each chosen variable.
            polarities = [rng.choice([(True,), (False,), (True, False)]) for _ in chosen]
            mask = sum(
                codec.bit(Literal(v, p)) for v, ps in zip(chosen, polarities) for p in ps
            )
            assert codec.variables(mask) == [v for v in by_name if v in chosen]


class TestSatisfiability:
    def test_empty_set(self):
        assert is_satisfiable([])

    def test_direct_contradiction(self):
        assert not is_satisfiable([clause(pos(X)), clause(neg(X))])

    def test_empty_clause(self):
        assert not is_satisfiable([Clause()])

    def test_tautologies_ignored(self):
        assert is_satisfiable([clause(pos(X), neg(X))])

    def test_weather_with_hard_facts(self, weather):
        clauses = [c for c, _ in weather.entries]
        clauses += [clause(neg(SE)), clause(pos(WI)), clause(pos(SU))]
        assert not is_satisfiable(clauses)
        # dropping the weakest level restores satisfiability
        strong = [c for c, w in weather.entries if w > F(1, 3)]
        strong += [clause(neg(SE)), clause(pos(WI)), clause(pos(SU))]
        assert is_satisfiable(strong)

    def test_bitset_and_dpll_agree(self, monkeypatch):
        # Both solver paths answer the public queries on the same inputs,
        # including empty clauses at random weight levels, and both agree
        # with exhaustive enumeration.
        rng = random.Random(17)
        universe = tuple(Var(f"q{i}") for i in range(7))
        pool = [F(1, 5), F(1, 3), F(1, 2), F(2, 3), F(1)]
        bases = []
        for _ in range(250):
            entries = []
            for _ in range(rng.randint(1, 14)):
                size = rng.randint(1, 3)
                chosen = rng.sample(universe, size)
                entries.append(
                    (Clause(Literal(v, rng.random() < 0.5) for v in chosen),
                     rng.choice(pool))
                )
            for _ in range(rng.choice((0, 0, 1, 2))):
                entries.insert(rng.randrange(len(entries) + 1),
                               (Clause(), rng.choice(pool)))
            bases.append(WeightedBase(entries, universe))

        def answers():
            # Fresh copies: a base keeps the encoding of the path that
            # first answered it.
            return [
                (
                    is_satisfiable(c for c, _ in b.entries),
                    inconsistency_degree(WeightedBase(b.entries, b.variables)),
                )
                for b in bases
            ]

        bitset = answers()
        monkeypatch.setattr(semantics, "_BITSET_MAX_VARS", 0)
        dpll = answers()
        for b, by_bitset, by_dpll in zip(bases, bitset, dpll):
            inc = 1 - max(enumerate_distribution(b).values)
            assert by_bitset == by_dpll == (inc == 0, inc)


def brute_sat(clauses, n):
    """Whether some assignment of n variables gives every integer clause
    (`semantics._ClauseBits`) a true literal, by enumeration."""
    for world in range(1 << n):
        true = 0
        for j in range(n):
            true |= (1 if world >> j & 1 else 2) << 2 * j
        if all(c & true for c in clauses):
            return True
    return False


class TestDpllKernel:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 6).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << 2 * n) - 1), max_size=12))
    ))
    @example((0, []))
    @example((0, [0]))
    @example((3, [0b010000, 0b100000]))  # a variable and its negation
    @example((2, [0b1100, 0b0001]))  # a tautology
    def test_model_or_none_against_enumeration(self, drawn):
        # Clauses over at most 6 variables, tautologies and the empty
        # clause among them.
        n, clauses = drawn
        found = semantics._search(clauses, 0, 0, [])
        assert (found is not None) == brute_sat(clauses, n)
        if found is not None:
            model, false = found
            assert false == semantics._negations(model)
            assert all(c & model for c in clauses)
            assert not model & (model >> 1) & 0x555  # no pair with both bits

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(0, (1 << 2 * n) - 1), max_size=12),
        st.lists(st.tuples(st.integers(0, n - 1), st.booleans()), max_size=n),
    )))
    @example((1, [0b01], [(0, False)]))  # the start refutes the only clause
    def test_a_start_is_kept_in_the_model_or_none_is_found(self, drawn):
        # The start is a consistent set of literal bits, the last drawn
        # polarity of each variable; it is as good as its unit clauses.
        n, clauses, literals = drawn
        start = sum({j: (1 if p else 2) << 2 * j for j, p in literals}.values())
        units = [start & (3 << 2 * j) for j in range(n) if start & (3 << 2 * j)]
        found = semantics._search(clauses, start, semantics._negations(start), [])
        assert (found is not None) == brute_sat(clauses + units, n)
        if found is not None:
            model, false = found
            assert false == semantics._negations(model)
            assert model & start == start
            assert all(c & model for c in clauses)
            assert not model & (model >> 1) & 0x555

    def test_no_clauses_have_the_empty_model(self):
        assert semantics._search([], 0, 0, []) == (0, 0)


class TestDpllSearchCounts:
    """The searches a level question runs on 20-variable bases, which stay
    above the bitset cap. Once the own level is known, a question whose
    context the own model admits starts no search; any other starts one
    search from the root. A conditional possibility searches its context
    with the literal only where the witness that answered the context makes
    the literal false."""

    @pytest.fixture
    def questions(self, monkeypatch):
        """Every `_search` call as (its pending stack, its clauses, the
        assignment it starts from, its result: a model and its negations,
        or None), each checked to be handed its start's negations, and each
        `_Levels._refuted` call as its levels, the own model kept when it
        was called (None before `own_level` keeps one), the searches it
        made and its result: the level, the last witness and its
        negations. A search from the root is one with a pending stack of
        its own; a resumed search is handed the stack of an earlier one.
        `starts` holds each question's hard clauses and start, as
        `_refuted` was handed them."""
        log = {"questions": [], "searches": [], "starts": []}
        search, refuted = semantics._search, semantics._Levels._refuted

        def counted(clauses, true, false, pending):
            assert false == semantics._negations(true)
            entry = [pending, list(clauses), true, None]
            log["searches"].append(entry)
            entry[3] = search(clauses, true, false, pending)
            return entry[3]

        def logged(levels, hard, true, false):
            start = len(log["searches"])
            log["starts"].append((list(hard), true))
            own = levels._true
            found = refuted(levels, hard, true, false)
            log["questions"].append((levels, own, log["searches"][start:], found))
            return found

        monkeypatch.setattr(semantics, "_search", counted)
        monkeypatch.setattr(semantics._Levels, "_refuted", logged)
        return log

    @staticmethod
    def roots(searches):
        """The number of searches started from the root."""
        return len({id(pending) for pending, *_ in searches})

    @staticmethod
    def bases():
        rng = random.Random(29)
        for _ in range(6):
            b = random_clausal_base(rng, 20, rng.randint(24, 40))
            assert semantics._levels(b, "test")._models is None  # the DPLL path
            yield rng, WeightedBase(b.entries, b.variables)

    @staticmethod
    def completion(model, own):
        """A searched model with every literal of the own model `own` whose
        negation it does not hold; the model itself when no own model is
        kept."""
        if own is None:
            return model
        return model | own & ~semantics._negations(model)

    @staticmethod
    def falsifies(model, levels, lit):
        """Whether a model, a set of literal bits, makes `lit` false."""
        return bool(model & (levels._pairs.get(lit.var, 0) << lit.positive))

    @classmethod
    def admits(cls, b, asked):
        """Whether the own model of `b`'s levels answers a question: for a
        list of literals, when the model makes none of them false; for a
        formula, when the model's world, with every variable the model
        leaves unassigned false, satisfies it. The model is first checked
        to satisfy every cut below the own level."""
        levels = semantics._levels(b, "test")
        model = levels._true
        assert levels._false == semantics._negations(model)
        for group in levels._groups[: levels.own_level() - 1]:
            assert all(c & model for c in group)
        if isinstance(asked, list):
            return not any(cls.falsifies(model, levels, lit) for lit in asked)
        pairs = levels._pairs
        world = Interpretation(
            b.variables, tuple(bool(model & pairs.get(v, 0)) for v in b.variables)
        )
        return satisfies(world, asked)

    def searched(self, b, asked):
        """Whether a question starts a search: a literal context that
        contradicts itself is answered without one, as is any question the
        own model admits."""
        if isinstance(asked, list) and any(negate(lit) in asked for lit in asked):
            return False
        return not self.admits(b, asked)

    def conditional_contexts(self, b, lit, context, asked):
        """The contexts that `conditional_possibility(b, lit, context)`
        searches, given the `_refuted` calls it made: the context, unless
        `searched` says it is answered without a search, and the context
        with `lit`, unless that contradicts itself or the model that
        answered the context leaves `lit` not false. That model is the own
        model when it admits the context, and otherwise the last witness of
        the context's walk, checked here against the cuts below the level
        it answered and against the context's bits."""
        levels = semantics._levels(b, "test")
        joint = [*context, lit]
        if not self.searched(b, context):
            return [joint] if self.searched(b, joint) else []
        level, model, false = asked[0][3]
        assert false == semantics._negations(model)
        true = levels.condition(context)[0]
        assert model & true == true
        for group in levels._groups[: level - 1]:
            assert all(c & model for c in group)
        if negate(lit) in context or not self.falsifies(model, levels, lit):
            return [context]
        return [context, joint]

    def test_own_level_is_searched_once(self, questions):
        searches = questions["searches"]
        answered = {True: 0, False: 0}
        second = {True: 0, False: 0}  # conditionals with a second search or not
        for rng, b in self.bases():
            inc = inconsistency_degree(b)
            assert len(questions["questions"]) == 1 and self.roots(searches) == 1
            before = len(searches)
            assert inconsistency_degree(b) == inc
            assert len(searches) == before
            # Each question below starts exactly one search from the root
            # per context it searches, and none for one the own model
            # admits: one context for a certainty degree or a possibility,
            # one or two for a conditional possibility.
            lit = Literal(rng.choice(b.variables), True)
            x = Literal(b.variables[0], True)
            asks = [(lambda: certainty_degree(b, lit), [[negate(lit)]])]
            if inc == 0:
                f = random_formula(rng, b.variables)
                asks.append((lambda: possibility(b, f), [f]))
            for ask, contexts in asks:
                start = len(questions["questions"])
                ask()
                asked = questions["questions"][start:]
                for c in contexts:
                    answered[self.admits(b, c)] += 1
                assert len(asked) == sum(self.searched(b, c) for c in contexts)
                assert all(self.roots(s) == 1 for *_, s, _ in asked)
            for _ in range(8):
                context = [
                    Literal(v, rng.random() < 0.5) for v in rng.sample(b.variables, 3)
                ]
                start = len(questions["questions"])
                conditional_possibility(b, x, context)
                asked = questions["questions"][start:]
                answered[self.admits(b, context)] += 1
                contexts = self.conditional_contexts(b, x, context, asked)
                assert len(asked) == len(contexts)
                assert all(self.roots(s) == 1 for *_, s, _ in asked)
                if self.searched(b, context):
                    second[len(contexts) == 2] += 1
            searches.clear()
            questions["questions"].clear()
        assert answered[True] and answered[False]  # hits and misses both
        assert second[True] and second[False]  # with and without a second search

    def test_searches_only_where_the_last_model_misses(self, questions):
        # The literal bits each question starts from: a literal context's
        # own, with no hard clauses; None for a formula, whose gate clauses
        # are the hard clauses and which starts from no bits. A
        # contradictory literal context, and any context the own model
        # admits, is answered without a search, and a conditional
        # searches the context with its literal only where
        # `conditional_contexts` says so.
        expected = []
        for rng, b in self.bases():
            levels = semantics._levels(b, "test")
            inconsistency_degree(b)
            expected.append(levels.condition()[0])
            for v in b.variables:
                lit = Literal(v, rng.random() < 0.5)
                certainty_degree(b, lit)
                if self.searched(b, [negate(lit)]):
                    expected.append(levels.condition([negate(lit)])[0])
            lit = Literal(b.variables[0], True)
            for _ in range(4):
                context = [
                    Literal(v, rng.random() < 0.5) for v in rng.sample(b.variables, 3)
                ]
                start = len(questions["questions"])
                conditional_possibility(b, lit, context)
                asked = questions["questions"][start:]
                for c in self.conditional_contexts(b, lit, context, asked):
                    expected.append(levels.condition(c)[0])
            if inconsistency_degree(b) == 0:
                for _ in range(5):
                    f = random_formula(rng, b.variables)
                    possibility(b, f)
                    if self.searched(b, f):
                        expected.append(None)
        asked = questions["questions"]
        assert asked
        assert len(questions["searches"]) == sum(len(s) for *_, s, _ in asked)
        assert len(asked) == len(questions["starts"]) == len(expected)
        completed = 0  # levels a completion passed that its model missed
        for (levels, own, searches, result), (hard, start), bits in zip(
            asked, questions["starts"], expected
        ):
            # One search from the root, then one resumed search at most
            # per level, each from the last searched model and only at a
            # level with a clause that neither that model nor its
            # completion satisfies; the levels in between pass with the
            # completion.
            groups = levels._groups
            ends = list(itertools.accumulate(map(len, groups)))
            assert 1 <= len(searches) <= 1 + len(groups) and self.roots(searches) == 1
            (_, clauses, true, found), *resumed = searches
            assert clauses == hard and true == start
            if bits is None:
                assert start == 0
            else:
                assert hard == [] and start == bits
            level = 0  # the level of the last search
            for _, clauses, true, next_found in resumed:
                assert found is not None and true == found[0]
                searched = ends.index(len(clauses) - len(hard)) + 1
                witness = self.completion(true, own)
                for group in groups[level : searched - 1]:
                    assert all(c & witness for c in group)
                    completed += not all(c & true for c in group)
                for model in (true, witness):
                    assert any(not c & model for c in groups[searched - 1])
                level, found = searched, next_found
            # The answer is the level of the last search that found no
            # model, or the last index when the completion of the last
            # model passes every level left; the walk hands back its last
            # witness, which holds the start and passes every level below
            # its answer.
            answer, witness, false = result
            if found is None:
                assert answer == level
            else:
                for group in groups[level:]:
                    assert all(c & self.completion(found[0], own) for c in group)
                assert answer == len(groups) + 1
            if witness is not None:
                assert false == semantics._negations(witness)
                assert witness & start == start
                for group in groups[: answer - 1]:
                    assert all(c & witness for c in group)
        assert completed

    def test_a_completion_that_passes_every_level_ends_the_walk(
        self, questions, monkeypatch
    ):
        # The own walk meets a | b first and sets b, its lowest free bit,
        # then the unit a: the own model is {a, b}. The context !b flips
        # its b. Its walk's search from the root, with no clauses yet,
        # ends at once with the model {!b}, which misses a | b. Before the
        # own model is kept, the search resumes there and sets a. Once it
        # is kept, the completion {a, !b} passes both levels, so the walk
        # makes its one search from the root and no other.
        monkeypatch.setattr(semantics, "_BITSET_MAX_VARS", 0)
        a, b = Var("a"), Var("b")
        base = WeightedBase(
            [(clause(pos(a), pos(b)), F(1, 2)), (clause(pos(a)), F(1, 3))], (a, b)
        )
        levels = semantics._levels(base, "test")
        assert levels._models is None
        ctx, ctx_false = levels.condition([neg(b)])
        assert ctx_false == semantics._negations(ctx)
        a_bit, b_bit = levels.condition([pos(a)])[0], levels.condition([pos(b)])[0]
        assert levels._walk(ctx, ctx_false) == (3, semantics._negations(a_bit | ctx))
        (_, own, searches, _), = questions["questions"]
        assert own is None and len(searches) == 2 and self.roots(searches) == 1

        assert levels.own_level() == 3 and levels._true == a_bit | b_bit
        questions["questions"].clear()
        assert certainty_degree(base, pos(b)) == 0
        (_, own, searches, result), = questions["questions"]
        assert own == a_bit | b_bit
        assert len(searches) == 1 and self.roots(searches) == 1
        assert result == (3, a_bit | ctx, semantics._negations(a_bit | ctx))


class TestDpllLevelWalk:
    """The resumed level walk against brute-force enumeration of the cuts."""

    @staticmethod
    def first_refuted(entries, context, worlds):
        """The degree of the first cut, by descending weight, that no world
        satisfying `context` satisfies: 1 when none satisfies it, 0 when
        every cut has one."""
        worlds = [w for w in worlds if context(w)]
        if not worlds:
            return F(1)
        for weight in sorted({a for _, a in entries}, reverse=True):
            cut = [c for c, a in entries if a >= weight]
            if not any(all(holds(c, w) for c in cut) for w in worlds):
                return weight
        return F(0)

    # Literals are (variable index, positive); index n is a variable
    # outside the universe. The seed draws the query formula.
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(
                st.lists(st.tuples(st.integers(0, n - 1), st.booleans()), max_size=4),
                st.sampled_from([F(1, 4), F(1, 2), F(3, 4), F(1)]),
            ),
            max_size=12,
        ),
        st.lists(st.tuples(st.integers(0, n), st.booleans()), max_size=4),
        st.integers(0, 2**32),
    )))
    # {x0 | x1} at 1, then {!x1} at 1/2: the model x1 of the first cut is
    # refuted by the second, and the pending branch !x1 then sets x0.
    @example((2, [([(0, True), (1, True)], F(1)), ([(1, False)], F(1, 2))], [], 0))
    @example((2, [([(0, True), (1, True)], F(1)), ([(1, False)], F(1, 2))], [(1, True)], 0))
    @example((1, [([(0, True)], F(1, 2))], [(0, True), (0, False)], 0))  # a clash
    @example((1, [([], F(1, 2))], [(1, True), (1, False)], 0))  # outside the universe
    def test_levels_are_the_first_refuted_cut(self, drawn):
        n, raw, raw_context, seed = drawn
        variables = tuple(Var(f"x{i}") for i in range(n + 1))
        entries = [
            (Clause(Literal(variables[i], p) for i, p in lits), a) for lits, a in raw
        ]
        context = [Literal(variables[i], p) for i, p in raw_context]
        f = random_formula(random.Random(seed), variables)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(semantics, "_BITSET_MAX_VARS", 0)
            levels = semantics._levels(WeightedBase(entries, variables[:n]), "test")
            # The DPLL path, unless no clause uses a variable.
            assert levels._models is None or not levels._pairs
            by_context = levels.degrees[levels.level(levels.condition(context))]
            by_formula = levels.degrees[levels.formula_level(f)]
        worlds = [
            dict(zip(variables, bits))
            for bits in itertools.product((False, True), repeat=n + 1)
        ]
        assert by_context == self.first_refuted(
            entries, lambda w: all(holds(lit, w) for lit in context), worlds
        )
        assert by_formula == self.first_refuted(entries, lambda w: holds(f, w), worlds)


class TestOwnModel:
    """Above the bitset cap, the model the own-level search ends with
    answers every question whose context it admits."""

    @staticmethod
    def answer(b, kind, args):
        """One question's answer; an inconsistent base's possibility and
        necessity answer with the degree they raise."""
        if kind == "certainty":
            return certainty_degree(b, *args)
        if kind == "conditional":
            return conditional_possibility(b, *args)
        measure = possibility if kind == "possibility" else necessity
        try:
            return measure(b, *args)
        except InconsistentBaseError as exc:
            return ("inconsistent", exc.degree)

    def test_search_path_agrees_with_the_bitset_path(self, monkeypatch):
        # 17-20 variables, all used, so the default cap puts every base on
        # the search path; the same questions with the cap raised above n
        # answer on the bitset path. Formulas reach two variables outside
        # the base, and a third of the contexts contradict themselves.
        rng = random.Random(53)
        outside = (Var("o1"), Var("o2"))
        refuted = semantics._Levels._refuted
        calls = []

        def counted(levels, hard, true, false):
            calls.append(1)
            return refuted(levels, hard, true, false)

        monkeypatch.setattr(semantics._Levels, "_refuted", counted)
        # Possibility, necessity and certainty questions answered with no
        # search (True) or with one (False).
        answered = {True: 0, False: 0}
        consistent = set()
        checked = 0
        while checked < 8:
            n = rng.randint(17, 20)
            b = random_clausal_base(rng, n, rng.randint(n, 2 * n))
            searched = WeightedBase(b.entries, b.variables)
            if len(semantics._levels(searched, "test")._pairs) < n:
                continue
            checked += 1
            questions = []
            for _ in range(12):
                f = random_formula(rng, b.variables + outside)
                questions += [("possibility", (f,)), ("necessity", (f,))]
                lit = Literal(rng.choice(b.variables), rng.random() < 0.5)
                questions.append(("certainty", (lit,)))
                context = [
                    Literal(v, rng.random() < 0.5) for v in rng.sample(b.variables, 3)
                ]
                if rng.random() < 1 / 3:
                    context.append(negate(context[0]))
                questions.append(("conditional", (lit, tuple(context))))
            assert semantics._levels(searched, "test")._models is None
            consistent.add(inconsistency_degree(searched) == 0)
            by_search = []
            for kind, args in questions:
                before = len(calls)
                by_search.append(self.answer(searched, kind, args))
                if kind != "conditional" and not isinstance(by_search[-1], tuple):
                    answered[len(calls) == before] += 1
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(semantics, "_BITSET_MAX_VARS", n + len(outside))
                swept = WeightedBase(b.entries, b.variables)
                assert semantics._levels(swept, "test")._models is not None
                by_sweep = [self.answer(swept, kind, args) for kind, args in questions]
            assert by_search == by_sweep
        assert consistent == {True, False}  # consistent and inconsistent bases
        assert answered[True] and answered[False]  # model hits and misses

    def test_completed_walks_agree_with_the_bitset_path(self, monkeypatch):
        # 20-variable bases, every variable used, three consistent and
        # three inconsistent. Once the own level is kept, a walk tries the
        # completion of its searched model by the own model before it
        # searches a level. On an inconsistent base the own model passes
        # only the cuts below the own level, so from there on a completion
        # can fail, and each completion check matters. The four query
        # kinds, and a table's columns walked with the own model kept,
        # answer as they do on the bitset path.
        rng = random.Random(71)
        drawn = {True: 0, False: 0}  # bases checked, by consistency
        while min(drawn.values()) < 3:
            b = random_clausal_base(rng, 20, rng.randint(20, 40))
            searched = WeightedBase(b.entries, b.variables)
            if len(semantics._levels(searched, "test")._pairs) < 20:
                continue
            consistent = inconsistency_degree(searched) == 0
            if drawn[consistent] == 3:
                continue
            drawn[consistent] += 1
            assert semantics._levels(searched, "test")._true is not None
            questions = []
            for _ in range(10):
                f = random_formula(rng, b.variables)
                lit = Literal(rng.choice(b.variables), rng.random() < 0.5)
                context = tuple(
                    Literal(v, rng.random() < 0.5) for v in rng.sample(b.variables, 3)
                )
                questions += [
                    ("possibility", (f,)),
                    ("necessity", (f,)),
                    ("certainty", (lit,)),
                    ("conditional", (lit, context)),
                ]
            var, *parents = rng.sample(b.variables, 6)

            def answers(base):
                out = [self.answer(base, kind, args) for kind, args in questions]
                return out + [cpt_for(base, var, tuple(parents))]

            by_search = answers(searched)
            with monkeypatch.context() as mp:
                mp.setattr(semantics, "_BITSET_MAX_VARS", 20)
                swept = WeightedBase(b.entries, b.variables)
                assert semantics._levels(swept, "test")._models is not None
                assert answers(swept) == by_search

    @staticmethod
    def world_terms(levels, variables, agree):
        """13 two-literal terms over `variables`, each of whose literals the
        own model's world makes true (`agree`) or false: their disjunction
        expands to 8,192 CNF clauses before any pruning."""
        world = levels._world
        lits = [Literal(v, bool(world[v]) == agree) for v in variables]
        pairs = list(combinations(lits, 2))
        return Or(tuple(And(pair) for pair in (pairs * 3)[:13]))

    def test_formulas_past_the_cnf_cap_need_no_cnf(self, monkeypatch):
        # Both DNFs are past the CNF cap. The one the own model's world
        # satisfies is answered by the own level with no search; the one it
        # falsifies by one search over its gate clauses per question. Both
        # answers are the enumerated ones, and no CNF is built.
        monkeypatch.setattr(semantics, "_BITSET_MAX_VARS", 0)
        xs = tuple(Var(f"x{i}") for i in range(4))
        b = WeightedBase(
            [
                (clause(pos(xs[0]), neg(xs[1])), F(1, 2)),
                (clause(pos(xs[1]), pos(xs[2])), F(1, 3)),
                (clause(neg(xs[2]), pos(xs[3])), F(2, 3)),
                (clause(neg(xs[0]), neg(xs[3])), F(1, 4)),
            ],
            xs,
        )
        assert inconsistency_degree(b) == 0
        levels = semantics._levels(b, "test")
        assert levels._models is None
        hit = self.world_terms(levels, xs, True)
        miss = self.world_terms(levels, xs, False)
        for f in (hit, miss):
            with pytest.raises(ResourceCapError):
                cnf_clauses(f)
        refuted = semantics._Levels._refuted
        calls = []

        def counted(levels, hard, true, false):
            calls.append(1)
            return refuted(levels, hard, true, false)

        def no_cnf(f):
            raise AssertionError("a query built a CNF")

        monkeypatch.setattr(semantics._Levels, "_refuted", counted)
        monkeypatch.setattr(model, "cnf_clauses", no_cnf)
        monkeypatch.setattr(semantics, "cnf_clauses", no_cnf)
        worlds = enumerated_worlds(b, ())
        for f, searches in ((hit, 0), (miss, 2)):
            del calls[:]
            assert possibility(b, f) == brute_measures(worlds, f)[0]
            assert necessity(b, Not(f)) == brute_measures(worlds, Not(f))[1]
            assert len(calls) == searches
        assert possibility(b, hit) == 1


class TestGateClauses:
    """Above the bitset cap a query formula is searched as its gate
    clauses (`semantics._gate_clauses`); the same questions with the cap
    raised above every variable are answered on the bitset path."""

    @staticmethod
    def formulas(rng, variables):
        """`query_formulas` (constants, empty `And`/`Or`, a clause, nested
        negations, a contradiction), then a tautology at the top and one
        below a conjunction, a tautological clause and a formula whose
        only non-constant part is a conjunction under a negated
        disjunction."""
        x, y, z = rng.sample(variables, 3)
        out = query_formulas(rng, variables)
        out += [
            Or((pos(x), Not(pos(x)))),
            And((pos(y), Or((neg(z), Not(neg(z)))), Or((pos(x), FALSE)))),
            Clause((pos(x), neg(x), pos(y))),
            Not(Or((FALSE, Not(And((pos(x), Not(Not(neg(y))), TRUE)))))),
        ]
        return out

    def test_search_path_agrees_with_the_bitset_path(self):
        # 17-20 variables, all used, consistent and inconsistent bases, and
        # formulas that reach two variables outside the base. Each
        # formula's level is compared on both paths, and on a consistent
        # base also its possibility and necessity.
        rng = random.Random(59)
        outside = (Var("o1"), Var("o2"))
        consistent = set()
        checked = 0
        while checked < 10:
            n = rng.randint(17, 20)
            b = random_clausal_base(rng, n, rng.randint(n, 2 * n))
            searched = WeightedBase(b.entries, b.variables)
            levels = semantics._levels(searched, "test")
            if len(levels._pairs) < n:
                continue
            checked += 1
            assert levels._models is None
            inc = inconsistency_degree(searched)
            consistent.add(inc == 0)
            fs = [f for _ in range(3) for f in self.formulas(rng, b.variables + outside)]

            def answers(base):
                levels = semantics._levels(base, "test")
                out = [levels.degrees[levels.formula_level(f)] for f in fs]
                if inc == 0:
                    out += [(possibility(base, f), necessity(base, f)) for f in fs]
                return out

            by_search = answers(searched)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(semantics, "_BITSET_MAX_VARS", n + len(outside))
                swept = WeightedBase(b.entries, b.variables)
                assert semantics._levels(swept, "test")._models is not None
                assert answers(swept) == by_search
        assert consistent == {True, False}

    def test_clauses_of_constants_and_tautologies(self):
        # With no clause over a variable, every variable and gate takes a
        # pair from bit 0 up, in the order the walk meets them: a
        # conjunction's gate before its parts.
        x, y = Var("x"), Var("y")
        gate_clauses = semantics._gate_clauses
        assert gate_clauses(TRUE, {}) == []
        assert gate_clauses(FALSE, {}) == [0]
        # A tautological clause is kept: every assignment satisfies it.
        assert gate_clauses(Or((pos(x), neg(x))), {}) == [0b11]
        # A top-level conjunction is its gate g (bits 0-1), a clause ¬g ∨
        # part per part, and the unit g.
        assert gate_clauses(And((pos(x), neg(y))), {}) == [0b110, 0b100010, 0b1]
        assert gate_clauses(Not(Clause((pos(x), pos(y)))), {}) == [0b1010, 0b100010, 0b1]
        # (x & y) | !x: ¬g ∨ x, ¬g ∨ y and g ∨ ¬x.
        f = Or((And((pos(x), pos(y))), neg(x)))
        assert gate_clauses(f, {}) == [0b110, 0b10010, 0b1001]
        # A tautological disjunction keeps the gate clauses made for it.
        f = Or((And((pos(x), pos(y))), Not(pos(x)), pos(x)))
        assert gate_clauses(f, {}) == [0b110, 0b10010, 0b1101]
        # A false part of a conjunction is the unit ¬g.
        assert gate_clauses(And((pos(x), FALSE)), {}) == [0b110, 0b10, 0b1]
        assert gate_clauses(Or((And((pos(x), FALSE)), pos(y))), {}) == [0b110, 0b10, 0b10001]
        # Above a clause's variable x (bits 2-3), the gate takes bits 4-5.
        f = And((pos(x), pos(y)))
        assert gate_clauses(f, {x: 0b100}) == [0b100100, 0b1100000, 0b10000]


class TestConditionalLevels:
    """`_Levels.conditional_levels` against two separate `level` calls."""

    @staticmethod
    def pairs_agree(levels, lit, context):
        """The pair of `conditional_levels` equals the two `level` calls."""
        pair = levels.conditional_levels(tuple(context), lit)
        ctx = levels.level(levels.condition(context))
        joint = levels.level(levels.condition((*context, lit)))
        return pair == (ctx, joint)

    @settings(
        max_examples=200, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(
                st.lists(st.tuples(st.integers(0, n - 1), st.booleans()), max_size=4),
                st.sampled_from([F(1, 4), F(1, 2), F(3, 4), F(1)]),
            ),
            max_size=12,
        ),
        st.lists(st.tuples(st.integers(0, n + 1), st.booleans()), max_size=4),
        st.tuples(st.integers(0, n + 1), st.booleans()),
        st.booleans(),
    )))
    # A contradictory context, a literal already in the context, a literal
    # the context negates, and literals on a declared variable in no clause
    # (x1) and on one outside the universe (x2).
    @example((1, [([(0, True)], F(1, 2))], [(0, True), (0, False)], (0, True), True))
    @example((1, [([(0, True)], F(1, 2))], [(0, False)], (0, False), False))
    @example((1, [([(0, True)], F(1, 2))], [(0, False)], (0, True), True))
    @example((1, [([(0, True)], F(1, 2))], [(1, True)], (1, False), True))
    @example((1, [([(0, True)], F(1, 2))], [(2, False)], (2, True), False))
    @example((1, [([(0, True)], F(1, 2))], [], (1, True), True))
    def test_pair_of_levels(self, solver_path, drawn):
        # Variables x0 .. x(n-1) are drawn into clauses, x(n) is declared
        # but in no clause, and x(n+1) is outside the universe. The pair is
        # asked with and without the own model kept.
        n, raw, raw_context, (x, p), own = drawn
        variables = tuple(Var(f"x{i}") for i in range(n + 2))
        entries = [
            (Clause(Literal(variables[i], q) for i, q in lits), a) for lits, a in raw
        ]
        context = [Literal(variables[i], q) for i, q in raw_context]
        levels = semantics._levels(WeightedBase(entries, variables[: n + 1]), "test")
        if own:
            levels.own_level()
        assert self.pairs_agree(levels, Literal(variables[x], p), context)

    def test_pairs_past_the_bitset_cap(self):
        # 20 used variables, so every pair is searched; contexts of three
        # literals, a third of them contradictory, with the literal drawn
        # from the context, its negation, or any variable.
        rng = random.Random(61)
        for _ in range(6):
            b = random_clausal_base(rng, 20, rng.randint(24, 40))
            levels = semantics._levels(WeightedBase(b.entries, b.variables), "test")
            assert levels._models is None
            for k in range(40):
                if k == 20:
                    levels.own_level()
                context = [
                    Literal(v, rng.random() < 0.5) for v in rng.sample(b.variables, 3)
                ]
                if rng.random() < 1 / 3:
                    context.append(negate(context[0]))
                lit = rng.choice(
                    [context[1], negate(context[1]),
                     Literal(rng.choice(b.variables), rng.random() < 0.5)]
                )
                assert self.pairs_agree(levels, lit, context)


class TestMaxitivity:
    """A context's level is the larger of its two halves' levels, with ¬x
    and with x: a cut misses the context exactly when it misses both. The
    CPT sweep reads a column's context degree off its two cells this way."""

    # Variables x0 .. x(n-1) are drawn into clauses, x(n) is declared but
    # in no clause, and x(n+1) is outside the universe.
    @settings(
        max_examples=200, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.integers(1, 7).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(
                st.lists(st.tuples(st.integers(0, n - 1), st.booleans()), max_size=4),
                st.sampled_from([F(1, 4), F(1, 2), F(3, 4), F(1)]),
            ),
            max_size=12,
        ),
        st.lists(st.tuples(st.integers(0, n + 1), st.booleans()), max_size=4),
        st.integers(0, n + 1),
    )))
    @example((1, [([(0, True)], F(1, 2))], [], 0))  # x used by a clause
    @example((1, [([(0, True)], F(1, 2))], [(0, False)], 1))  # x in no clause
    @example((1, [([(0, True)], F(1, 2))], [(2, True)], 2))  # x outside
    def test_context_level_is_the_larger_half(self, solver_path, drawn):
        n, raw, raw_context, x = drawn
        variables = tuple(Var(f"x{i}") for i in range(n + 2))
        entries = [
            (Clause(Literal(variables[i], p) for i, p in lits), a) for lits, a in raw
        ]
        # The last polarity drawn for each variable, so no clash.
        context = [Literal(variables[i], p) for i, p in dict(raw_context).items()]
        levels = semantics._levels(WeightedBase(entries, variables[: n + 1]), "test")
        whole = levels.level(levels.condition(context))
        halves = [
            levels.level(levels.condition([*context, Literal(variables[x], p)]))
            for p in (False, True)
        ]
        assert whole == max(halves)


class TestInconsistencyDegree:
    def test_consistent_base(self, weather):
        assert inconsistency_degree(weather) == 0

    def test_weather_plus_hard_facts(self, weather):
        augmented = weather.extended(
            [(clause(neg(SE)), F(1)), (clause(pos(WI)), F(1)), (clause(pos(SU)), F(1))]
        )
        assert inconsistency_degree(augmented) == F(1, 3)

    def test_hard_contradiction(self):
        b = WeightedBase([(clause(pos(X)), F(1)), (clause(neg(X)), F(1))], (X,))
        assert inconsistency_degree(b) == 1

    def test_empty_clause_sets_floor(self):
        b = WeightedBase([(Clause(), F(2, 5)), (clause(pos(X)), F(1))], (X,))
        assert inconsistency_degree(b) == F(2, 5)

    def test_matches_distribution_maximum(self):
        rng = random.Random(23)
        for _ in range(60):
            b = random_clausal_base(rng, rng.randint(1, 5), rng.randint(1, 8))
            d = distribution_of_base(b)
            assert inconsistency_degree(b) == 1 - max(d.values)

    def test_requires_clausal(self):
        b = WeightedBase([(And((pos(X), pos(Y))), F(1, 2))])
        with pytest.raises(DomainError):
            inconsistency_degree(b)


class TestPossibility:
    def test_conjunction_golden(self, weather):
        f = And((neg(SE), pos(WI), pos(SU)))
        assert possibility(weather, f) == F(2, 3)

    def test_tautology(self, weather):
        assert possibility(weather, Or((pos(X), neg(X)))) == 1

    def test_negative_weather(self, weather):
        assert possibility(weather, And((neg(SU), pos(WI)))) == F(1, 3)

    def test_unsatisfiable_formula(self, weather):
        assert possibility(weather, And((pos(SU), neg(SU)))) == 0

    def test_rejects_inconsistent_base(self):
        b = WeightedBase([(clause(pos(X)), F(1)), (clause(neg(X)), F(1))], (X,))
        with pytest.raises(InconsistentBaseError):
            possibility(b, pos(X))

    def test_agrees_with_max_over_models(self):
        rng = random.Random(41)
        checked = 0
        while checked < 40:
            b = random_clausal_base(rng, rng.randint(2, 4), rng.randint(1, 7))
            d = distribution_of_base(b)
            if not d.is_normalized:
                continue
            checked += 1
            lits = [Literal(v, rng.random() < 0.5) for v in b.variables]
            f = And(tuple(rng.sample(lits, rng.randint(1, len(lits)))))
            expected = max(
                (val for w, val in d.items() if satisfies(w, f)), default=F(0)
            )
            assert possibility(b, f) == expected

    def test_disjunction_is_max(self, weather):
        f = And((neg(SU), pos(WI)))
        g = And((neg(SE), pos(WI), pos(SU)))
        assert possibility(weather, Or((f, g))) == max(
            possibility(weather, f), possibility(weather, g)
        )

    def test_one_side_fully_possible(self, weather):
        for f in (pos(SE), pos(WI), And((pos(SU), pos(WI)))):
            assert max(possibility(weather, f), possibility(weather, Not(f))) == 1

    def test_bitset_formula_is_walked_once(self, weather, monkeypatch):
        # A formula over used variables is evaluated in one walk of the
        # truth tables, with no search; one that meets a variable no clause
        # uses is asked by one level walk of its gate clauses.
        walked = []
        refuted = semantics._Levels._refuted

        def counted(levels, hard, true, false):
            walked.append(hard)
            return refuted(levels, hard, true, false)

        monkeypatch.setattr(semantics._Levels, "_refuted", counted)
        f = Or((And((neg(SE), pos(WI))), Not(pos(SU))))
        g = Or((pos(SU), And((neg(WI), pos(SE)))))
        assert (possibility(weather, f), necessity(weather, f)) == (F(2, 3), 0)
        assert (possibility(weather, g), necessity(weather, g)) == (1, F(1, 3))
        assert walked == []
        h = And((pos(SU), pos(Var("zz"))))
        assert (possibility(weather, h), necessity(weather, h)) == (1, 0)
        assert len(walked) == 2


class TestMeasuresAgainstEnumeration:
    def test_random_bases_and_formulas(self, solver_path):
        # Weight-1 clauses are in the pool; the universe has a variable no
        # clause mentions and the formulas two variables outside it. The
        # formulas hold the gate-clause shapes of `TestGateClauses`.
        rng = random.Random(43)
        outside = (Var("o1"), Var("o2"))
        pool = [F(1, 4), F(1, 2), F(3, 4), F(1)]
        checked = 0
        while checked < 320:
            n = rng.randint(1, 4)
            b = random_clausal_base(rng, n, rng.randint(0, 6), pool)
            b = WeightedBase(b.entries, (*b.variables, Var("spare")))
            if inconsistency_degree(b) != 0:
                continue
            checked += 1
            worlds = enumerated_worlds(b, outside)
            for f in TestGateClauses.formulas(rng, b.variables + outside):
                assert (possibility(b, f), necessity(b, f)) == brute_measures(worlds, f), f

    def test_free_variables_past_the_bitset_cap(self, monkeypatch):
        # A base on the bitset path whose formula, with its free variables,
        # needs more variables than the cap: the formula alone goes to the
        # DPLL search over the base's encoded levels.
        monkeypatch.setattr(semantics, "_BITSET_MAX_VARS", 4)
        rng = random.Random(47)
        outside = tuple(Var(f"o{i}") for i in range(3))
        checked = 0
        while checked < 60:
            b = random_clausal_base(rng, rng.randint(2, 4), rng.randint(1, 6))
            if inconsistency_degree(b) != 0:
                continue
            checked += 1
            worlds = enumerated_worlds(b, outside)
            for f in query_formulas(rng, b.variables + outside):
                assert (possibility(b, f), necessity(b, f)) == brute_measures(worlds, f), f

    def test_formula_past_the_cnf_cap(self, monkeypatch):
        # A 13-term DNF expands to 8,192 clauses. The formula names 2
        # variables outside the base, so it is asked by the level walk over
        # its gate clauses, with no CNF: at a cap of 10, where the base's
        # 8 variables are bitsets, and at a cap of 0, where the levels are
        # searched too. Both give the enumerated answers.
        xs = tuple(Var(f"x{i}") for i in range(8))
        o1, o2 = Var("o1"), Var("o2")
        pairs = list(combinations(xs, 2))[::2][:11]
        terms = [And((pos(x), Literal(y, k % 2 == 0))) for k, (x, y) in enumerate(pairs)]
        f = Or((*terms, And((pos(o1), neg(xs[0]))), And((neg(o2), pos(xs[3])))))
        with pytest.raises(ResourceCapError):
            cnf_clauses(f)
        b = WeightedBase(
            [(clause(pos(xs[i]), neg(xs[(i + 1) % 8])), F(1 + i % 2, 3)) for i in range(8)],
            xs,
        )
        worlds = enumerated_worlds(b, (o1, o2))
        expected = brute_measures(worlds, f)
        searched = []
        refuted = semantics._Levels._refuted

        def counted(levels, hard, true, false):
            searched.append(levels._models is None)
            return refuted(levels, hard, true, false)

        monkeypatch.setattr(semantics._Levels, "_refuted", counted)
        monkeypatch.setattr(semantics, "_BITSET_MAX_VARS", 10)
        assert (possibility(b, f), necessity(b, f)) == expected
        assert searched == [False, False]
        monkeypatch.setattr(semantics, "_BITSET_MAX_VARS", 0)
        b = WeightedBase(b.entries, b.variables)
        assert (possibility(b, f), necessity(b, f)) == expected
        assert searched[2:] and all(searched[2:])

    def test_builds_no_weighted_base(self, solver_path, weather, monkeypatch):
        built = []
        init = model.WeightedBase.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        f = And((pos(SE), neg(WI), Or((pos(SU), pos(Var("zz"))))))
        monkeypatch.setattr(model.WeightedBase, "__init__", counting_init)
        assert possibility(weather, f) == F(2, 3)
        assert necessity(weather, f) == 0
        assert built == []


class TestNecessity:
    def test_strongest_goal(self, weather):
        assert necessity(weather, clause(pos(SU), neg(WI))) == F(2, 3)

    def test_tautology(self, weather):
        assert necessity(weather, Or((pos(SU), neg(SU)))) == 1

    def test_contextual_support(self):
        b = WeightedBase(
            [(clause(pos(A2), pos(A1)), F(2, 5)), (clause(neg(A2)), F(1))],
            (A1, A2),
        )
        assert necessity(b, pos(A1)) == F(2, 5)


class TestCertaintyDegree:
    def test_supported_literal(self):
        b = WeightedBase(
            [(clause(pos(A1)), F(2, 5)), (clause(pos(A3)), F(7, 10))], (A1, A3)
        )
        assert certainty_degree(b, pos(A1)) == F(2, 5)

    def test_unmentioned_variable(self, weather):
        free = Var("zz")
        extended = WeightedBase(weather.entries, weather.variables + (free,))
        assert certainty_degree(extended, pos(free)) == 0

    @pytest.mark.parametrize("path", ["bitset", "dpll"])
    def test_equals_hard_unit_refutation(self, path, monkeypatch):
        # Reference: the refutation level read off the base extended with
        # the negated literal as a weight-1 unit clause.
        def hard_unit_certainty(b, lit):
            base_inc = inconsistency_degree(b)
            refute_inc = inconsistency_degree(b.extended([(unit(negate(lit)), F(1))]))
            return refute_inc if refute_inc > base_inc else 0

        if path == "dpll":
            monkeypatch.setattr(semantics, "_BITSET_MAX_VARS", 0)
        rng = random.Random(43)
        outside = Var("o1")
        for _ in range(300):
            b = random_clausal_base(rng, rng.randint(1, 5), rng.randint(1, 9))
            if rng.random() < 0.15:
                b = b.extended([(Clause(), rng.choice((F(1, 5), F(1, 2), F(1))))])
            for v in b.variables + (outside,):
                for lit in (pos(v), neg(v)):
                    assert certainty_degree(b, lit) == hard_unit_certainty(b, lit)

    def test_drowned_by_conflict(self):
        b = WeightedBase(
            [
                (clause(pos(A1)), F(2, 5)),
                (clause(pos(A3)), F(7, 10)),
                (clause(neg(A3)), F(1)),
            ],
            (A1, A3),
        )
        assert certainty_degree(b, pos(A1)) == 0


class TestDegreeMemo:
    """Every degree read off the weight levels against plain `Fraction`
    arithmetic on enumerated worlds, the memo of `_Levels.conditional`
    counted by its fills, and its kernel `_ratio`."""

    OUTSIDE = (Var("o1"), Var("o2"))

    @staticmethod
    def inconsistency(worlds, holds_in):
        """Inc(Σ ∧ φ): 1 minus the best degree of a world where φ holds,
        1 when there is none."""
        return 1 - max((val for w, val in worlds if holds_in(w)), default=F(0))

    @classmethod
    def bases(cls, seed, count):
        rng = random.Random(seed)
        for _ in range(count):
            b = random_clausal_base(rng, rng.randint(1, 6), rng.randint(0, 10))
            if rng.random() < 0.1:
                b = b.extended([(Clause(), rng.choice((F(1, 5), F(1, 2), F(1))))])
            yield rng, b, enumerated_worlds(b, cls.OUTSIDE)

    @classmethod
    def context(cls, rng, b):
        """A random literal context over the base's variables and two it
        lacks; a fifth of them contradict themselves."""
        pool = b.variables + cls.OUTSIDE
        context = [
            Literal(rng.choice(pool), rng.random() < 0.5) for _ in range(rng.randint(0, 3))
        ]
        if rng.random() < 0.2:
            v = rng.choice(pool)
            context += [pos(v), neg(v)]
            rng.shuffle(context)
        return context

    def test_degrees_equal_plain_arithmetic(self, solver_path):
        inconsistent = 0
        for rng, b, worlds in self.bases(73, 250):
            inc = self.inconsistency(worlds, lambda w: True)
            assert inconsistency_degree(b) == inc
            pool = b.variables + self.OUTSIDE
            for _ in range(4):
                lit = Literal(rng.choice(pool), rng.random() < 0.5)
                refuted = self.inconsistency(worlds, lambda w: holds(negate(lit), w))
                assert certainty_degree(b, lit) == (refuted if refuted > inc else 0)
                context = self.context(rng, b)
                h = self.inconsistency(worlds, lambda w: all(holds(l, w) for l in context))
                joint = self.inconsistency(
                    worlds, lambda w: all(holds(l, w) for l in (*context, lit))
                )
                expected = F(1) if h == 1 else (1 - joint) / (1 - h)
                assert conditional_possibility(b, lit, context) == expected
                f = random_formula(rng, pool)
                if inc:
                    with pytest.raises(InconsistentBaseError):
                        possibility(b, f)
                    continue
                assert possibility(b, f) == 1 - self.inconsistency(
                    worlds, lambda w: holds(f, w)
                )
                assert necessity(b, f) == self.inconsistency(
                    worlds, lambda w: not holds(f, w)
                )
            inconsistent += inc != 0
        assert inconsistent

    def test_a_level_pair_is_divided_once(self, solver_path, monkeypatch):
        # The memo is keyed by the pair of level indices: every question
        # whose pair was met before, the same question or another, makes
        # no division.
        fills = []
        ratio = semantics._ratio

        def counted(context, joint):
            fills.append((context, joint))
            return ratio(context, joint)

        monkeypatch.setattr(semantics, "_ratio", counted)
        repeated = 0
        for rng, b, _ in self.bases(79, 150):
            fresh = WeightedBase(b.entries, b.variables)
            levels = semantics._levels(fresh, "test")
            own = levels.own_level()
            pairs = set()
            del fills[:]
            for _ in range(8):
                lit = Literal(rng.choice(b.variables + self.OUTSIDE), rng.random() < 0.5)
                context = self.context(rng, b)
                pair = levels.conditional_levels(tuple(context), lit)
                repeated += pair in pairs
                pairs.add(pair)
                first = conditional_possibility(fresh, lit, context)
                assert len(fills) == len(pairs)
                assert conditional_possibility(fresh, lit, context) is first
                assert len(fills) == len(pairs)
                if levels.degrees[own] == 0:
                    f = random_formula(rng, b.variables + self.OUTSIDE)
                    pair = own, levels.formula_level(f)
                    repeated += pair in pairs
                    pairs.add(pair)
                    possibility(fresh, f)
                    assert len(fills) == len(pairs)
            assert sorted(fills) == sorted(
                (levels.degrees[h], levels.degrees[joint]) for h, joint in pairs
            )
        assert repeated

    def test_kernel_is_the_plain_ratio(self):
        # Every pair of k/10 degrees, then random p/q pairs with 0 and 1.
        tenths = [F(k, 10) for k in range(11)]
        rng = random.Random(83)
        drawn = [F(0), F(1)]
        for _ in range(40):
            q = rng.randint(1, 10**6)
            drawn.append(F(rng.randint(0, q), q))
        for degrees in (tenths, drawn):
            for context, joint in itertools.product(degrees, repeat=2):
                expected = F(1) if context == 1 else (1 - joint) / (1 - context)
                got = semantics._ratio(context, joint)
                assert got == expected and type(got) is Fraction, (context, joint)

    def test_walks_negate_nothing(self, monkeypatch):
        # Above the cap a context's negations are built with its bits by
        # `condition`, so no walk calls `_negations` (a table column's are
        # counted in `test_compile.py`). The levels' build, which finds
        # tautologies with it, is done before the count starts.
        monkeypatch.setattr(semantics, "_BITSET_MAX_VARS", 0)
        negations, refuted = semantics._negations, semantics._Levels._refuted
        calls, walks = [], []

        def counted(bits):
            calls.append(bits)
            return negations(bits)

        def walked(levels, hard, true, false):
            walks.append(true)
            return refuted(levels, hard, true, false)

        monkeypatch.setattr(semantics._Levels, "_refuted", walked)
        for rng, b, _ in self.bases(89, 80):
            semantics._levels(b, "test")
            with monkeypatch.context() as mp:
                mp.setattr(semantics, "_negations", counted)
                inc = inconsistency_degree(b)
                for _ in range(4):
                    lit = Literal(rng.choice(b.variables), rng.random() < 0.5)
                    certainty_degree(b, lit)
                    conditional_possibility(b, lit, self.context(rng, b))
                    if not inc:
                        f = random_formula(rng, b.variables + self.OUTSIDE)
                        possibility(b, f)
                        necessity(b, f)
        assert walks and calls == []


class TestBaseOfDistribution:
    def test_all_ones_gives_empty_base(self):
        from posslog import Distribution

        d = Distribution((X,), (F(1), F(1)))
        assert base_of_distribution(d).entries == ()

    def test_weather_round_trip(self, weather):
        d = distribution_of_base(weather)
        again = distribution_of_base(base_of_distribution(d))
        assert again == d

    def test_two_variable_case(self):
        from posslog import Distribution

        d = Distribution((X, Y), (F(1, 2), F(1, 2), F(1, 2), F(1)))
        b = base_of_distribution(d)
        assert distribution_of_base(b) == d
        assert {w for _, w in b.entries} == {F(1, 2)}

    def test_rejects_non_normalized(self):
        from posslog import Distribution

        d = Distribution((X,), (F(1, 2), F(1, 2)))
        with pytest.raises(DomainError):
            base_of_distribution(d)

    def test_random_round_trips(self):
        rng = random.Random(59)
        done = 0
        while done < 40:
            b = random_clausal_base(rng, rng.randint(1, 4), rng.randint(1, 6))
            d = distribution_of_base(b)
            if not d.is_normalized:
                continue
            done += 1
            assert distribution_of_base(base_of_distribution(d)) == d

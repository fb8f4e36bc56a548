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
        model = semantics._search(clauses, 0, [])
        assert (model is not None) == brute_sat(clauses, n)
        if model is not None:
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
        model = semantics._search(clauses, start, [])
        assert (model is not None) == brute_sat(clauses + units, n)
        if model is not None:
            assert model & start == start
            assert all(c & model for c in clauses)
            assert not model & (model >> 1) & 0x555

    def test_no_clauses_have_the_empty_model(self):
        assert semantics._search([], 0, []) == 0


class TestDpllSearchCounts:
    """The searches a level question runs on 20-variable bases, which stay
    above the bitset cap. Once the own level is known, a question whose
    context the own model admits starts no search; any other starts one
    search from the root."""

    @pytest.fixture
    def questions(self, monkeypatch):
        """Every `_search` call as (its pending stack, its clauses, the
        assignment it starts from, its result), and each `_Levels._refuted`
        call as its number of levels and the searches it made. A search
        from the root is one with a pending stack of its own; a resumed
        search is handed the stack of an earlier one. `starts` holds each
        question's hard clauses and start, as `_refuted` was handed them."""
        log = {"questions": [], "searches": [], "starts": []}
        search, refuted = semantics._search, semantics._Levels._refuted

        def counted(clauses, true, pending):
            entry = [pending, list(clauses), true, None]
            log["searches"].append(entry)
            entry[3] = search(clauses, true, pending)
            return entry[3]

        def logged(levels, hard, true):
            start = len(log["searches"])
            log["starts"].append((list(hard), true))
            found = refuted(levels, hard, true)
            log["questions"].append((len(levels._groups), log["searches"][start:]))
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
    def admits(b, asked):
        """Whether the own model of `b`'s levels answers a question: for a
        list of literals, when the model makes none of them false; for a
        formula, when the model's world, with every variable the model
        leaves unassigned false, satisfies it. The model is first checked
        to satisfy every cut below the own level."""
        levels = semantics._levels(b, "test")
        model = semantics._negations(levels._false)
        for group in levels._groups[: levels.own_level() - 1]:
            assert all(c & model for c in group)
        pairs = levels._pairs
        if isinstance(asked, list):
            return not any(
                model & (pairs.get(lit.var, 0) << lit.positive) for lit in asked
            )
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

    def test_own_level_is_searched_once(self, questions):
        searches = questions["searches"]
        answered = {True: 0, False: 0}
        for rng, b in self.bases():
            inc = inconsistency_degree(b)
            assert len(questions["questions"]) == 1 and self.roots(searches) == 1
            before = len(searches)
            assert inconsistency_degree(b) == inc
            assert len(searches) == before
            # Each question below starts exactly one search from the root
            # per context the own model does not admit, and none for one
            # it admits: one context for a certainty degree or a
            # possibility, two for a conditional possibility (the context
            # with and without the literal).
            lit = Literal(rng.choice(b.variables), True)
            context = [Literal(v, rng.random() < 0.5) for v in rng.sample(b.variables, 3)]
            x = Literal(b.variables[0], True)
            asks = [
                (lambda: certainty_degree(b, lit), [[negate(lit)]]),
                (lambda: conditional_possibility(b, x, context), [context, [*context, x]]),
            ]
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
                assert all(self.roots(s) == 1 for _, s in asked)
            searches.clear()
            questions["questions"].clear()
        assert answered[True] and answered[False]  # hits and misses both

    def test_searches_only_where_the_last_model_misses(self, questions):
        # The literal bits each question starts from: a literal context's
        # own, with no hard clauses; None for a formula, whose CNF is the
        # hard clauses and which starts from no bits. A contradictory
        # literal context, and any context the own model admits, is
        # answered without a search.
        expected = []
        for rng, b in self.bases():
            levels = semantics._levels(b, "test")
            inconsistency_degree(b)
            expected.append(levels.condition())
            for v in b.variables:
                lit = Literal(v, rng.random() < 0.5)
                certainty_degree(b, lit)
                if self.searched(b, [negate(lit)]):
                    expected.append(levels.condition([negate(lit)]))
            context = [Literal(v, rng.random() < 0.5) for v in rng.sample(b.variables, 3)]
            lit = Literal(b.variables[0], True)
            conditional_possibility(b, lit, context)
            for asked in (context, [*context, lit]):
                if self.searched(b, asked):
                    expected.append(levels.condition(asked))
            if inconsistency_degree(b) == 0:
                for _ in range(5):
                    f = random_formula(rng, b.variables)
                    possibility(b, f)
                    if self.searched(b, f):
                        expected.append(None)
        asked = questions["questions"]
        assert asked
        assert len(questions["searches"]) == sum(len(s) for _, s in asked)
        assert len(asked) == len(questions["starts"]) == len(expected)
        for (levels, searches), (hard, start), bits in zip(
            asked, questions["starts"], expected
        ):
            # One search from the root, then one resumed search at most
            # per level, each from the last model and only where it
            # misses a clause.
            assert 1 <= len(searches) <= 1 + levels and self.roots(searches) == 1
            (_, clauses, true, model), *resumed = searches
            assert clauses == hard and true == start
            if bits is None:
                assert start == 0
            else:
                assert hard == [] and start == bits
            for _, clauses, true, found in resumed:
                assert model is not None and true == model
                assert any(not c & true for c in clauses)
                model = found


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

        def counted(levels, hard, true):
            calls.append(1)
            return refuted(levels, hard, true)

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

    @staticmethod
    def world_terms(levels, variables, agree):
        """13 two-literal terms over `variables`, each of whose literals the
        own model's world makes true (`agree`) or false: their disjunction
        expands to 8,192 CNF clauses before any pruning."""
        world = levels._world
        lits = [Literal(v, bool(world[v]) == agree) for v in variables]
        pairs = list(combinations(lits, 2))
        return Or(tuple(And(pair) for pair in (pairs * 3)[:13]))

    def test_cnf_cap_is_met_only_where_the_model_misses(self, monkeypatch):
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
        worlds = enumerated_worlds(b, ())
        assert possibility(b, hit) == brute_measures(worlds, hit)[0] == 1
        assert necessity(b, Not(hit)) == brute_measures(worlds, Not(hit))[1] == 0
        with pytest.raises(ResourceCapError):
            possibility(b, miss)
        with pytest.raises(ResourceCapError):
            necessity(b, Not(miss))


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


class TestMeasuresAgainstEnumeration:
    def test_random_bases_and_formulas(self, solver_path):
        # Weight-1 clauses are in the pool; the universe has a variable no
        # clause mentions and the formulas two variables outside it.
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
            for f in query_formulas(rng, b.variables + outside):
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
        # A 13-term DNF expands to 8,192 clauses. The base's 8 variables and
        # the formula's 2 outside it fill a bitset cap of 10 exactly: the
        # bitset path answers without a CNF. With a cap of 9 the query goes
        # to the DPLL path, which needs the CNF and hits its cap.
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
        monkeypatch.setattr(semantics, "_BITSET_MAX_VARS", 10)
        assert (possibility(b, f), necessity(b, f)) == brute_measures(worlds, f)
        monkeypatch.setattr(semantics, "_BITSET_MAX_VARS", 9)
        with pytest.raises(ResourceCapError):
            possibility(WeightedBase(b.entries, b.variables), f)

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

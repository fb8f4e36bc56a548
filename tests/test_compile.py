import hashlib
import random
import tracemalloc
from fractions import Fraction
from itertools import chain, permutations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from posslog import (
    CPT,
    And,
    Clause,
    DomainError,
    InconsistentBaseError,
    Literal,
    Network,
    Ordering,
    ResourceCapError,
    Var,
    WeightedBase,
    certainty_degree,
    check_normalization,
    compile_network,
    compile_stages,
    conditional_possibility,
    cpt_for,
    decompose_check,
    distribution_of_base,
    hidden_parent_closure,
    immediate_parents,
    inconsistency_degree,
    instantiate,
    marginal_base,
    network_distribution,
    remove_subsumed,
    remove_tautologies,
    serialize_network,
    to_clausal,
    unit,
    verify_compilation,
)
from posslog import compiler, oracle, parse_base, semantics
from posslog.compiler import StageSummary
from posslog.model import ONE

import helpers
from helpers import (
    A1,
    A2,
    A3,
    SE,
    SU,
    WI,
    X,
    Y,
    clause,
    neg,
    pos,
    random_clausal_base,
)

F = Fraction


class TestImmediateParents:
    def test_weather_first_node(self, weather):
        assert immediate_parents(weather, SE) == frozenset({WI, SU})

    def test_weather_second_stage(self):
        b = WeightedBase(
            [(clause(pos(SU)), F(1, 3)), (clause(pos(SU), neg(WI)), F(2, 3))],
            (SU, WI),
        )
        assert immediate_parents(b, WI) == frozenset({SU})

    def test_absent_variable(self, weather):
        extended = WeightedBase(weather.entries, weather.variables + (X,))
        assert immediate_parents(extended, X) == frozenset()


class TestHiddenParentClosure:
    def test_conflict_source_becomes_parent(self, support):
        seed = immediate_parents(support, A1)
        assert seed == frozenset({A2})
        assert hidden_parent_closure(support, A1, seed) == frozenset({A2, A3})

    def test_weather_adds_nothing(self, weather):
        seed = immediate_parents(weather, SE)
        assert hidden_parent_closure(weather, SE, seed) == frozenset({WI, SU})

    def test_isolated_variable(self, weather):
        extended = WeightedBase(weather.entries, weather.variables + (X,))
        assert hidden_parent_closure(extended, X, frozenset()) == frozenset()

    def test_seed_variable_in_no_clause_is_kept_and_counted(self, support, monkeypatch):
        # X widens a1's table but stands in no clause, so it adds nobody.
        extended = WeightedBase(support.entries, (*support.variables, X))
        seed = immediate_parents(extended, A1) | {X}
        assert hidden_parent_closure(extended, A1, seed) == frozenset({A2, A3, X})
        monkeypatch.setattr(compiler, "MAX_CPT_CELLS", 8)
        assert hidden_parent_closure(support, A1, {A2}) == frozenset({A2, A3})
        with pytest.raises(ResourceCapError, match="16 cells"):
            hidden_parent_closure(extended, A1, seed)

    def test_weak_side_clause_still_matters(self):
        # a unit below the support level rescales the conditional of the
        # unsupported value, so its variable must become a parent
        b = WeightedBase(
            [(clause(pos(A1)), F(2, 5)), (clause(pos(A3)), F(1, 5))], (A1, A3)
        )
        assert hidden_parent_closure(b, A1, immediate_parents(b, A1)) == frozenset(
            {A3}
        )

    def test_equals_closure_over_hard_unit_contexts(self):
        # Reference: each context is the instantiated base plus the
        # context's literals as hard units. Those units sit on variables
        # the instantiated base no longer mentions.
        def unit_context_closure(b, var, seed):
            parents = set(seed) - {var}
            while True:
                grew = False
                swept = sorted(parents)
                for values in product((False, True), repeat=len(swept)):
                    instance = [Literal(v, val) for v, val in zip(swept, values)]
                    conditioned = instantiate(b, *instance)
                    context = conditioned.extended([(unit(l), ONE) for l in instance])
                    if (
                        certainty_degree(context, Literal(var, True)) == 0
                        and certainty_degree(context, Literal(var, False)) == 0
                    ):
                        continue
                    fresh = set()
                    for c, _ in conditioned.entries:
                        if var not in c.variables:
                            fresh |= c.variables
                    fresh -= parents | {var}
                    if fresh:
                        parents |= fresh
                        grew = True
                        break
                if not grew:
                    return frozenset(parents)

        rng = random.Random(29)
        for _ in range(300):
            b = remove_tautologies(
                random_clausal_base(rng, rng.randint(1, 5), rng.randint(1, 9))
            )
            for var in b.variables:
                seed = immediate_parents(b, var)
                assert hidden_parent_closure(b, var, seed) == unit_context_closure(
                    b, var, seed
                )

    @pytest.mark.parametrize(
        "b, var, sweeps",
        [
            # a3's clause stands in the first column and is pulled in
            (helpers.support_base(), A1, 1),
            # every clause stands, but x is in none, so it is never derivable
            (WeightedBase(helpers.weather_base().entries, (SU, WI, SE, X)), X, 1),
            # no clause could bring a fresh parent
            (helpers.weather_base(), SE, 0),
        ],
        ids=["support", "isolated", "weather"],
    )
    def test_one_column_sweep_per_round(self, b, var, sweeps, monkeypatch):
        # On the bitset path a round is one `column_levels` pass over the
        # parents in name order, and no context is asked its level alone.
        swept, asked = [], []
        column_levels, level = semantics._Levels.column_levels, semantics._Levels.level

        def sweep(levels, var, parents):
            swept.append(parents)
            return column_levels(levels, var, parents)

        def counted(levels, ctx):
            asked.append(ctx)
            return level(levels, ctx)

        monkeypatch.setattr(semantics._Levels, "column_levels", sweep)
        monkeypatch.setattr(semantics._Levels, "level", counted)
        hidden_parent_closure(b, var, immediate_parents(b, var))
        assert asked == []
        assert len(swept) == sweeps
        assert all(list(p) == sorted(p) for p in swept)

    def test_dpll_round_stops_at_its_first_hit(self, monkeypatch):
        # Above the cap the columns are asked lazily: support's first
        # column is derivable with a3's clause standing, so the closure
        # asks its two halves and nothing more.
        monkeypatch.setattr(semantics, "_BITSET_MAX_VARS", 0)
        asked = []
        level = semantics._Levels.level

        def counted(levels, ctx):
            asked.append(ctx)
            return level(levels, ctx)

        monkeypatch.setattr(semantics._Levels, "level", counted)
        b = helpers.support_base()
        seed = immediate_parents(b, A1)
        assert hidden_parent_closure(b, A1, seed) == frozenset({A2, A3})
        assert len(asked) == 2

    def test_over_cap_seed_raises_before_sweeping(self):
        # x's clause gives it 40 parents; !y0 | z would make the closure
        # sweep all 2^40 instantiations before it found no hidden parent.
        ys = " | ".join(f"y{i}" for i in range(40))
        b = parse_base(f"1/2: x | {ys}\n1/3: !y0 | z\n")
        with pytest.raises(ResourceCapError, match="x would have 2199023255552 cells"):
            compile_network(b, b.variables)
        with pytest.raises(ResourceCapError):
            hidden_parent_closure(b, Var("x"), immediate_parents(b, Var("x")))


class TestConditionalPossibility:
    def test_weather_golden(self, weather):
        assert conditional_possibility(weather, neg(SE), [pos(WI), pos(SU)]) == F(2, 3)

    def test_support_context(self, support):
        assert conditional_possibility(support, neg(A1), [neg(A2)]) == F(3, 5)

    def test_conflicting_context(self, support):
        assert conditional_possibility(support, neg(A1), [neg(A2), neg(A3)]) == 1

    def test_impossible_context_convention(self):
        b = WeightedBase([(clause(pos(X)), F(1))], (X, Y))
        assert conditional_possibility(b, pos(Y), [neg(X)]) == 1
        assert conditional_possibility(b, neg(Y), [neg(X)]) == 1


class TestCptFor:
    def test_prior_table(self):
        b = WeightedBase([(clause(pos(SU)), F(1, 3))], (SU,))
        cpt = cpt_for(b, SU, ())
        assert cpt.cell((), True) == 1
        assert cpt.cell((), False) == F(2, 3)

    def test_one_parent_table(self):
        b = WeightedBase(
            [(clause(pos(SU)), F(1, 3)), (clause(pos(SU), neg(WI)), F(2, 3))],
            (SU, WI),
        )
        cpt = cpt_for(b, WI, (SU,))
        assert cpt.cell((False,), True) == F(1, 2)
        assert cpt.cell((True,), True) == 1
        assert cpt.cell((False,), False) == 1
        assert cpt.cell((True,), False) == 1

    def test_two_parent_table(self, weather):
        cpt = cpt_for(weather, SE, (WI, SU))
        expected_pos = {(False, True): F(2, 3)}
        expected_neg = {(True, True): F(2, 3)}
        for assignment, negative, positive in cpt.columns():
            assert positive == expected_pos.get(assignment, F(1))
            assert negative == expected_neg.get(assignment, F(1))

    def test_checks_the_cap_first(self, weather, monkeypatch):
        monkeypatch.setattr(compiler, "MAX_CPT_CELLS", 4)
        with pytest.raises(ResourceCapError, match="se would have 8 cells"):
            cpt_for(weather, SE, (WI, SU))

    def test_rejects_a_self_parent_or_a_repeated_parent(self, weather, solver_path):
        with pytest.raises(DomainError, match="se cannot be its own parent"):
            cpt_for(weather, SE, (WI, SE))
        with pytest.raises(DomainError, match="duplicate parent"):
            cpt_for(weather, SE, (WI, SU, WI))
        with pytest.raises(DomainError, match="duplicate parent"):
            cpt_for(WeightedBase(weather.entries, (*weather.variables, X)), SE, (X, X))

    def test_asks_two_level_questions_per_column(self, solver_path, monkeypatch):
        # A column's context degree is the larger of its two cells'
        # degrees, so it is never asked. On the bitset path the whole
        # table is read off the weight levels in one pass, asking none.
        asked = []
        level = semantics._Levels.level

        def counted(levels, ctx):
            asked.append(ctx)
            return level(levels, ctx)

        monkeypatch.setattr(semantics._Levels, "level", counted)
        b = oracle.random_base(5, 6, 10, require_consistent=False)
        var, *rest = b.variables
        for k in range(len(rest) + 1):
            asked.clear()
            cpt_for(b, var, rest[:k])
            assert len(asked) == (2 * 2**k if solver_path == "dpll" else 0)

    # A random base over v1 .. vn, declared with one more variable, `free`,
    # that no clause uses; `order` puts the node first, then the parents,
    # so `free` can be either.
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 10).flatmap(lambda n: st.tuples(
        st.integers(0, 2**32),
        st.just(n),
        st.integers(0, 2 * n),
        st.permutations(range(n + 1)),
        st.integers(0, n),
    )))
    @example((1, 6, 12, (0, 1, 2, 3, 4, 5, 6), 0))  # no parent
    @example((1, 6, 12, (5, 3, 0, 4, 6, 1, 2), 6))  # the cuts stop at level 3 of 6
    @example((2, 4, 3, (4, 2, 0, 1, 3), 4))  # the node is in no clause
    @example((2, 4, 3, (0, 4, 2, 1, 3), 4))  # a parent is in no clause
    def test_one_pass_matches_the_walk(self, drawn):
        seed, n, m, order, k = drawn
        b = oracle.random_base(seed, n, m, require_consistent=False)
        variables = (*b.variables, Var("free"))
        var, *parents = (variables[i] for i in order)
        parents = parents[:k]
        one_pass = cpt_for(WeightedBase(b.entries, variables), var, parents)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(semantics, "_BITSET_MAX_VARS", 0)
            walked = WeightedBase(b.entries, variables)
            assert cpt_for(walked, var, parents) == one_pass
            # The DPLL path, unless no clause uses a variable.
            assert walked._levels._models is None or not walked._levels._pairs

    def test_one_pass_counts_past_a_byte(self):
        # 300 distinct weights, each on a clause that excludes one world of
        # its own: 300 nested cuts, more than a byte-wide count holds.
        variables = tuple(Var(f"x{i}") for i in range(9))
        worlds = random.Random(3).sample(range(1 << 9), 300)
        b = WeightedBase(
            [
                (Clause(Literal(v, not w >> i & 1) for i, v in enumerate(variables)), F(j, 300))
                for j, w in enumerate(worlds, 1)
            ],
            variables,
        )
        var, *parents = variables
        for k in (0, 2, 8):
            one_pass = cpt_for(b, var, parents[:k][::-1])
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(semantics, "_BITSET_MAX_VARS", 0)
                walked = WeightedBase(b.entries, variables)
                assert cpt_for(walked, var, parents[:k][::-1]) == one_pass
        assert len(semantics._levels(b, "test")._models) == 300

    def test_holds_one_context_per_parent(self):
        # 2^13 columns over 2^14 worlds: the breadth-first sweep held every
        # column's 2 KB world mask at once, about 16 MB.
        b = oracle.random_base(3, 14, 28, require_consistent=False)
        var, *parents = b.variables
        inconsistency_degree(b)  # encodes the weight levels
        tracemalloc.start()
        try:
            cpt = cpt_for(b, var, parents)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(cpt.neg) == 1 << 13
        assert peak < 4 << 20


class TestCompileNetwork:
    def test_weather_network_golden(self, weather):
        net = compile_network(weather, (SE, WI, SU))
        se_node, wi_node, su_node = net.nodes
        assert se_node.parents == (WI, SU)
        assert wi_node.parents == (SU,)
        assert su_node.parents == ()
        assert su_node.cell((), True) == 1
        assert su_node.cell((), False) == F(2, 3)
        assert wi_node.cell((False,), True) == F(1, 2)
        assert se_node.cell((False, True), True) == F(2, 3)
        assert se_node.cell((True, True), False) == F(2, 3)
        from posslog import distributions_equal

        assert distributions_equal(
            network_distribution(net), distribution_of_base(weather)
        )

    def test_fourteen_var_digest(self, solver_path):
        # Pins the closure's and the CPT's column sweep on both paths.
        b = oracle.random_base(1003, 14, 28, require_consistent=False)
        text = serialize_network(compile_network(b, b.variables))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "0485190f5c31eeda76ce406aa7b4d06a981ac1360174c053be84a55aff9d99a1"
        )

    def test_empty_base_compiles_to_all_ones(self):
        b = WeightedBase((), (X, Y))
        net = compile_network(b, (X, Y))
        for cpt in net.nodes:
            assert cpt.parents == ()
            assert cpt.cell((), True) == 1
            assert cpt.cell((), False) == 1

    @pytest.mark.parametrize(
        "entries, variables, degree",
        [
            pytest.param(
                [(clause(pos(X)), F(1)), (clause(neg(X)), F(1))], (X,), F(1), id="units"
            ),
            pytest.param(
                [
                    (clause(pos(X), neg(X)), F(1)),
                    (clause(pos(X)), F(1, 2)),
                    (clause(neg(X)), F(2, 3)),
                ],
                (X,),
                F(1, 2),
                id="tautology",
            ),
            pytest.param(
                [
                    (clause(pos(X)), F(1, 2)),
                    (clause(neg(X)), F(2, 3)),
                    (clause(pos(X)), F(1, 3)),
                ],
                (X,),
                F(1, 2),
                id="duplicate",
            ),
            pytest.param(
                [
                    (clause(pos(X)), F(2, 3)),
                    (clause(pos(X), pos(Y)), F(1, 2)),
                    (clause(neg(X)), F(1, 2)),
                    (clause(neg(Y)), F(1, 4)),
                ],
                (X, Y),
                F(1, 2),
                id="subsumed",
            ),
            pytest.param(
                [(Clause(()), F(1, 3)), (clause(pos(X)), F(1, 2)), (clause(neg(X)), F(1, 4))],
                (X,),
                F(1, 3),
                id="empty-clause",
            ),
            pytest.param(
                [(And((pos(X), pos(Y))), F(3, 4)), (clause(neg(X), neg(Y)), F(1, 2))],
                (X, Y),
                F(1, 2),
                id="and-entry",
            ),
            pytest.param([(Clause(()), F(2, 5))], (), F(2, 5), id="no-variables"),
        ],
    )
    def test_rejects_inconsistent_base(self, entries, variables, degree, solver_path):
        # The degree is read off the reduced clauses' levels; reducing
        # drops only entailed entries, so it is the input's own degree.
        b = WeightedBase(entries, variables)
        with pytest.raises(InconsistentBaseError) as err:
            compile_network(b, variables)
        assert err.value.degree == inconsistency_degree(to_clausal(b)) == degree

    def test_leaves_its_input_bare(self, solver_path):
        # The compile encodes and checks the input itself, so the caller's
        # base gets no weight levels.
        drawn = oracle.random_base(5, 6, 12)
        b = WeightedBase(drawn.entries, drawn.variables)
        compile_network(b, b.variables[::-1])
        assert b._levels is None

    def test_one_level_build_per_stage(self, monkeypatch):
        # Stage 0's levels also answer the consistency check, and each
        # later stage builds its own from the marginal.
        built = []
        init = semantics._Levels.__init__

        def counting(self, *args):
            built.append(1)
            init(self, *args)

        monkeypatch.setattr(semantics._Levels, "__init__", counting)
        for n in (1, 3, 6):
            drawn = oracle.random_base(n, n, 2 * n)
            for b in (drawn, WeightedBase(drawn.entries, (*drawn.variables, Var("spare")))):
                built.clear()
                compile_network(b, b.variables)
                assert len(built) == len(b.variables)

    def test_every_ordering_of_a_small_base(self, support):
        for order in permutations(support.variables):
            net = compile_network(support, order)
            assert verify_compilation(support, net).ok
            assert check_normalization(net) == ()

    def test_compile_stages(self, weather):
        stages = list(compile_stages(weather, (SE, WI, SU)))
        assert [s.cpt.var for s in stages] == [SE, WI, SU]
        assert all(isinstance(s, StageSummary) for s in stages)
        assert stages[0].cpt.parents == (WI, SU)
        assert Network(s.cpt for s in stages) == compile_network(weather, (SE, WI, SU))

    def test_table_cap(self, weather, monkeypatch):
        # se's table, the largest, has 8 cells.
        monkeypatch.setattr(compiler, "MAX_CPT_CELLS", 8)
        assert compile_network(weather, (SE, WI, SU)).nodes[0].parents == (WI, SU)
        monkeypatch.setattr(compiler, "MAX_CPT_CELLS", 7)
        with pytest.raises(ResourceCapError, match="se would have 8 cells"):
            compile_network(weather, (SE, WI, SU))

    def test_codecs_span_only_mentioned_variables(self, monkeypatch):
        # 198 of the 200 universe variables occur in no clause; a codec
        # over all of them would make every stage cost time linear in the
        # universe. Each stage hands its integer clauses on to the next,
        # so the whole compile builds one codec.
        spans = []

        class Recording(semantics._ClauseBits):
            def __init__(self, universe):
                universe = tuple(universe)
                spans.append(len(universe))
                super().__init__(universe)

        monkeypatch.setattr(semantics, "_ClauseBits", Recording)
        universe = tuple(Var(f"a{i}") for i in range(200))
        b = WeightedBase([(clause(pos(universe[0]), pos(universe[1])), F(1, 2))], universe)
        net = compile_network(b, universe)
        assert net.nodes[0].parents == (universe[1],)
        assert spans == [2]

    def test_wide_universe_builds_no_base_per_stage(self, monkeypatch):
        # A stage hands integer clauses to the next, so the number of bases
        # a compile builds does not grow with the universe; one built per
        # stage would make a reverse-order compile quadratic in it.
        built = []
        init = WeightedBase.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        counts = []
        for n in (50, 500):
            universe = tuple(Var(f"a{i}") for i in range(n))
            b = WeightedBase(
                [(clause(pos(universe[0]), pos(universe[1])), F(1, 2))], universe
            )
            built.clear()
            with monkeypatch.context() as m:
                m.setattr(WeightedBase, "__init__", counting)
                net = compile_network(b, universe[::-1])
            assert net.nodes[-2].parents == (universe[0],)
            counts.append(len(built))
        assert counts[0] == counts[1]

    def test_messy_input_compiles_as_its_cleaned_base(self, solver_path):
        # The stages reduce the encoded input themselves, so the base-level
        # cleanup passes change no record and no refusal.
        rng = random.Random(20)
        for _ in range(300):
            b = helpers.random_messy_base(rng)
            order = list(b.variables)
            rng.shuffle(order)
            runs = []
            for base in (b, remove_subsumed(remove_tautologies(b))):
                try:
                    runs.append(list(compile_stages(base, order)))
                except InconsistentBaseError as exc:
                    runs.append(exc.degree)
            assert runs[0] == runs[1], b

    def test_clausal_input_builds_no_base(self, monkeypatch):
        # A tautology, a duplicate and a subsumed entry are dropped on the
        # encoded clauses, so no cleaned base is built on the way.
        b = WeightedBase(
            [
                (clause(pos(X), neg(X)), F(1, 2)),
                (clause(neg(Y), pos(SU)), F(1, 4)),
                (clause(pos(X), pos(Y)), F(1, 3)),
                (clause(neg(Y), pos(SU)), F(1, 4)),
                (clause(pos(X)), F(1, 2)),
            ],
            (X, Y, SU),
        )
        built = []
        init = WeightedBase.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(WeightedBase, "__init__", counting)
            net = compile_network(b, (X, Y, SU))
        assert built == []
        cleaned = remove_subsumed(remove_tautologies(b))
        assert len(cleaned) == 2
        assert net == compile_network(cleaned, (X, Y, SU))

    def test_unmentioned_variables_pass_their_stage_on(self):
        # A variable on no clause crosses nothing: its stage hands the
        # clauses on unchanged and gets an all-ones table with no parent.
        b = oracle.random_base(7, 10, 40)
        extra = tuple(Var(f"u{i}") for i in range(300))
        wide = WeightedBase(b.entries, extra + b.variables)
        stages = list(compile_stages(wide, wide.variables))
        for stage, var in zip(stages, extra):
            assert stage.cross_clauses == 0
            assert stage.marginal_entries == stage.stage_entries
            assert stage.cpt == CPT(var, (), (ONE,), (ONE,))
        alone = compile_network(b, b.variables)
        assert Network(s.cpt for s in stages[len(extra) :]) == alone

    def test_stage_records(self, weather):
        for stage in compile_stages(weather, (SE, WI, SU)):
            assert min(stage.closure_s, stage.cpt_s, stage.marginal_s) >= 0
            assert stage.cross_clauses >= stage.marginal_entries

    def test_public_stage_functions_chain_to_the_loop(self, solver_path):
        # The four public stage functions, chained over the cleaned base,
        # give the loop's network, stage sizes and cross-product counts.
        rng = random.Random(19)
        checked = 0
        while checked < 40:
            b = random_clausal_base(rng, rng.randint(2, 8), rng.randint(1, 12))
            entries = list(b.entries)
            for c, w in rng.sample(entries, min(2, len(entries))):
                entries.append((c, rng.choice((w, F(1, 5), F(1)))))  # duplicate
                spare = [v for v in b.variables if v not in c.variables]
                if spare:  # subsumed unless its weight is larger
                    wider = Clause((*c.literals, Literal(rng.choice(spare), True)))
                    entries.append((wider, w))
            rng.shuffle(entries)
            b = WeightedBase(entries, b.variables)
            if inconsistency_degree(b) != 0:
                continue
            checked += 1
            order = list(b.variables)
            if checked % 2:
                rng.shuffle(order)
            stages = list(compile_stages(b, order))
            stage = remove_subsumed(remove_tautologies(to_clausal(b)))
            nodes = []
            for summary, var in zip(stages, order):
                parents = hidden_parent_closure(stage, var, immediate_parents(stage, var))
                nodes.append(cpt_for(stage, var, sorted(parents, key=order.index)))
                keep_pos = sum(Literal(var, True) not in c for c, _ in stage.entries)
                keep_neg = sum(Literal(var, False) not in c for c, _ in stage.entries)
                assert summary.stage_entries == len(stage)
                # A stage whose variable is on no clause crosses nothing.
                mentioned = any(var in c.variables for c, _ in stage.entries)
                assert summary.cross_clauses == (keep_pos * keep_neg if mentioned else 0)
                stage = marginal_base(stage, var)
                assert summary.marginal_entries == len(stage)
            assert Network(nodes) == Network(s.cpt for s in stages)
            assert Network(nodes) == compile_network(b, order)

    def test_formula_entries_are_clausalized_first(self):
        from posslog import And

        b = WeightedBase([(And((pos(X), pos(Y))), F(1, 2))], (X, Y))
        net = compile_network(b, (X, Y))
        assert verify_compilation(b, net).ok


class TestOrdering:
    def test_must_cover_base_exactly(self, weather):
        with pytest.raises(DomainError):
            compile_network(weather, (SE, WI))
        with pytest.raises(DomainError):
            compile_network(weather, (SE, WI, SU, X))

    def test_no_repeats(self):
        with pytest.raises(DomainError):
            Ordering((X, X))



# ---------------------------------------------------------------------------
# The weight-level kernel against the hard-unit conditioning it replaced.
# These copies condition by appending the context as weight-1 unit clauses
# and asking `inconsistency_degree` of each extended base.


def hard_unit_conditional(b, lit, context):
    with_context = b.extended([(unit(x), ONE) for x in context])
    h = ONE - inconsistency_degree(with_context)
    if h == 0:
        return ONE
    return (ONE - inconsistency_degree(with_context.extended([(unit(lit), ONE)]))) / h


def instantiated_closure(b, var, seed):
    parents = set(seed) - {var}
    while True:
        grew = False
        swept = sorted(parents)
        for values in product((False, True), repeat=len(swept)):
            instance = [Literal(v, val) for v, val in zip(swept, values)]
            conditioned = instantiate(b, *instance)
            if (
                certainty_degree(conditioned, Literal(var, True)) == 0
                and certainty_degree(conditioned, Literal(var, False)) == 0
            ):
                continue
            fresh = set()
            for c, _ in conditioned.entries:
                if var not in c.variables:
                    fresh |= c.variables
            fresh -= parents | {var}
            if fresh:
                parents |= fresh
                grew = True
                break
        if not grew:
            return frozenset(parents)


def hard_unit_network(b, ordering):
    stage = remove_subsumed(remove_tautologies(to_clausal(b)))
    nodes = []
    for var in ordering:
        parents = instantiated_closure(stage, var, immediate_parents(stage, var))
        parents = sorted(parents, key=list(ordering).index)
        columns = [
            [
                hard_unit_conditional(
                    stage,
                    Literal(var, polarity),
                    [Literal(p, v) for p, v in zip(parents, assignment)],
                )
                for assignment in product((False, True), repeat=len(parents))
            ]
            for polarity in (False, True)
        ]
        nodes.append(CPT(var, parents, *columns))
        stage = marginal_base(stage, var)
    return Network(nodes)


def kernel_bases(seed, count, variables=(1, 5), clauses=(1, 9)):
    """Seeded tautology-free bases, some with empty clauses."""
    rng = random.Random(seed)
    for _ in range(count):
        b = remove_tautologies(
            random_clausal_base(rng, rng.randint(*variables), rng.randint(*clauses))
        )
        if rng.random() < 0.15:
            b = b.extended([(Clause(), rng.choice((F(1, 5), F(1, 2), F(1))))])
        yield rng, b


class TestLevelKernel:
    def test_conditional_equals_hard_units(self, solver_path):
        # Contexts may repeat or contradict a variable (y, !y), and both
        # context and query literals may lie outside the base's universe.
        outside = (Var("o1"), Var("o2"))
        for rng, b in kernel_bases(31, 300):
            pool = b.variables + outside
            for _ in range(6):
                context = [
                    Literal(rng.choice(pool), rng.random() < 0.5)
                    for _ in range(rng.randint(0, 3))
                ]
                if rng.random() < 0.2:
                    v = rng.choice(pool)
                    context += [Literal(v, True), Literal(v, False)]
                    rng.shuffle(context)
                lit = Literal(rng.choice(pool), rng.random() < 0.5)
                assert conditional_possibility(b, lit, context) == (
                    hard_unit_conditional(b, lit, context)
                ), (b, lit, context)

    def test_closure_equals_instantiated_closure(self, solver_path):
        # The wide bases give the walk up to 9 parents to cut branches in;
        # two of their variables each keep the reference sweep affordable.
        wide = kernel_bases(53, 60, variables=(6, 10), clauses=(6, 14))
        for rng, b in chain(kernel_bases(37, 300), wide):
            small = len(b.variables) <= 5
            for var in b.variables if small else rng.sample(b.variables, 2):
                seed = immediate_parents(b, var)
                if rng.random() < 0.3:
                    seed |= {rng.choice(b.variables), Var("o1")}
                assert hidden_parent_closure(b, var, seed) == instantiated_closure(
                    b, var, seed
                ), (b, var, seed)

    def test_cpt_equals_per_cell_conditionals(self, solver_path):
        # Parents come in a random order, may leave clause variables out,
        # and may include a variable outside the base's universe.
        for rng, b in kernel_bases(43, 300):
            var = rng.choice(b.variables + (Var("o1"),))
            pool = [v for v in b.variables + (Var("o2"),) if v != var]
            parents = rng.sample(pool, rng.randint(0, min(4, len(pool))))
            columns = [
                [
                    conditional_possibility(
                        b,
                        Literal(var, polarity),
                        [Literal(p, v) for p, v in zip(parents, assignment)],
                    )
                    for assignment in product((False, True), repeat=len(parents))
                ]
                for polarity in (False, True)
            ]
            assert cpt_for(b, var, parents) == CPT(var, parents, *columns), (
                b, var, parents,
            )

    def test_compile_is_byte_identical(self, solver_path):
        rng = random.Random(41)
        done = 0
        while done < 60:
            b = random_clausal_base(rng, rng.randint(2, 5), rng.randint(1, 8))
            if inconsistency_degree(b) != 0:
                continue
            done += 1
            order = list(b.variables)
            rng.shuffle(order)
            assert serialize_network(compile_network(b, order)) == serialize_network(
                hard_unit_network(b, order)
            )


class TestClausalCheck:
    @pytest.mark.parametrize(
        "op",
        [
            lambda b: instantiate(b, pos(X)),
            lambda b: marginal_base(b, X),
            remove_subsumed,
            lambda b: immediate_parents(b, X),
            remove_tautologies,
            lambda b: decompose_check(b, X),
            inconsistency_degree,
            lambda b: cpt_for(b, X, (Y,)),
        ],
        ids=[
            "instantiate",
            "marginal_base",
            "remove_subsumed",
            "immediate_parents",
            "remove_tautologies",
            "decompose_check",
            "inconsistency_degree",
            "cpt_for",
        ],
    )
    def test_formula_entry_refused(self, op):
        b = WeightedBase([(clause(pos(X)), F(1, 3)), (And((pos(X), pos(Y))), F(1, 2))])
        with pytest.raises(DomainError, match="requires a clausal base"):
            op(b)

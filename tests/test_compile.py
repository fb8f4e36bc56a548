import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from posslog import (
    CPT,
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
from posslog import compiler
from posslog.compiler import StageSummary
from posslog.model import ONE

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

    def test_empty_base_compiles_to_all_ones(self):
        b = WeightedBase((), (X, Y))
        net = compile_network(b, (X, Y))
        for cpt in net.nodes:
            assert cpt.parents == ()
            assert cpt.cell((), True) == 1
            assert cpt.cell((), False) == 1

    def test_rejects_inconsistent_base(self):
        b = WeightedBase([(clause(pos(X)), F(1)), (clause(neg(X)), F(1))], (X,))
        with pytest.raises(InconsistentBaseError) as err:
            compile_network(b, (X,))
        assert err.value.degree == 1

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

    def test_position(self):
        order = Ordering((SE, WI, SU))
        assert order.position(WI) == 1
        with pytest.raises(DomainError):
            order.position(X)



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
        table = {
            (assignment, polarity): hard_unit_conditional(
                stage,
                Literal(var, polarity),
                [Literal(p, v) for p, v in zip(parents, assignment)],
            )
            for assignment in product((False, True), repeat=len(parents))
            for polarity in (False, True)
        }
        nodes.append(CPT(var, parents, table))
        stage = marginal_base(stage, var)
    return Network(nodes)


def kernel_bases(seed, count):
    """Seeded tautology-free bases, some with empty clauses."""
    rng = random.Random(seed)
    for _ in range(count):
        b = remove_tautologies(
            random_clausal_base(rng, rng.randint(1, 5), rng.randint(1, 9))
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
        for rng, b in kernel_bases(37, 300):
            for var in b.variables:
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
            table = {
                (assignment, polarity): conditional_possibility(
                    b,
                    Literal(var, polarity),
                    [Literal(p, v) for p, v in zip(parents, assignment)],
                )
                for assignment in product((False, True), repeat=len(parents))
                for polarity in (False, True)
            }
            assert cpt_for(b, var, parents) == CPT(var, parents, table), (
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

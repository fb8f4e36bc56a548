import random
from fractions import Fraction

import pytest

from posslog import (
    Clause,
    DomainError,
    Interpretation,
    Literal,
    Var,
    WeightedBase,
    decompose_check,
    distribution_of_base,
    instantiate,
    marginal_base,
    marginalize,
    negate,
    semantics,
    unit,
)

import clause_reference
from helpers import (
    SE,
    SU,
    WI,
    X,
    Y,
    clause,
    neg,
    pos,
    random_clausal_base,
    random_messy_base,
    random_planted_base,
)

F = Fraction


class TestInstantiate:
    def test_positive_value(self, weather):
        out = instantiate(weather, pos(SE))
        assert sorted(out.entries, key=str) == sorted(
            [(clause(pos(SU), neg(WI)), F(2, 3)), (clause(pos(WI)), F(1, 3))], key=str
        )
        assert out.variables == (SU, WI)

    def test_negative_value(self, weather):
        out = instantiate(weather, neg(SE))
        assert sorted(out.entries, key=str) == sorted(
            [
                (clause(pos(SU), neg(WI)), F(2, 3)),
                (clause(neg(WI)), F(1, 3)),
                (clause(pos(SU)), F(1, 3)),
            ],
            key=str,
        )

    def test_variable_absent_from_universe(self, weather):
        assert instantiate(weather, pos(Var("other"))) == weather

    def test_unused_variable_only_shrinks_universe(self):
        b = WeightedBase([(clause(pos(X)), F(1, 2))], (X, Y))
        out = instantiate(b, pos(Y))
        assert out.entries == b.entries
        assert out.variables == (X,)

    def test_conflict_leaves_weighted_empty_clause(self):
        b = WeightedBase([(clause(pos(X)), F(2, 5))], (X,))
        out = instantiate(b, neg(X))
        assert out.entries == ((Clause(), F(2, 5)),)

    def test_restriction_semantics(self):
        # adding the literal as a hard fact restricts the distribution to
        # its models and zeroes the rest
        rng = random.Random(3)
        for _ in range(40):
            b = random_clausal_base(rng, rng.randint(2, 4), rng.randint(1, 7))
            lit = Literal(rng.choice(b.variables), rng.random() < 0.5)
            restricted = distribution_of_base(b.extended([(unit(lit), F(1))]))
            full = distribution_of_base(b)
            for w, val in full.items():
                expected = val if w.value(lit.var) == lit.positive else F(0)
                assert restricted[w] == expected

    def test_reduced_distribution_matches_extension(self):
        # the instantiated base, over the smaller universe, assigns each
        # world the degree the original base gave to its extension by the
        # chosen literal
        rng = random.Random(29)
        for _ in range(40):
            b = random_clausal_base(rng, rng.randint(2, 4), rng.randint(1, 7))
            var = rng.choice(b.variables)
            lit = Literal(var, rng.random() < 0.5)
            reduced = distribution_of_base(instantiate(b, lit))
            full = distribution_of_base(b)
            for w, val in reduced.items():
                extended = Interpretation.from_assignment(
                    b.variables, {**w.as_dict(), var: lit.positive}
                )
                assert val == full[extended]

    def test_several_literals_equal_one_at_a_time(self):
        # literals may repeat a variable or lie outside the universe; each
        # such literal is skipped, exactly as a one-literal call skips it
        rng = random.Random(53)
        for _ in range(100):
            b = random_clausal_base(rng, rng.randint(1, 5), rng.randint(1, 8))
            choices = b.variables + (Var("outside"),)
            literals = [
                Literal(rng.choice(choices), rng.random() < 0.5)
                for _ in range(rng.randint(2, 3))
            ]
            one_at_a_time = b
            for lit in literals:
                one_at_a_time = instantiate(one_at_a_time, lit)
            assert instantiate(b, *literals) == one_at_a_time


class TestMarginalBase:
    def test_weather_marginal_distribution(self, weather):
        out = marginal_base(weather, SE)
        d = distribution_of_base(out)
        expected = {
            (True, False): F(1),
            (True, True): F(1),
            (False, False): F(2, 3),
            (False, True): F(1, 3),
        }
        for values, degree in expected.items():
            assert d[Interpretation((SU, WI), values)] == degree

    def test_second_elimination(self):
        b = WeightedBase(
            [(clause(pos(SU)), F(1, 3)), (clause(pos(SU), neg(WI)), F(2, 3))],
            (SU, WI),
        )
        out = marginal_base(b, WI)
        d = distribution_of_base(out)
        assert d[Interpretation((SU,), (True,))] == F(1)
        assert d[Interpretation((SU,), (False,))] == F(2, 3)

    def test_unmentioned_variable_is_semantic_noop(self):
        b = WeightedBase([(clause(pos(X)), F(1, 2))], (X, Y))
        out = marginal_base(b, Y)
        assert out.variables == (X,)
        d = distribution_of_base(out)
        assert d[Interpretation((X,), (True,))] == F(1)
        assert d[Interpretation((X,), (False,))] == F(1, 2)

    def test_unknown_variable_rejected(self, weather):
        with pytest.raises(DomainError):
            marginal_base(weather, Var("nowhere"))

    def test_matches_max_marginal(self):
        rng = random.Random(37)
        for _ in range(50):
            b = random_clausal_base(rng, rng.randint(2, 5), rng.randint(1, 9))
            var = rng.choice(b.variables)
            out = marginal_base(b, var)
            assert var not in out.variables
            full = distribution_of_base(b)
            got = distribution_of_base(out)
            for w, val in got.items():
                both = [
                    full[
                        Interpretation.from_assignment(
                            b.variables, {**w.as_dict(), var: value}
                        )
                    ]
                    for value in (False, True)
                ]
                assert val == max(both)


class TestMatchesClauseReference:
    """Integer clauses give the same entries, in the same order, over the
    same universe as the `Clause`-level reference."""

    @staticmethod
    def assert_answers_as_rebuilt(got, var):
        # Weight levels over a codec that still spans `var`, which no clause
        # of `got` mentions, answer as the levels of `got`'s own codec do.
        codec, entries, weights = semantics._encoded(got, "test")
        wide = semantics._ClauseBits({var, *codec.pairs})
        spanning = semantics._Levels(
            wide,
            [(wide.encode(c), r) for (c, _), (_, r) in zip(got.entries, entries)],
            weights,
        )
        own = semantics._levels(got, "test")
        x = Literal(var, True)
        contexts = [(), (x,), (negate(x),), (x, negate(x))]
        contexts += [(x, Literal(v, False)) for v in got.variables[:2]]
        for context in contexts:
            assert spanning.inconsistency(context) == own.inconsistency(context)
        parents = got.variables[:2]
        assert list(spanning.column_levels(var, parents)) == list(
            own.column_levels(var, parents)
        )

    def test_instantiate(self, solver_path):
        rng = random.Random(61)
        for _ in range(300):
            b = random_messy_base(rng)
            choices = b.variables + (Var("outside"),)
            literals = [
                Literal(rng.choice(choices), rng.random() < 0.5)
                for _ in range(rng.randint(1, 3))
            ]
            got = instantiate(b, *literals)
            want = clause_reference.instantiate(b, *literals)
            assert (got.entries, got.variables) == (want.entries, want.variables), b
            self.assert_answers_as_rebuilt(got, literals[0].var)

    def test_marginal_base(self, solver_path):
        # Messy bases, then clause-heavy planted ones.
        rng = random.Random(67)
        for k in range(320):
            b = random_messy_base(rng) if k < 300 else random_planted_base(rng)
            var = rng.choice(b.variables)
            got = marginal_base(b, var)
            want = clause_reference.marginal_base(b, var)
            assert (got.entries, got.variables) == (want.entries, want.variables), b
            self.assert_answers_as_rebuilt(got, var)


class TestSideModelMerge:
    """`_marginal` merges the cross product itself and builds each pair's
    models from its sides'; its entries are `_reduce`'s on the explicit
    cross product, order included."""

    def test_matches_reduce_of_the_cross_product(self, solver_path):
        rng = random.Random(71)
        seen = set()
        for k in range(400):
            if k % 3 == 0:
                b = random_planted_base(rng)
            elif k % 3 == 1:
                b = random_messy_base(rng)
            else:
                b = random_clausal_base(rng, rng.randint(1, 6), rng.randint(0, 12))
            codec, entries, _ = semantics._encoded(b, "test")
            var = rng.choice(b.variables)
            x, not_x = codec.bit(Literal(var, True)), codec.bit(Literal(var, False))
            pos = [(c & ~not_x, r) for c, r in entries if not c & x]
            neg = [(c & ~x, r) for c, r in entries if not c & not_x]
            cross = [(c1 | c2, min(r1, r2)) for c1, r1 in pos for c2, r2 in neg]
            assert marginalize._marginal(codec, entries, var) == (
                semantics._reduce(cross),
                len(cross),
            ), b
            ranks: dict[int, set[int]] = {}
            for c, r in cross:
                ranks.setdefault(c, set()).add(r)
            if not pos or not neg:
                seen.add("empty side")
            if any(len(rs) > 1 for rs in ranks.values()):
                seen.add("duplicate pair at another rank")
            if any(c & semantics._negations(c) for c in ranks):
                seen.add("tautological pair")
            if 0 in ranks:
                seen.add("empty clause")
        assert seen == {
            "empty side", "duplicate pair at another rank", "tautological pair", "empty clause"
        }


class TestDecomposeCheck:
    def test_weather_restrictions(self, weather):
        pos_d, neg_d = decompose_check(weather, SE)
        by_world = {
            (True, False, True): F(2, 3),
            (True, True, True): F(1),
            (False, False, True): F(2, 3),
            (False, True, True): F(1, 3),
        }
        for w, val in pos_d.items():
            key = tuple(w.values)
            assert val == by_world.get(key, F(0))
        neg_expected = {
            (True, False, False): F(1),
            (True, True, False): F(2, 3),
            (False, False, False): F(2, 3),
            (False, True, False): F(1, 3),
        }
        for w, val in neg_d.items():
            assert val == neg_expected.get(tuple(w.values), F(0))

    def test_empty_base_gives_indicators(self):
        b = WeightedBase((), (X, Y))
        pos_d, neg_d = decompose_check(b, X)
        for w, val in pos_d.items():
            assert val == (F(1) if w.value(X) else F(0))
        for w, val in neg_d.items():
            assert val == (F(0) if w.value(X) else F(1))

    def test_max_recomposes_distribution(self, weather):
        pos_d, neg_d = decompose_check(weather, SE)
        full = distribution_of_base(weather)
        for w, val in full.items():
            assert val == max(pos_d[w], neg_d[w])

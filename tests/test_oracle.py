import random
from fractions import Fraction

import pytest

from posslog import (
    CPT,
    DomainError,
    Distribution,
    GenerationError,
    Interpretation,
    Network,
    ResourceCapError,
    Var,
    WeightedBase,
    compile_network,
    distribution_of_base,
    distributions_equal,
    enumerate_distribution,
    random_base,
    verify_compilation,
)

from helpers import (
    SE,
    SU,
    WI,
    WEATHER_VALUES,
    WEATHER_WORLDS,
    X,
    random_clausal_base,
    random_formula,
)

F = Fraction


def all_ones_network(variables):
    return Network([CPT(v, (), [F(1)], [F(1)]) for v in variables])


class TestEnumerateDistribution:
    def test_weather_golden(self, weather):
        d = enumerate_distribution(weather)
        for values, expected in zip(WEATHER_WORLDS, WEATHER_VALUES):
            assert d[Interpretation((SU, WI, SE), values)] == expected

    def test_empty_base(self):
        d = enumerate_distribution(WeightedBase((), (X,)))
        assert set(d.values) == {F(1)}

    def test_cap(self):
        wide = WeightedBase((), tuple(Var(f"w{i}") for i in range(21)))
        with pytest.raises(ResourceCapError):
            enumerate_distribution(wide)

    def test_agrees_with_semantics_on_random_bases(self):
        rng = random.Random(71)
        for i in range(300):
            b = random_clausal_base(rng, rng.randint(1, 5), rng.randint(0, 9))
            if i % 3 == 0:
                extra = [
                    (random_formula(rng, b.variables), F(rng.randint(1, 4), 4))
                    for _ in range(rng.randint(1, 2))
                ]
                b = b.extended(extra)
            assert enumerate_distribution(b) == distribution_of_base(b)


class TestDistributionsEqual:
    def test_identity(self, weather):
        d = enumerate_distribution(weather)
        assert distributions_equal(d, d)

    def test_reordered_universe(self, weather):
        d1 = enumerate_distribution(weather)
        reordered = WeightedBase(weather.entries, (SE, WI, SU))
        d2 = enumerate_distribution(reordered)
        assert d1.universe != d2.universe
        assert distributions_equal(d1, d2)

    def test_single_point_perturbation(self, weather):
        d = enumerate_distribution(weather)
        tweaked = list(d.values)
        tweaked[6] = F(1, 2)
        assert not distributions_equal(d, Distribution(d.universe, tweaked))

    def test_universe_mismatch(self):
        d1 = Distribution((X,), (F(1), F(1)))
        d2 = Distribution((SU,), (F(1), F(1)))
        with pytest.raises(DomainError):
            distributions_equal(d1, d2)


class TestVerifyCompilation:
    def test_compiled_network_passes(self, weather):
        net = compile_network(weather, (SE, WI, SU))
        assert verify_compilation(weather, net).ok

    def test_all_ones_network_fails_on_six_worlds(self, weather):
        report = verify_compilation(weather, all_ones_network((SU, WI, SE)))
        assert not report.ok
        assert len(report.mismatches) == 6
        assert all(m.network_value == 1 for m in report.mismatches)

    def test_empty_base_vs_all_ones(self):
        b = WeightedBase((), (X,))
        assert verify_compilation(b, all_ones_network((X,))).ok

    def test_universe_mismatch(self, weather):
        with pytest.raises(DomainError):
            verify_compilation(weather, all_ones_network((X,)))


class TestRandomBase:
    def test_deterministic(self):
        assert random_base(42, 4, 6) == random_base(42, 4, 6)

    def test_consistent_by_construction(self):
        for seed in range(25):
            b = random_base(seed, 4, 6)
            assert enumerate_distribution(b).is_normalized

    def test_weight_pool_respected(self):
        pool = (F(1, 3), F(2, 3))
        b = random_base(7, 4, 8, weight_pool=pool)
        assert {w for _, w in b.entries} <= set(pool)

    @pytest.mark.parametrize(
        "pool, message",
        [
            ((F(0),), "weight 0 outside (0, 1]"),
            ((F(1, 2), "0"), "weight 0 outside (0, 1]"),
            ((F(3, 2),), "weight 3/2 outside [0, 1]"),
        ],
    )
    def test_weight_outside_the_grammar_refused(self, pool, message):
        # A weight-0 entry would vanish from the base, and the base grammar
        # refuses to read one.
        with pytest.raises(DomainError) as caught:
            random_base(1, 3, 3, weight_pool=pool)
        assert str(caught.value) == message

    def test_requires_positive_variable_count(self):
        with pytest.raises(DomainError):
            random_base(1, 0, 3)

    def test_universe_over_cap_refused_before_building(self):
        # Building a billion variables would exhaust memory; the refusal
        # reads as the consistency check's own.
        with pytest.raises(ResourceCapError) as caught:
            random_base(1, 10**9, 1)
        assert str(caught.value) == "1000000000 variables exceed the enumeration cap of 20"

    def test_retries_exhausted(self):
        # one variable, many unit clauses and only hard weights: every
        # attempt contains both polarities and is inconsistent
        with pytest.raises(GenerationError):
            random_base(0, 1, 20, weight_pool=(F(1),))

    def test_inconsistent_allowed_when_requested(self):
        b = random_base(0, 1, 20, weight_pool=(F(1),), require_consistent=False)
        assert not enumerate_distribution(b).is_normalized

import pickle
import random
from fractions import Fraction
from itertools import product

import pytest

from posslog import (
    CPT,
    DomainError,
    Interpretation,
    Network,
    NetworkSchemaError,
    chain_rule_eval,
    check_normalization,
    compile_network,
    network_distribution,
)

from helpers import SE, SU, WI, X, Y, weather_base

F = Fraction


def all_ones_cpt(var, parents=()):
    table = {}
    n = len(parents)
    for i in range(1 << n):
        assignment = tuple(bool((i >> (n - 1 - j)) & 1) for j in range(n))
        table[(assignment, True)] = F(1)
        table[(assignment, False)] = F(1)
    return CPT(var, parents, table)


@pytest.fixture(scope="module")
def weather_net():
    return compile_network(weather_base(), (SE, WI, SU))


class TestCPT:
    def test_requires_all_cells(self):
        with pytest.raises(DomainError):
            CPT(X, (Y,), {((True,), True): F(1)})
        # Enough pairs, but one cell given twice and another not at all.
        pairs = [(((a,), p), F(1)) for a in (False, True) for p in (False, True)]
        with pytest.raises(DomainError):
            CPT(X, (Y,), pairs[:-1] + pairs[:1])

    def test_requires_one_value_per_parent(self):
        # The right number of distinct cells, but two of them assign no
        # parent and two assign two values to the single parent.
        table = {
            ((), False): F(1),
            ((), True): F(1),
            ((True, True), False): F(1),
            ((True, True), True): F(1),
        }
        with pytest.raises(DomainError):
            CPT(X, (Y,), table)

    def test_rejects_self_parent(self):
        with pytest.raises(DomainError):
            CPT(X, (X,), {})

    def test_rejects_duplicate_parent(self):
        with pytest.raises(DomainError):
            CPT(X, (Y, Y), {})

    def test_cell_lookup(self):
        cpt = all_ones_cpt(X, (Y,))
        assert cpt.cell((True,), False) == 1
        for assignment in ((True, False), ()):
            with pytest.raises(DomainError):
                cpt.cell(assignment, True)

    def test_cells_are_canonically_ordered(self):
        cpt = all_ones_cpt(X, (Y,))
        keys = [(a, p) for a, p, _ in cpt.cells]
        assert keys == [
            ((False,), False),
            ((False,), True),
            ((True,), False),
            ((True,), True),
        ]


class TestCPTValue:
    """Tables and networks are values: equal ones compare, hash and pickle
    alike, however they were built."""

    def test_equality_hash_and_pickle(self, weather_net):
        for value in (weather_net, *weather_net.nodes):
            copy = pickle.loads(pickle.dumps(value))
            assert copy is not value
            assert copy == value and hash(copy) == hash(value)
        rebuilt = compile_network(weather_base(), (SE, WI, SU))
        assert rebuilt == weather_net and hash(rebuilt) == hash(weather_net)
        se, wi, su = weather_net.nodes
        assert len({se, wi, su, *rebuilt.nodes}) == 3
        assert Network([su]) != Network([CPT(SU, (), {((), True): 1, ((), False): 1})])

    def test_mapping_built_table_equals_compiled_one(self, weather_net):
        rng = random.Random(5)
        for cpt in weather_net.nodes:
            pairs = [((assignment, p), w) for assignment, p, w in cpt.cells]
            rng.shuffle(pairs)
            for table in (dict(pairs), pairs, iter(pairs)):
                built = CPT(cpt.var, cpt.parents, table)
                assert built == cpt and hash(built) == hash(cpt)
            (key, w), *rest = pairs
            assert CPT(cpt.var, cpt.parents, [(key, w / 2), *rest]) != cpt

    def test_cells_are_the_columns_in_order(self, weather_net):
        for cpt in weather_net.nodes:
            assignments = list(product((False, True), repeat=len(cpt.parents)))
            assert [a for a, _, _ in cpt.columns()] == assignments
            assert list(cpt.cells) == [
                (a, polarity, w)
                for a, neg, pos in cpt.columns()
                for polarity, w in ((False, neg), (True, pos))
            ]
            for a, polarity, w in cpt.cells:
                assert cpt.cell(a, polarity) == w
            with pytest.raises(AttributeError):
                cpt.cells = ()


class TestNetworkStructure:
    def test_unknown_parent(self):
        with pytest.raises(NetworkSchemaError):
            Network([all_ones_cpt(X, (Y,))])

    def test_duplicate_node(self):
        with pytest.raises(NetworkSchemaError):
            Network([all_ones_cpt(X), all_ones_cpt(X)])

    def test_cycle_detected(self):
        with pytest.raises(NetworkSchemaError):
            Network([all_ones_cpt(X, (Y,)), all_ones_cpt(Y, (X,))])

    def test_node_lookup(self, weather_net):
        assert weather_net.node_for(WI).parents == (SU,)
        with pytest.raises(DomainError):
            weather_net.node_for(X)


class TestChainRule:
    def test_windy_dark_world(self, weather_net):
        w = Interpretation((SU, WI, SE), (False, True, False))
        assert chain_rule_eval(weather_net, w) == F(1, 3)

    def test_fully_satisfied_world(self, weather_net):
        w = Interpretation((SU, WI, SE), (True, True, True))
        assert chain_rule_eval(weather_net, w) == 1

    def test_all_ones_network(self):
        net = Network([all_ones_cpt(X), all_ones_cpt(Y)])
        for w in (
            Interpretation((X, Y), (False, False)),
            Interpretation((X, Y), (True, False)),
        ):
            assert chain_rule_eval(net, w) == 1

    def test_factor_order_does_not_matter(self, weather_net):
        shuffled = Network(tuple(reversed(weather_net.nodes)))
        for w in [
            Interpretation((SU, WI, SE), values)
            for values in ((False, True, False), (True, True, True), (False, False, True))
        ]:
            assert chain_rule_eval(shuffled, w) == chain_rule_eval(weather_net, w)


class TestNetworkDistribution:
    def test_single_root_two_point(self):
        cpt = CPT(X, (), {((), True): F(1), ((), False): F(2, 3)})
        d = network_distribution(Network([cpt]))
        assert d[Interpretation((X,), (True,))] == 1
        assert d[Interpretation((X,), (False,))] == F(2, 3)

    def test_compiled_network_is_normalized(self, weather_net):
        assert network_distribution(weather_net).is_normalized


class TestCheckNormalization:
    def test_clean_network(self, weather_net):
        assert check_normalization(weather_net) == ()

    def test_violation_reported(self):
        cpt = CPT(X, (), {((), True): F(1, 2), ((), False): F(2, 3)})
        violations = check_normalization(Network([cpt]))
        assert len(violations) == 1
        assert violations[0].var == X
        assert violations[0].maximum == F(2, 3)

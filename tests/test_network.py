import pickle
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

from helpers import SE, SU, WI, X, Y, assert_value_type, weather_base

F = Fraction


def all_ones_cpt(var, parents=()):
    ones = [F(1)] * (1 << len(parents))
    return CPT(var, parents, ones, ones)


@pytest.fixture(scope="module")
def weather_net():
    return compile_network(weather_base(), (SE, WI, SU))


class TestCPT:
    def test_requires_all_cells(self):
        # Each column holds one degree per parent assignment: 2 for one parent.
        for neg, pos in (([F(1)], [F(1), F(1)]), ([F(1)] * 3, [F(1)] * 3), ([], [])):
            with pytest.raises(DomainError):
                CPT(X, (Y,), neg, pos)

    def test_rejects_self_parent(self):
        with pytest.raises(DomainError):
            CPT(X, (X,), [F(1)] * 2, [F(1)] * 2)

    def test_rejects_duplicate_parent(self):
        with pytest.raises(DomainError):
            CPT(X, (Y, Y), [F(1)] * 4, [F(1)] * 4)

    def test_reads_degrees_as_weights(self):
        cpt = CPT(X, (), ["2/3"], [1])
        assert cpt.neg == (F(2, 3),) and cpt.pos == (F(1),)
        assert all(type(w) is Fraction for w in (*cpt.neg, *cpt.pos))
        for bad in (0.5, "3/2"):
            with pytest.raises(DomainError):
                CPT(X, (), [bad], [F(1)])

    def test_stores_tuples(self):
        listed = CPT(X, [Y], [F(1), F(1, 2)], [F(1, 3), F(1)])
        tupled = CPT(X, (Y,), (F(1), F(1, 2)), (F(1, 3), F(1)))
        assert (listed.parents, listed.neg, listed.pos) == (
            (Y,),
            (F(1), F(1, 2)),
            (F(1, 3), F(1)),
        )
        assert listed == tupled and hash(listed) == hash(tupled)
        assert CPT(X, (Y,), (F(1), F(1, 2)), (F(1, 3), F(1, 2))) != tupled

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
        assert Network([su]) != Network([CPT(SU, (), [1], [1])])
        for cpt in weather_net.nodes:
            columns = {"neg": cpt.neg, "pos": cpt.pos}
            assert_value_type(CPT, {"var": cpt.var, "parents": cpt.parents, **columns})
        assert_value_type(Network, {"nodes": weather_net.nodes})

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
        cpt = CPT(X, (), [F(2, 3)], [F(1)])
        d = network_distribution(Network([cpt]))
        assert d[Interpretation((X,), (True,))] == 1
        assert d[Interpretation((X,), (False,))] == F(2, 3)

    def test_compiled_network_is_normalized(self, weather_net):
        assert network_distribution(weather_net).is_normalized


class TestCheckNormalization:
    def test_clean_network(self, weather_net):
        assert check_normalization(weather_net) == ()

    def test_violation_reported(self):
        cpt = CPT(X, (), [F(2, 3)], [F(1, 2)])
        violations = check_normalization(Network([cpt]))
        assert len(violations) == 1
        assert violations[0].var == X
        assert violations[0].maximum == F(2, 3)

import pickle
import random
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from posslog import (
    And,
    Clause,
    Const,
    Distribution,
    DomainError,
    Interpretation,
    Literal,
    Not,
    Or,
    ResourceCapError,
    Var,
    WeightedBase,
    as_weight,
    certainty_degree,
    cnf_clauses,
    inconsistency_degree,
    interpretations,
    marginal_base,
    negate,
    satisfies,
    vars_of,
)

from posslog import CPT, model, oracle
from posslog.compiler import Ordering, StageSummary
from posslog.network import NormalizationViolation
from posslog.oracle import Mismatch, VerificationReport

from helpers import (
    SE,
    SU,
    WI,
    X,
    Y,
    assert_value_type,
    clause,
    neg,
    pos,
    random_formula,
)

F = Fraction


class TestVar:
    def test_valid_names(self):
        for name in ("a", "su", "A_1", "x9", "Zz_Zz"):
            assert Var(name).name == name

    # The base grammar reserves `true`, `false` and `vars`, so a base over
    # such a variable could not be written out and read back. A name that
    # is not a `str` is refused as invalid too, not with `re`'s TypeError.
    @pytest.mark.parametrize(
        "name", ["", "1a", "a-b", "a b", "_x", "!", "true", "false", "vars", 3, None]
    )
    def test_invalid_names(self, name):
        with pytest.raises(DomainError, match="invalid variable name"):
            Var(name)

    def test_value_semantics(self):
        assert_value_type(Var, {"name": "a"})
        assert Var("a") != Var("b")
        assert repr(Var("a")) == "Var(name='a')"
        assert sorted([Var("b"), Var("a10"), Var("a2")]) == [
            Var("a10"),
            Var("a2"),
            Var("b"),
        ]


class TestLiteral:
    def test_negate_flips_polarity(self):
        assert negate(pos(SE)) == neg(SE)
        assert negate(neg(SE)) == pos(SE)

    def test_negate_is_involution(self):
        assert negate(negate(pos(WI))) == pos(WI)

    def test_rendering(self):
        assert str(pos(SU)) == "su"
        assert str(neg(SU)) == "!su"

    def test_value_semantics(self):
        assert_value_type(Literal, {"var": X, "positive": False})
        assert Literal(X) == pos(X) != neg(X)
        assert repr(neg(X)) == "Literal(var=Var(name='x'), positive=False)"

    def test_order_by_name_then_false_first(self):
        lits = [pos(Y), neg(X), pos(SU), neg(Y), pos(X), neg(SU)]
        assert sorted(lits) == [neg(SU), pos(SU), neg(X), pos(X), neg(Y), pos(Y)]


# Each value type besides `Var`, `Literal`, `CPT` and `Network`, and its
# fields in constructor order.
VALUE_CASES = [
    (Clause, {"literals": frozenset({pos(X), neg(Y)})}),
    (Const, {"value": False}),
    (Not, {"operand": pos(X)}),
    (And, {"parts": (pos(X), neg(Y))}),
    (Or, {"parts": (pos(X), neg(Y))}),
    (Interpretation, {"universe": (X, Y), "values": (True, False)}),
    (WeightedBase, {"entries": ((clause(pos(X)), F(1, 2)),), "variables": (X, Y)}),
    (Distribution, {"universe": (X,), "values": (F(1), F(1, 3))}),
    (NormalizationViolation, {"var": X, "assignment": (True,), "maximum": F(1, 2)}),
    (Ordering, {"sequence": (Y, X)}),
    (
        Mismatch,
        {
            "world": Interpretation((X,), (True,)),
            "base_value": F(1),
            "network_value": F(1, 2),
        },
    ),
    (VerificationReport, {"mismatches": ()}),
]


class TestValueTypes:
    """The value types besides `Var`, `Literal`, `CPT` and `Network`
    (see `TestVar`, `TestLiteral` and `test_network.TestCPTValue`)."""

    @pytest.mark.parametrize(
        "cls, fields", VALUE_CASES, ids=[cls.__name__ for cls, _ in VALUE_CASES]
    )
    def test_value_semantics(self, cls, fields):
        assert_value_type(cls, fields)

    def test_stage_summary_timings_take_no_part_in_equality(self):
        cpt = CPT(X, (), [F(1)], [F(1, 2)])
        fields = {
            "index": 0,
            "stage_entries": 2,
            "cpt": cpt,
            "marginal_entries": 1,
            "cross_clauses": 1,
            "closure_s": 0.25,
            "cpt_s": 0.5,
            "marginal_s": 0.125,
        }
        assert_value_type(StageSummary, fields, compared=5)
        summary = StageSummary(**fields)
        later = StageSummary(*list(fields.values())[:5], 1.0, 2.0, 3.0)
        assert later == summary and hash(later) == hash(summary)
        assert StageSummary(1, *list(fields.values())[1:]) != summary

    def test_equality_is_per_class(self):
        parts = (pos(X), neg(Y))
        assert And(parts) != Or(parts)
        assert Not(Const(True)) != Not(Const(False))
        assert Interpretation((X,), (True,)) != Distribution((X,), (1, 1))
        assert repr(And(parts)) == f"And(parts={parts!r})"


class TestClause:
    def test_set_semantics(self):
        c = Clause([pos(X), pos(X), neg(Y)])
        assert len(c) == 2

    def test_refuses_a_bare_literal(self):
        with pytest.raises(TypeError):
            Clause(pos(X))

    def test_tautology(self):
        assert clause(pos(X), neg(X), pos(Y)).is_tautology
        assert not clause(pos(X), pos(Y)).is_tautology

    def test_empty_clause_is_unsatisfiable(self):
        empty = Clause()
        for w in interpretations((X, Y)):
            assert not satisfies(w, empty)

    def test_union_and_without(self):
        c = clause(pos(X)).union(clause(neg(Y)))
        assert set(c.literals) == {pos(X), neg(Y)}

    def test_iteration_is_sorted(self):
        c = Clause([pos(Y), neg(X), pos(X)])
        assert list(c) == sorted(c.literals)

    def test_tautology_iff_satisfied_everywhere(self):
        rng = random.Random(47)
        universe = (Var("p"), Var("q"), Var("r"))
        for _ in range(80):
            lits = [
                Literal(rng.choice(universe), rng.random() < 0.5)
                for _ in range(rng.randint(1, 5))
            ]
            c = Clause(lits)
            everywhere = all(satisfies(w, c) for w in interpretations(universe))
            assert c.is_tautology == everywhere


class TestWeights:
    def test_as_weight_parses_exactly(self):
        assert as_weight(".4") == F(2, 5)
        assert as_weight("2/3") == F(2, 3)
        assert as_weight(1) == 1

    def test_floats_rejected(self):
        with pytest.raises(DomainError):
            as_weight(0.4)

    @pytest.mark.parametrize("bad", ["-1/2", "7/5", "2"])
    def test_out_of_range(self, bad):
        with pytest.raises(DomainError):
            as_weight(bad)

    @pytest.mark.parametrize("bad", [F(3, 2), "3/2", F(-1), "-1", -1])
    @pytest.mark.parametrize("build", ["cpt-neg", "cpt-pos", "distribution", "base"])
    def test_every_constructor_checks_the_range(self, build, bad):
        # A Fraction is not exempt: it is range-checked as a string is,
        # also after a run of one shared degree object.
        half = F(1, 2)
        constructors = {
            "cpt-neg": lambda w: CPT(X, (Y, SU), [half, half, w, half], [F(1)] * 4),
            "cpt-pos": lambda w: CPT(X, (), [F(1)], [w]),
            "distribution": lambda w: Distribution((X, Y), [F(1), half, half, w]),
            "base": lambda w: WeightedBase([(clause(pos(X)), w)]),
        }
        with pytest.raises(DomainError, match="outside"):
            constructors[build](bad)

    @pytest.mark.parametrize("bad", ["Infinity", "-Infinity", "NaN", "sNaN"])
    def test_non_finite_decimals_rejected(self, bad):
        with pytest.raises(DomainError, match="cannot interpret"):
            as_weight(Decimal(bad))
        with pytest.raises(DomainError, match="cannot interpret"):
            WeightedBase([(clause(pos(X)), Decimal(bad))])

    @pytest.mark.parametrize("bad", ["1e-999999", "1E-9", "5e-1", " 2e0 "])
    def test_exponent_rejected(self, bad):
        # Fraction("1e-999999") alone takes a quarter of a second, and the
        # cost grows with the exponent's digits, so no exponent is read.
        with pytest.raises(DomainError, match="exponent"):
            as_weight(bad)

    def test_arithmetic_is_exact(self):
        rng = random.Random(7)
        for _ in range(200):
            a = F(rng.randint(0, 30), 30)
            b = F(rng.randint(0, 30), 30)
            assert 1 - (1 - a) == a
            assert min(a, b) + max(a, b) == a + b
            assert a * b <= min(a, b)


class TestSatisfies:
    def test_weather_goal(self):
        w = Interpretation((SU, WI, SE), (True, False, False))
        assert satisfies(w, clause(pos(SU), neg(WI)))

    def test_tautology_always_holds(self):
        for w in interpretations((X,)):
            assert satisfies(w, clause(pos(X), neg(X)))

    def test_falsified_goal(self):
        w = Interpretation((SU, WI, SE), (False, True, False))
        assert not satisfies(w, clause(pos(SU), neg(WI)))

    def test_variable_outside_universe(self):
        w = Interpretation((X,), (True,))
        with pytest.raises(DomainError):
            satisfies(w, pos(Y))

    def test_clause_holds_iff_some_literal_holds(self):
        rng = random.Random(13)
        universe = (Var("p"), Var("q"), Var("r"), Var("s"))
        for _ in range(100):
            lits = [
                Literal(rng.choice(universe), rng.random() < 0.5)
                for _ in range(rng.randint(0, 4))
            ]
            c = Clause(lits)
            for w in interpretations(universe):
                expected = any(satisfies(w, l) for l in c.literals)
                assert satisfies(w, c) == expected

    def test_matches_the_oracle_evaluator(self):
        """`satisfies` agrees with the oracle's independent evaluator on
        random formula trees and clauses, and a tree holding a clause, in
        every world of 1-5 variables."""
        rng = random.Random(29)
        for n in range(1, 6):
            universe = tuple(Var(f"v{i}") for i in range(n))
            for _ in range(40):
                f = random_formula(rng, universe)
                c = Clause(
                    Literal(rng.choice(universe), rng.random() < 0.5)
                    for _ in range(rng.randint(0, 4))
                )
                for g in (f, c, Not(And((c, f)))):
                    for w in interpretations(universe):
                        assert satisfies(w, g) == oracle._holds(g, w.as_dict())


def dnf(k):  # (a0 & b0) | ... | (a{k-1} & b{k-1}): expands to 2**k clauses
    return Or(tuple(And((pos(Var(f"a{i}")), pos(Var(f"b{i}")))) for i in range(k)))


def subset_scan(f):
    """The expansion pruned by a scan over every clause kept so far."""
    kept = []
    for c in model._cnf(f, False):
        if any(negate(l) in c.literals for l in c.literals):
            continue
        if any(k.literals <= c.literals for k in kept):
            continue
        kept = [k for k in kept if not c.literals <= k.literals]
        kept.append(c)
    return tuple(kept)


class TestFormulas:
    def test_vars_of(self):
        f = And((Or((pos(X), Not(neg(Y)))), Const(True)))
        assert vars_of(f) == frozenset({X, Y})

    def test_cnf_preserves_truth(self):
        rng = random.Random(31)
        universe = (Var("p"), Var("q"), Var("r"))
        for _ in range(150):
            f = random_formula(rng, universe)
            clauses = cnf_clauses(f)
            assert all(vars_of(c) <= vars_of(f) for c in clauses)
            for w in interpretations(universe):
                assert satisfies(w, f) == all(satisfies(w, c) for c in clauses)

    def test_cnf_of_conjunction_splits(self):
        assert set(cnf_clauses(And((pos(X), pos(Y))))) == {
            clause(pos(X)),
            clause(pos(Y)),
        }

    def test_cnf_of_false_constant_is_empty_clause(self):
        assert cnf_clauses(Const(False)) == (Clause(),)
        assert set(cnf_clauses(And((pos(X), neg(X))))) == {
            clause(pos(X)),
            clause(neg(X)),
        }

    def test_prune_equals_subset_scan(self):
        # Same clauses in the same order.
        rng = random.Random(43)
        universe = tuple(Var(name) for name in "pqrs")
        for _ in range(400):
            f = random_formula(rng, universe, depth=rng.randint(1, 4))
            assert cnf_clauses(f) == subset_scan(f), f
        # DNFs whose terms share variables, so that clauses of every length
        # subsume one another.
        for _ in range(100):
            terms = []
            for _ in range(rng.randint(1, 6)):
                chosen = rng.sample(universe, rng.randint(1, 3))
                terms.append(And(tuple(Literal(v, rng.random() < 0.7) for v in chosen)))
            f = Or(tuple(terms))
            assert cnf_clauses(f) == subset_scan(f), f
        for k in range(1, 9):
            assert cnf_clauses(dnf(k)) == subset_scan(dnf(k))

    def test_twelve_term_dnf_prunes_fast(self):
        # 4,096 clauses of 12 literals, none subsuming another: a quadratic
        # scan takes more than a second.
        times = []
        for _ in range(3):
            start = time.perf_counter()
            assert len(cnf_clauses(dnf(12))) == 4096
            times.append(time.perf_counter() - start)
        assert min(times) < 0.2

    def test_cnf_of_tautology_is_empty(self):
        assert cnf_clauses(Or((pos(X), neg(X)))) == ()

    def test_cnf_expansion_cap(self, monkeypatch):
        monkeypatch.setattr(model, "MAX_CNF_CLAUSES", 8)
        assert len(cnf_clauses(dnf(3))) == 8
        with pytest.raises(ResourceCapError, match="16 clauses"):
            cnf_clauses(dnf(4))
        # A conjunction of expansions is held to the cap as a whole.
        with pytest.raises(ResourceCapError, match="9 clauses"):
            cnf_clauses(And((dnf(3), pos(X))))
        # A negated conjunction expands like a disjunction.
        negated = Not(
            And(tuple(Or((neg(Var(f"a{i}")), neg(Var(f"b{i}")))) for i in range(4)))
        )
        with pytest.raises(ResourceCapError, match="16 clauses"):
            cnf_clauses(negated)


class TestInterpretations:
    def test_enumeration_order(self):
        got = [w.values for w in interpretations((X, Y))]
        assert got == [
            (False, False),
            (False, True),
            (True, False),
            (True, True),
        ]

    def test_count(self):
        assert len(list(interpretations((SU, WI, SE)))) == 8

    def test_from_assignment_requires_total_map(self):
        with pytest.raises(DomainError):
            Interpretation.from_assignment((X, Y), {X: True})

    def test_lists_are_stored_as_tuples(self):
        # Built from lists or from a generator, a world is hashable and
        # equal to, and hashed as, its tuple-built twin.
        twin = Interpretation((X, Y), (True, False))
        for w in (
            Interpretation([X, Y], [True, False]),
            Interpretation(iter((X, Y)), (v for v in (True, False))),
        ):
            assert w.universe == (X, Y) and w.values == (True, False)
            assert w == twin and hash(w) == hash(twin)
            assert w.value(Y) is False
        assert len({twin, Interpretation([X, Y], [True, False])}) == 1


class TestDistribution:
    def test_indexing_matches_enumeration(self):
        d = Distribution((X, Y), (F(1), F(1, 2), F(1, 3), F(1, 4)))
        assert d[Interpretation((X, Y), (False, True))] == F(1, 2)
        assert d[Interpretation((Y, X), (False, True))] == F(1, 3)

    def test_wrong_cardinality(self):
        with pytest.raises(DomainError):
            Distribution((X, Y), (F(1),))

    def test_normalized(self):
        assert Distribution((X,), (F(1), F(1, 2))).is_normalized
        assert not Distribution((X,), (F(1, 2), F(1, 2))).is_normalized


class TestWeightedBase:
    def test_zero_weight_entries_dropped(self):
        b = WeightedBase([(clause(pos(X)), F(0)), (clause(pos(Y)), F(1, 2))])
        assert len(b.entries) == 1
        b = WeightedBase([(clause(pos(X)), F(0)), (clause(pos(Y)), F(1))])
        assert b.entries == ((clause(pos(Y)), F(1)),)
        assert b.variables == (Y,)

    @pytest.mark.parametrize("bad", [F(-1, 2), F(3, 2)])
    def test_fraction_weight_out_of_range_refused(self, bad):
        # Range-checked on its numerator and denominator, with the message
        # `as_weight` gives for the same value.
        with pytest.raises(DomainError) as err:
            WeightedBase([(clause(pos(X)), F(1, 2)), (clause(pos(Y)), bad)])
        assert str(err.value) == f"weight {bad} outside [0, 1]"
        with pytest.raises(DomainError) as coerced:
            as_weight(str(bad))
        assert str(coerced.value) == str(err.value)

    def test_duplicate_entries_are_legal(self):
        b = WeightedBase([(clause(pos(X)), F(1, 3)), (clause(pos(X)), F(2, 3))])
        assert len(b.entries) == 2

    def test_universe_inferred_in_first_appearance_order(self):
        b = WeightedBase([(clause(pos(Y), pos(X)), F(1, 2)), (clause(pos(SU)), F(1, 2))])
        assert b.variables == (X, Y, SU)

    def test_undeclared_variable_rejected(self):
        with pytest.raises(DomainError):
            WeightedBase([(clause(pos(X)), F(1, 2))], (Y,))
        a, b, c = Var("a"), Var("b"), Var("c")
        with pytest.raises(DomainError, match="undeclared variables: a, c$"):
            WeightedBase([(clause(pos(c), neg(b), pos(a)), F(1, 2))], (b,))
        with pytest.raises(DomainError, match="duplicate variable in universe"):
            WeightedBase([], (a, b, Var("a")))

    def test_universe_is_checked_by_name(self, monkeypatch):
        # A `Var` is a tuple, which combines its name's hash again on every
        # call; a wide universe is checked against its names, whose hashes
        # are cached, not against its Vars.
        universe = [Var(f"a{i}") for i in range(1000)]
        entry = (clause(pos(universe[0]), neg(universe[1])), F(1, 2))
        hashed = []
        var_hash = Var.__hash__
        monkeypatch.setattr(Var, "__hash__", lambda v: hashed.append(v) or var_hash(v))
        b = WeightedBase([entry], universe)
        assert len(hashed) <= 4
        assert b.variables == tuple(universe)

    def test_extended_grows_universe(self):
        b = WeightedBase([(clause(pos(X)), F(1, 2))], (X,))
        bigger = b.extended([(clause(pos(Y)), F(1))])
        assert bigger.variables == (X, Y)
        assert len(bigger.entries) == 2

    def test_pickle_carries_no_encoding(self):
        b = WeightedBase(
            [(clause(pos(X), neg(Y)), F(1, 2)), (clause(pos(Y), pos(SU)), F(1, 3))],
            (X, Y, SU),
        )
        assert inconsistency_degree(b) == 0
        assert certainty_degree(b, pos(X)) == 0
        marginal = marginal_base(b, Y)
        assert certainty_degree(marginal, pos(X)) == 0
        for base in (b, marginal):
            assert base._levels is not None
            data = pickle.dumps(base)
            again = pickle.loads(data)
            assert again == base
            assert again._levels is None
            assert data == pickle.dumps(WeightedBase(base.entries, base.variables))

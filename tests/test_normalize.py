import random
from fractions import Fraction

import pytest

from posslog import (
    And,
    DomainError,
    Not,
    Or,
    WeightedBase,
    distribution_of_base,
    is_subsumed,
    merge_duplicates,
    remove_subsumed,
    remove_tautologies,
    to_clausal,
    vars_of,
)
import clause_reference
from clause_reference import _entry_key

from helpers import (
    A1,
    X,
    Y,
    clause,
    neg,
    pos,
    random_clausal_base,
    random_formula,
    random_messy_base,
)

F = Fraction


def same_distribution(a: WeightedBase, b: WeightedBase) -> bool:
    return distribution_of_base(a) == distribution_of_base(b)


class TestToClausal:
    def test_conjunction_splits(self):
        b = WeightedBase([(And((pos(X), pos(Y))), F(1, 2))], (X, Y))
        out = to_clausal(b)
        assert set(out.entries) == {(clause(pos(X)), F(1, 2)), (clause(pos(Y)), F(1, 2))}

    def test_already_clausal_unchanged(self, weather):
        assert to_clausal(weather) == weather

    def test_negated_disjunction(self):
        b = WeightedBase([(Not(Or((pos(X), pos(Y)))), F(1, 3))], (X, Y))
        out = to_clausal(b)
        assert set(out.entries) == {(clause(neg(X)), F(1, 3)), (clause(neg(Y)), F(1, 3))}
        assert same_distribution(b, out)

    def test_no_new_variables(self):
        rng = random.Random(5)
        universe = (X, Y, A1)
        for _ in range(60):
            f = random_formula(rng, universe)
            b = WeightedBase([(f, F(1, 2))], universe)
            out = to_clausal(b)
            for c, _ in out.entries:
                assert vars_of(c) <= vars_of(f)

    def test_preserves_distribution(self):
        rng = random.Random(11)
        universe = (X, Y, A1)
        for _ in range(80):
            entries = [
                (random_formula(rng, universe), F(rng.randint(1, 6), 6))
                for _ in range(rng.randint(1, 4))
            ]
            b = WeightedBase(entries, universe)
            assert same_distribution(b, to_clausal(b))


class TestRemoveTautologies:
    def test_single_tautology_vanishes(self):
        b = WeightedBase([(clause(neg(X), neg(Y), pos(X)), F(1))], (X, Y))
        assert remove_tautologies(b).entries == ()

    def test_weather_untouched(self, weather):
        assert remove_tautologies(weather) == weather

    def test_mixed(self):
        b = WeightedBase(
            [(clause(pos(X), neg(X)), F(1, 2)), (clause(pos(Y)), F(1, 3))], (X, Y)
        )
        out = remove_tautologies(b)
        assert out.entries == ((clause(pos(Y)), F(1, 3)),)
        assert same_distribution(b, out)

    def test_requires_clausal(self):
        b = WeightedBase([(And((pos(X), pos(Y))), F(1, 2))])
        with pytest.raises(DomainError):
            remove_tautologies(b)


class TestIsSubsumed:
    def test_weaker_disjunction_subsumed_by_unit(self):
        e = (clause(pos(A1), pos(X)), F(1, 2))
        b = WeightedBase([(clause(pos(A1)), F(1)), e], (A1, X))
        assert is_subsumed(b, e)

    def test_singleton_entry_not_subsumed(self):
        e = (clause(pos(X)), F(1, 2))
        b = WeightedBase([e], (X,))
        assert not is_subsumed(b, e)

    def test_entry_must_belong_to_base(self):
        b = WeightedBase([(clause(pos(X)), F(1, 2))], (X, Y))
        with pytest.raises(DomainError):
            is_subsumed(b, (clause(pos(Y)), F(1, 2)))


class TestRemoveSubsumed:
    def test_drops_weaker_disjunction(self):
        b = WeightedBase(
            [(clause(pos(A1)), F(1)), (clause(pos(A1), pos(X)), F(1, 2))], (A1, X)
        )
        assert remove_subsumed(b).entries == ((clause(pos(A1)), F(1)),)

    def test_weather_is_already_reduced(self, weather):
        assert remove_subsumed(weather) == weather

    def test_empty_base(self):
        b = WeightedBase((), ())
        assert remove_subsumed(b).entries == ()

    def test_duplicates_collapse_to_max(self):
        b = WeightedBase(
            [(clause(pos(X)), F(1, 3)), (clause(pos(X)), F(2, 3))], (X,)
        )
        assert remove_subsumed(b).entries == ((clause(pos(X)), F(2, 3)),)

    def test_idempotent_and_distribution_preserving(self):
        rng = random.Random(19)
        for _ in range(60):
            b = random_clausal_base(rng, rng.randint(1, 5), rng.randint(1, 9))
            reduced = remove_subsumed(b)
            assert same_distribution(b, reduced)
            assert remove_subsumed(reduced) == reduced

    def test_one_pass_equals_restart_loop(self):
        # Reference: rescan from the lowest entry after every removal.
        def restart_loop(b):
            entries = list(merge_duplicates(b).entries)
            while True:
                candidate = WeightedBase(entries, b.variables)
                for entry in sorted(entries, key=_entry_key):
                    if is_subsumed(candidate, entry):
                        entries.remove(entry)
                        break
                else:
                    return candidate

        rng = random.Random(23)
        for _ in range(300):
            pool = [F(k, 4) for k in range(1, 5)][: rng.randint(1, 4)]
            b = random_clausal_base(rng, rng.randint(1, 5), rng.randint(1, 10), pool)
            dupes = [(c, rng.choice(pool)) for c, _ in b.entries if rng.random() < 0.3]
            b = remove_tautologies(b.extended(dupes))
            assert remove_subsumed(b) == restart_loop(b)

    def test_equals_entails_loop(self, solver_path):
        # Reference: the pass as it was written over `is_subsumed`, which
        # asks `entails` of the base rebuilt after every removal.
        def entails_loop(b):
            current = merge_duplicates(b)
            for entry in sorted(current.entries, key=_entry_key):
                if is_subsumed(current, entry):
                    entries = list(current.entries)
                    entries.remove(entry)
                    current = WeightedBase(entries, b.variables)
            return current

        # Few weights, so that ties are common; duplicates, tautologies and
        # empty clauses go straight in.
        rng = random.Random(29)
        for _ in range(300):
            pool = [F(k, 4) for k in range(1, 5)][: rng.randint(1, 4)]
            b = random_clausal_base(rng, rng.randint(1, 5), rng.randint(0, 10), pool)
            extra = [(c, rng.choice(pool)) for c, _ in b.entries if rng.random() < 0.3]
            for _ in range(rng.randint(0, 2)):
                v = rng.choice(b.variables)
                extra.append((clause(pos(v), neg(v)), rng.choice(pool)))
            if rng.random() < 0.2:
                extra.append((clause(), rng.choice(pool)))
            b = b.extended(extra)
            assert remove_subsumed(b) == entails_loop(b), b


    def test_equals_clause_reference(self, solver_path):
        # Same entries in the same order, so the same equivalent clause
        # survives a tie.
        rng = random.Random(71)
        for _ in range(300):
            b = random_messy_base(rng)
            got = remove_subsumed(b)
            want = clause_reference.remove_subsumed(b)
            assert (got.entries, got.variables) == (want.entries, want.variables), b


class TestMergeDuplicates:
    def test_keeps_first_occurrence_order(self):
        b = WeightedBase(
            [
                (clause(pos(X)), F(1, 3)),
                (clause(pos(Y)), F(1, 2)),
                (clause(pos(X)), F(2, 3)),
            ],
            (X, Y),
        )
        out = merge_duplicates(b)
        assert out.entries == (
            (clause(pos(X)), F(2, 3)),
            (clause(pos(Y)), F(1, 2)),
        )

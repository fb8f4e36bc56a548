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
    remove_subsumed,
    remove_tautologies,
    semantics,
    to_clausal,
    vars_of,
)
import clause_reference
from clause_reference import _entry_key, is_subsumed

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
    random_planted_base,
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
        assert to_clausal(weather) is weather

    def test_one_formula_entry_rebuilds(self, weather):
        b = weather.extended([(And((pos(X), pos(Y))), F(1, 2))])
        out = to_clausal(b)
        assert out is not b
        assert out.entries == weather.entries + (
            (clause(pos(X)), F(1, 2)),
            (clause(pos(Y)), F(1, 2)),
        )

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


class TestRemoveSubsumed:
    def test_two_sorts_give_the_clause_order(self):
        # `_reduce` sorts each weight group by two C-level sorts; on seeded
        # random integer clauses with many of one length, mixed lengths and
        # the empty clause, they give `_ClauseBits.order`'s sequence.
        rng = random.Random(79)
        tied = 0
        for _ in range(200):
            bits = [1 << i for i in range(2 * rng.randint(1, 8))]
            clauses = {0}
            for _ in range(rng.randint(1, 40)):
                clauses.add(sum(rng.sample(bits, rng.randint(1, min(4, len(bits))))))
            clauses = list(clauses)
            rng.shuffle(clauses)
            lengths = [c.bit_count() for c in clauses]
            tied += len(set(lengths)) < len(lengths)
            want = sorted(clauses, key=semantics._ClauseBits.order)
            assert semantics._in_order(clauses) == want
        assert tied > 150

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
            entries = list(clause_reference.merge_duplicates(b).entries)
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
            current = clause_reference.merge_duplicates(b)
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
        # survives a tie. Messy bases, then clause-heavy planted ones.
        rng = random.Random(71)
        bases = [random_messy_base(rng) for _ in range(300)]
        bases += [random_planted_base(rng) for _ in range(40)]
        for b in bases:
            got = remove_subsumed(b)
            want = clause_reference.remove_subsumed(b)
            assert (got.entries, got.variables) == (want.entries, want.variables), b

    def test_search_path_premises(self, monkeypatch):
        # Above the cap each distinct clause that is no tautology is tested
        # once, heaviest weight first, then in clause order, by one search
        # from its negated literals. Its premises are every clause of a
        # greater weight, the kept clauses of its weight tested before it,
        # and every clause of its weight tested after it.
        monkeypatch.setattr(semantics, "_BITSET_MAX_VARS", 0)
        calls = []
        search = semantics._search

        def logged(clauses, true, false, pending):
            calls.append((list(clauses), true, false))
            return search(clauses, true, false, pending)

        monkeypatch.setattr(semantics, "_search", logged)
        order = semantics._ClauseBits.order
        rng = random.Random(73)
        for _ in range(30):
            codec, entries, _ = semantics._encoded(random_planted_base(rng), "test")
            rank: dict[int, int] = {}
            for c, r in entries:
                if not c & semantics._negations(c):
                    rank[c] = max(rank.get(c, 0), r)
            calls.clear()
            kept = {c for c, _ in semantics._reduce(entries)}
            tested = sorted(rank, key=lambda c: (-rank[c], *order(c)))
            assert [call[1:] for call in calls] == [
                (semantics._negations(c), c) for c in tested
            ]
            for (premises, _, _), c in zip(calls, tested):
                assert sorted(premises) == sorted(
                    d
                    for d in rank
                    if rank[d] > rank[c]
                    or rank[d] == rank[c] and (order(d) > order(c) or d in kept and d != c)
                )
                # In test order: the heavier clauses, the group's kept
                # clauses tested before c, then the rest of its group.
                same = [d for d in tested if rank[d] == rank[c]]
                t = same.index(c)
                assert premises == [d for d in tested if rank[d] > rank[c]] + [
                    d for d in same[:t] if d in kept
                ] + same[t + 1 :]

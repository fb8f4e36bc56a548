"""Shared builders and golden data for the test suite."""

from __future__ import annotations

import pickle
import random
from fractions import Fraction

import pytest

from posslog import And, Clause, Const, Literal, Not, Or, Var, WeightedBase

SU, WI, SE = Var("su"), Var("wi"), Var("se")
A1, A2, A3 = Var("a1"), Var("a2"), Var("a3")
X, Y = Var("x"), Var("y")

F = Fraction


def pos(v: Var) -> Literal:
    return Literal(v, True)


def neg(v: Var) -> Literal:
    return Literal(v, False)


def clause(*lits: Literal) -> Clause:
    return Clause(lits)


def weather_base() -> WeightedBase:
    """Three binary goals about sun, wind and sea; the running example used
    by most golden tests."""
    return WeightedBase(
        [
            (clause(pos(SU), neg(WI)), F(2, 3)),
            (clause(neg(WI), pos(SE)), F(1, 3)),
            (clause(pos(WI), neg(SE)), F(1, 3)),
            (clause(pos(SU), pos(SE)), F(1, 3)),
        ],
        (SU, WI, SE),
    )


# Reference worlds for the weather base, ordered to match the golden
# tables: (su, wi, se) truth values.
WEATHER_WORLDS = (
    (True, False, False),
    (True, False, True),
    (True, True, False),
    (True, True, True),
    (False, False, False),
    (False, False, True),
    (False, True, False),
    (False, True, True),
)

WEATHER_VALUES = (F(1), F(2, 3), F(2, 3), F(1), F(2, 3), F(2, 3), F(1, 3), F(1, 3))


def support_base() -> WeightedBase:
    """Two entries, one hidden influence: {(a2 | a1, 2/5), (a3, 7/10)}."""
    return WeightedBase(
        [(clause(pos(A2), pos(A1)), F(2, 5)), (clause(pos(A3)), F(7, 10))],
        (A1, A2, A3),
    )


def random_clausal_base(rng: random.Random, n_vars: int, n_clauses: int,
                        pool=None) -> WeightedBase:
    """Local random clausal base builder (independent of the oracle's)."""
    pool = pool or [F(1, 5), F(1, 3), F(2, 5), F(1, 2), F(2, 3), F(7, 10), F(1)]
    variables = tuple(Var(f"x{i}") for i in range(n_vars))
    entries = []
    for _ in range(n_clauses):
        size = rng.randint(1, min(3, n_vars))
        chosen = rng.sample(variables, size)
        entries.append(
            (Clause(Literal(v, rng.random() < 0.5) for v in chosen), rng.choice(pool))
        )
    return WeightedBase(entries, variables)


def random_formula(rng: random.Random, variables, depth: int = 3):
    """Small random formula tree over `variables`."""
    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.05:
            return Const(rng.random() < 0.5)
        return Literal(rng.choice(variables), rng.random() < 0.5)
    kind = rng.random()
    if kind < 0.25:
        return Not(random_formula(rng, variables, depth - 1))
    parts = tuple(
        random_formula(rng, variables, depth - 1) for _ in range(rng.randint(2, 3))
    )
    return And(parts) if kind < 0.65 else Or(parts)


# Names whose sorted order is neither their declaration order nor the
# order of any numeric suffix.
MESSY_NAMES = ("b", "a10", "a2", "Z", "a", "q_1", "B", "zz")


def random_messy_base(rng: random.Random) -> WeightedBase:
    """A clausal base over 1-7 of `MESSY_NAMES` in shuffled order, with few
    distinct weights (so ties are common), duplicates, tautologies, empty
    clauses and clauses of up to four literals."""
    names = rng.sample(MESSY_NAMES, rng.randint(1, 7))
    variables = tuple(Var(name) for name in names)
    pool = [F(k, 4) for k in range(1, 5)][: rng.randint(1, 4)]
    entries = []
    for _ in range(rng.randint(0, 10)):
        roll = rng.random()
        if roll < 0.08:
            c = Clause()
        elif roll < 0.16:
            v = rng.choice(variables)
            c = Clause((Literal(v, True), Literal(v, False)))
        else:
            chosen = rng.sample(variables, rng.randint(1, min(4, len(variables))))
            c = Clause(Literal(v, rng.random() < 0.5) for v in chosen)
        entries.append((c, rng.choice(pool)))
    if len(variables) >= 3 and rng.random() < 0.5:
        # c|x, c|!x, c|y, c|!y at one weight: either pair makes the other
        # redundant, so the test order decides which pair survives.
        x, y, *rest = rng.sample(variables, len(variables))
        core = [Literal(v, rng.random() < 0.5) for v in rest[: rng.randint(0, 2)]]
        weight = rng.choice(pool)
        entries += [
            (Clause((*core, Literal(v, value))), weight)
            for v in (x, y)
            for value in (False, True)
        ]
    entries += [(c, rng.choice(pool)) for c, _ in entries if rng.random() < 0.3]
    rng.shuffle(entries)
    return WeightedBase(entries, variables)


def planted_base(rng: random.Random, n_vars: int, n_clauses: int, size: int) -> WeightedBase:
    """`n_clauses` distinct clauses of `size` literals over `n_vars`
    variables, all satisfied by one hidden world, with weights k/10 for k
    from 1 to 9: a clause-heavy base, consistent by construction. A clause
    that the world falsifies has one literal flipped to the world's value.
    There must be that many distinct clauses to draw."""
    variables = tuple(Var(f"v{i + 1:02d}") for i in range(n_vars))
    hidden = {v: rng.random() < 0.5 for v in variables}
    weights: dict[Clause, Fraction] = {}
    while len(weights) < n_clauses:
        chosen = rng.sample(variables, size)
        values = [rng.random() < 0.5 for _ in chosen]
        if not any(hidden[v] == value for v, value in zip(chosen, values)):
            i = rng.randrange(size)
            values[i] = hidden[chosen[i]]
        c = Clause(Literal(v, value) for v, value in zip(chosen, values))
        weights.setdefault(c, F(rng.randint(1, 9), 10))
    return WeightedBase(list(weights.items()), variables)


def random_planted_base(rng: random.Random) -> WeightedBase:
    """A small `planted_base` (6-9 variables, 2-4 literals a clause) with
    some clauses repeated at other weights and 1-3 tautologies added,
    shuffled: the clause-heavy input of the differential tests."""
    b = planted_base(rng, rng.randint(6, 9), rng.randint(4, 24), rng.randint(2, 4))
    pool = [F(k, 10) for k in range(1, 10)]
    entries = list(b.entries)
    entries += [(c, rng.choice(pool)) for c, _ in b.entries if rng.random() < 0.3]
    for _ in range(rng.randint(1, 3)):
        v, *rest = rng.sample(b.variables, rng.randint(1, 3))
        lits = [Literal(v, True), Literal(v, False)]
        lits += [Literal(u, rng.random() < 0.5) for u in rest]
        entries.append((Clause(lits), rng.choice(pool)))
    rng.shuffle(entries)
    return WeightedBase(entries, b.variables)


def assert_value_type(cls, fields: dict, compared: int | None = None) -> None:
    """`cls(*fields.values())` behaves as an immutable value: two equal
    constructions are equal and hash as the tuple of their compared fields
    (the first `compared` of `fields`, all by default); every field refuses
    assignment and deletion; and a pickle round trip, through `(cls,
    constructor arguments)`, gives an equal object."""
    args = tuple(fields.values())
    value, twin = cls(*args), cls(*args)
    assert value is not twin
    assert value == twin and not value != twin
    assert hash(value) == hash(twin) == hash(args[:compared])
    for name, expected in fields.items():
        assert getattr(value, name) == expected
        with pytest.raises(AttributeError):
            setattr(value, name, expected)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value.__reduce__() == (cls, args)
    again = pickle.loads(pickle.dumps(value))
    assert type(again) is cls and again == value and hash(again) == hash(value)

"""Shared builders and golden data for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

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

"""Brute-force reference semantics for differential testing.

Deliberately redundant: the evaluation here shares no code with the
semantics module, which only `random_base` asks whether a draw is
consistent. Worlds are enumerated exhaustively, formulas are evaluated by
direct recursion over plain dicts, and distributions are compared exactly.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import semantics
from .errors import DomainError, GenerationError, ResourceCapError
from .model import (
    And,
    Clause,
    Const,
    Distribution,
    Formula,
    Interpretation,
    Literal,
    Not,
    Or,
    Var,
    WeightedBase,
    _Value,
    as_weight,
)
from .network import Network, network_distribution

DEFAULT_ENUMERATION_CAP = 20

# Most clauses `random_base` draws for one base: at about 18 µs a clause
# over its 500 tries, a request it cannot satisfy fails in about 10 s.
MAX_RANDOM_CLAUSES = 1000

DEFAULT_WEIGHT_POOL = tuple(
    Fraction(t) for t in ("1/5", "1/3", "2/5", "1/2", "2/3", "7/10", "1")
)


def _holds(f: Formula, world: dict[Var, bool]) -> bool:
    if isinstance(f, Const):
        return f.value
    if isinstance(f, Literal):
        return world[f.var] is f.positive
    if isinstance(f, Clause):
        for lit in f.literals:
            if world[lit.var] is lit.positive:
                return True
        return False
    if isinstance(f, Not):
        return not _holds(f.operand, world)
    if isinstance(f, And):
        for p in f.parts:
            if not _holds(p, world):
                return False
        return True
    if isinstance(f, Or):
        for p in f.parts:
            if _holds(p, world):
                return True
        return False
    raise TypeError(f"not a formula: {f!r}")


def enumerate_distribution(b: WeightedBase) -> Distribution:
    """Exact distribution of a base by exhaustive evaluation, one world at
    a time. Refuses universes above `DEFAULT_ENUMERATION_CAP` variables."""
    n, cap = len(b.variables), DEFAULT_ENUMERATION_CAP
    if n > cap:
        raise ResourceCapError(f"{n} variables exceed the enumeration cap of {cap}")
    one = Fraction(1)
    values = []
    for bits in range(1 << n):
        world = {
            v: bool((bits >> (n - 1 - j)) & 1) for j, v in enumerate(b.variables)
        }
        worst = None
        for f, w in b.entries:
            if not _holds(f, world):
                if worst is None or w > worst:
                    worst = w
        values.append(one if worst is None else one - worst)
    return Distribution(b.variables, values)


def distributions_equal(d1: Distribution, d2: Distribution) -> bool:
    """Exact pointwise equality over a shared variable set (the two
    universes may order it differently)."""
    if set(d1.universe) != set(d2.universe):
        raise DomainError("distributions are over different universes")
    n = len(d1.universe)
    reorder = [d1.universe.index(v) for v in d2.universe]
    for i, value in enumerate(d1.values):
        j = 0
        for pos, src in enumerate(reorder):
            if (i >> (n - 1 - src)) & 1:
                j |= 1 << (n - 1 - pos)
        if d2.values[j] != value:
            return False
    return True


class Mismatch(_Value):
    __slots__ = _fields = ("world", "base_value", "network_value")

    def __init__(
        self, world: Interpretation, base_value: Fraction, network_value: Fraction
    ):
        self._set(world, base_value, network_value)

    def __str__(self) -> str:
        return f"{self.world}: base={self.base_value} network={self.network_value}"


class VerificationReport(_Value):
    __slots__ = _fields = ("mismatches",)

    def __init__(self, mismatches: tuple[Mismatch, ...]):
        object.__setattr__(self, "mismatches", mismatches)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def verify_compilation(b: WeightedBase, n: Network) -> VerificationReport:
    """Compare a base's enumerated distribution against a network's
    chain-rule distribution, world by world."""
    if set(b.variables) != set(n.variables):
        raise DomainError("base and network are over different universes")
    reference = enumerate_distribution(b)
    compiled = network_distribution(n)
    mismatches = []
    for w, expected in reference.items():
        actual = compiled[w]
        if actual != expected:
            mismatches.append(Mismatch(w, expected, actual))
    return VerificationReport(tuple(mismatches))


def random_base(
    seed: int,
    n_vars: int,
    n_clauses: int,
    weight_pool=DEFAULT_WEIGHT_POOL,
    require_consistent: bool = True,
) -> WeightedBase:
    """Deterministic pseudorandom clausal base: clause length 1 to 3 over
    distinct variables (so no tautologies), weights drawn from the pool.
    With `require_consistent`, redraws until the inconsistency degree is 0,
    up to 500 times, and refuses a universe the oracle cannot enumerate. A
    negative clause count or one over `MAX_RANDOM_CLAUSES` is refused too,
    and so is a pool weight outside (0, 1], as the base grammar refuses it:
    a weight-0 entry would vanish from the base."""
    if n_vars < 1:
        raise DomainError("need at least one variable")
    if n_clauses < 0:
        raise DomainError(f"negative clause count {n_clauses}")
    if n_clauses > MAX_RANDOM_CLAUSES:
        raise ResourceCapError(
            f"{n_clauses} clauses exceed the cap of {MAX_RANDOM_CLAUSES}"
        )
    if require_consistent and n_vars > DEFAULT_ENUMERATION_CAP:
        cap = DEFAULT_ENUMERATION_CAP
        raise ResourceCapError(f"{n_vars} variables exceed the enumeration cap of {cap}")
    rng = random.Random(seed)
    variables = tuple(Var(f"v{i + 1}") for i in range(n_vars))
    pool = [as_weight(w) for w in weight_pool]
    if not pool:
        raise DomainError("empty weight pool")
    if not all(pool):
        raise DomainError("weight 0 outside (0, 1]")
    for _ in range(500):
        entries = []
        for _ in range(n_clauses):
            k = rng.randint(1, min(3, n_vars))
            chosen = rng.sample(range(n_vars), k)
            lits = [Literal(variables[i], rng.random() < 0.5) for i in chosen]
            entries.append((Clause(lits), rng.choice(pool)))
        candidate = WeightedBase(entries, variables)
        if not require_consistent:
            return candidate
        if semantics.inconsistency_degree(candidate) == 0:
            return candidate
    raise GenerationError(f"no consistent base found in 500 tries (seed={seed})")

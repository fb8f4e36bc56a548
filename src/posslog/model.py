"""Core vocabulary: variables, literals, clauses, formulas, weighted bases,
interpretations and possibility distributions.

All certainty/possibility levels are exact rationals (`fractions.Fraction`)
in [0, 1]; nothing in this package ever rounds. Every type here is immutable
after construction and safe to share between threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

from .errors import DomainError, ResourceCapError

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

# Words of the base grammar that match the name pattern but are not names.
RESERVED_NAMES = frozenset({"true", "false", "vars"})

ONE = Fraction(1)
ZERO = Fraction(0)


def as_weight(value) -> Fraction:
    """Coerce `value` to an exact rational in [0, 1].

    Floats are rejected: binary floats silently misrepresent inputs such as
    0.4, and exactness is the whole point. Pass a string (".4", "2/3"), an
    int, a Decimal or a Fraction instead. A string may not use exponent
    notation: `Fraction("1e-999999999")` would build a billion-digit
    integer.
    """
    if isinstance(value, float):
        raise DomainError(
            f"float weight {value!r} is inexact; pass a string, Fraction or Decimal"
        )
    if isinstance(value, str) and "e" in value.lower():
        raise DomainError(f"weight {value!r} has an exponent")
    try:
        w = Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise DomainError(f"cannot interpret {value!r} as a rational weight") from exc
    if not ZERO <= w <= ONE:
        raise DomainError(f"weight {w} outside [0, 1]")
    return w


@dataclass(frozen=True, order=True)
class Var:
    """A binary propositional variable, identified by name."""

    name: str

    def __post_init__(self):
        if not _NAME_RE.match(self.name) or self.name in RESERVED_NAMES:
            raise DomainError(f"invalid variable name {self.name!r}")

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, order=True)
class Literal:
    """A variable or its negation."""

    var: Var
    positive: bool = True

    def __str__(self) -> str:
        return self.var.name if self.positive else "!" + self.var.name


def negate(lit: Literal) -> Literal:
    """Flip the polarity of a literal; `negate` is an involution."""
    return Literal(lit.var, not lit.positive)


@dataclass(frozen=True)
class Clause:
    """A disjunction of literals with set semantics (duplicates collapse).

    The empty clause is permitted and is unsatisfiable.
    """

    literals: frozenset[Literal] = frozenset()

    def __init__(self, literals: Iterable[Literal] = ()):
        object.__setattr__(self, "literals", frozenset(literals))

    @property
    def variables(self) -> frozenset[Var]:
        return frozenset(l.var for l in self.literals)

    @property
    def is_tautology(self) -> bool:
        # A set of literals holds both polarities of some variable exactly
        # when it has fewer distinct variables than literals.
        return len({l.var for l in self.literals}) < len(self.literals)

    def union(self, other: "Clause") -> "Clause":
        return Clause(self.literals | other.literals)

    def __contains__(self, lit: Literal) -> bool:
        return lit in self.literals

    def __iter__(self) -> Iterator[Literal]:
        return iter(sorted(self.literals))

    def __len__(self) -> int:
        return len(self.literals)

    def __str__(self) -> str:
        if not self.literals:
            return "false"
        return " | ".join(str(l) for l in self)


@dataclass(frozen=True)
class Const:
    """Boolean constant leaf."""

    value: bool


TRUE = Const(True)
FALSE = Const(False)


@dataclass(frozen=True)
class Not:
    operand: "Formula"


@dataclass(frozen=True)
class And:
    parts: tuple["Formula", ...]

    def __init__(self, parts: Iterable["Formula"]):
        object.__setattr__(self, "parts", tuple(parts))


@dataclass(frozen=True)
class Or:
    parts: tuple["Formula", ...]

    def __init__(self, parts: Iterable["Formula"]):
        object.__setattr__(self, "parts", tuple(parts))


Formula = Union[Const, Literal, Clause, Not, And, Or]


def vars_of(f: Formula) -> frozenset[Var]:
    """The exact set of variables occurring in a formula."""
    if isinstance(f, Clause):
        return f.variables
    return frozenset(vars_in_appearance(f))


def vars_in_appearance(f: Formula) -> list[Var]:
    """Variables of `f` in a deterministic first-appearance order.

    Clause literals have no syntactic order, so they contribute in name
    order; structured formulas walk left to right.
    """
    seen: dict[Var, None] = {}

    def walk(g: Formula) -> None:
        if isinstance(g, Const):
            return
        if isinstance(g, Literal):
            seen.setdefault(g.var)
        elif isinstance(g, Clause):
            for lit in g:
                seen.setdefault(lit.var)
        elif isinstance(g, Not):
            walk(g.operand)
        elif isinstance(g, (And, Or)):
            for p in g.parts:
                walk(p)
        else:
            raise TypeError(f"not a formula: {g!r}")

    walk(f)
    return list(seen)


@dataclass(frozen=True)
class Interpretation:
    """A total truth assignment over an ordered variable universe."""

    universe: tuple[Var, ...]
    values: tuple[bool, ...]
    _lookup: Mapping[Var, bool] = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self):
        if len(self.universe) != len(self.values):
            raise DomainError("universe and values lengths differ")
        lookup = dict(zip(self.universe, self.values))
        if len(lookup) != len(self.universe):
            raise DomainError("duplicate variable in universe")
        object.__setattr__(self, "_lookup", lookup)

    @classmethod
    def from_assignment(
        cls, universe: Iterable[Var], assignment: Mapping[Var, bool]
    ) -> "Interpretation":
        universe = tuple(universe)
        try:
            return cls(universe, tuple(bool(assignment[v]) for v in universe))
        except KeyError as exc:
            raise DomainError(f"assignment misses variable {exc.args[0]}") from exc

    def value(self, var: Var) -> bool:
        try:
            return self._lookup[var]
        except KeyError:
            raise DomainError(f"variable {var} outside interpretation universe")

    def literals(self) -> tuple[Literal, ...]:
        return tuple(Literal(v, val) for v, val in zip(self.universe, self.values))

    def as_dict(self) -> dict[Var, bool]:
        return dict(self._lookup)

    def __str__(self) -> str:
        return ",".join(str(l) for l in self.literals())


def interpretations(universe: Iterable[Var]) -> Iterator[Interpretation]:
    """Enumerate all interpretations of `universe` deterministically.

    The first variable is the most significant bit and False sorts before
    True, so index i assigns variable j the bit (i >> (n-1-j)) & 1.
    """
    universe = tuple(universe)
    n = len(universe)
    for i in range(1 << n):
        yield Interpretation(
            universe, tuple(bool((i >> (n - 1 - j)) & 1) for j in range(n))
        )


def satisfies(w: Interpretation, f: Formula) -> bool:
    """Standard propositional truth of `f` under `w`.

    Raises DomainError when `f` mentions a variable outside `w`'s universe.
    """
    missing = vars_of(f) - set(w.universe)
    if missing:
        names = ", ".join(sorted(v.name for v in missing))
        raise DomainError(f"formula mentions variables outside the universe: {names}")
    return bool(_formula_models(f, w._lookup, 1))


def _formula_models(f: Formula, tables: Mapping[Var, int], full: int) -> int:
    """The worlds of `full` that satisfy `f`, given the truth table of each
    of its variables: the one formula evaluator. An interpretation's truth
    values are the tables of its one world, with `full` 1."""
    if isinstance(f, Literal):
        t = tables[f.var]
        return t if f.positive else full ^ t
    if isinstance(f, Clause):
        out = 0
        for lit in f.literals:
            t = tables[lit.var]
            out |= t if lit.positive else full ^ t
        return out
    if isinstance(f, And):
        out = full
        for p in f.parts:
            out &= _formula_models(p, tables, full)
        return out
    if isinstance(f, Or):
        out = 0
        for p in f.parts:
            out |= _formula_models(p, tables, full)
        return out
    if isinstance(f, Not):
        return full ^ _formula_models(f.operand, tables, full)
    if isinstance(f, Const):
        return full if f.value else 0
    raise TypeError(f"not a formula: {f!r}")


# Most clauses any CNF built by `cnf_clauses` may hold, at any step of the
# expansion. A disjunction of 13 two-literal terms already expands to 8,192
# clauses.
MAX_CNF_CLAUSES = 4096


def cnf_clauses(f: Formula) -> tuple[Clause, ...]:
    """A CNF of `f` over its own variables, as a tuple of clauses.

    Uses negation push-down plus distributive expansion; no auxiliary
    variables are introduced (they would surface as spurious graph nodes
    downstream). Tautological and strictly redundant clauses are pruned.
    The expansion is exponential in the worst case, so it raises
    `ResourceCapError` before any step would hold more than
    `MAX_CNF_CLAUSES` clauses.
    """
    # The expansion's clauses in order, each dropped if a clause kept so far
    # is a subset of it, and otherwise kept in place of the kept clauses it
    # is a subset of. Kept clauses are bucketed by length: only a shorter
    # one can be a proper subset, an equal-length subset is the same clause,
    # and only a longer one can be a proper superset.
    kept: dict[frozenset[Literal], Clause] = {}
    by_length: dict[int, set[frozenset[Literal]]] = {}
    for c in _cnf(f, False):
        lits = c.literals
        if lits in kept or c.is_tautology:
            continue
        n = len(lits)
        if any(k <= lits for m, bucket in by_length.items() if m < n for k in bucket):
            continue
        for m, bucket in by_length.items():
            if m > n:
                for k in [k for k in bucket if lits <= k]:
                    bucket.remove(k)
                    del kept[k]
        kept[lits] = c
        by_length.setdefault(n, set()).add(lits)
    return tuple(kept.values())


def _cnf(f: Formula, negated: bool) -> list[Clause]:
    if isinstance(f, Const):
        value = f.value != negated
        return [] if value else [Clause()]
    if isinstance(f, Literal):
        return [Clause((negate(f) if negated else f,))]
    if isinstance(f, Clause):
        if negated:
            return [Clause((negate(l),)) for l in f]
        return [f]
    if isinstance(f, Not):
        return _cnf(f.operand, not negated)
    if isinstance(f, (And, Or)):
        conjunctive = isinstance(f, And) != negated
        parts = [_cnf(p, negated) for p in f.parts]
        if conjunctive:
            _check_cnf_size(sum(len(part) for part in parts))
            return [c for part in parts for c in part]
        # disjunction: distribute pairwise
        acc: list[Clause] = [Clause()]
        for part in parts:
            _check_cnf_size(len(acc) * len(part))
            acc = [a.union(c) for a in acc for c in part]
        return acc
    raise TypeError(f"not a formula: {f!r}")


def _check_cnf_size(size: int) -> None:
    if size > MAX_CNF_CLAUSES:
        raise ResourceCapError(
            f"CNF expansion needs {size} clauses,"
            f" more than the cap of {MAX_CNF_CLAUSES}"
        )


Entry = tuple[Formula, Fraction]


@dataclass(frozen=True)
class WeightedBase:
    """A multiset of weighted formulas over an ordered variable universe.

    Weight-0 entries are vacuous and dropped on construction. Duplicate
    entries (same formula, several weights) are legal; only the maximum
    weight is semantically effective, and the normalize pass merges them.
    """

    entries: tuple[Entry, ...]
    variables: tuple[Var, ...]

    def __init__(
        self,
        entries: Iterable[tuple[Formula, object]] = (),
        variables: Iterable[Var] | None = None,
    ):
        cooked: list[Entry] = []
        for f, w in entries:
            weight = w if isinstance(w, Fraction) else as_weight(w)
            if not ZERO <= weight <= ONE:
                raise DomainError(f"weight {weight} outside [0, 1]")
            if weight == 0:
                continue
            cooked.append((f, weight))
        if variables is None:
            seen: dict[Var, None] = {}
            for f, _ in cooked:
                for v in vars_in_appearance(f):
                    seen.setdefault(v)
            universe = tuple(seen)
        else:
            universe = tuple(variables)
            # By name: a `str` caches its hash, a `Var` hashes in Python code.
            declared = {v.name for v in universe}
            if len(declared) != len(universe):
                raise DomainError("duplicate variable in universe")
            for f, _ in cooked:
                extra = {v.name for v in vars_of(f)} - declared
                if extra:
                    names = ", ".join(sorted(extra))
                    raise DomainError(f"entry mentions undeclared variables: {names}")
        object.__setattr__(self, "entries", tuple(cooked))
        object.__setattr__(self, "variables", universe)
        # The weight levels `semantics` builds on first use and keeps; not
        # a field, so they take no part in equality.
        object.__setattr__(self, "_levels", None)

    def __reduce__(self):
        # Rebuilt from its fields, so a pickle never carries the levels.
        return (WeightedBase, (self.entries, self.variables))

    @property
    def is_clausal(self) -> bool:
        return all(isinstance(f, Clause) for f, _ in self.entries)

    def extended(self, extra: Iterable[tuple[Formula, object]]) -> "WeightedBase":
        """A new base with `extra` entries appended; the universe grows to
        cover any new variables, preserving existing order."""
        extra = tuple(extra)
        seen: dict[Var, None] = dict.fromkeys(self.variables)
        for f, _ in extra:
            for v in vars_in_appearance(f):
                seen.setdefault(v)
        return WeightedBase(self.entries + extra, tuple(seen))

    def __len__(self) -> int:
        return len(self.entries)


def unit(lit: Literal) -> Clause:
    """The unit clause holding a single literal."""
    return Clause((lit,))


@dataclass(frozen=True)
class Distribution:
    """A possibility distribution: every interpretation of the universe is
    mapped to an exact degree in [0, 1].

    Values are stored positionally in the enumeration order of
    `interpretations(universe)`.
    """

    universe: tuple[Var, ...]
    values: tuple[Fraction, ...]

    def __init__(self, universe: Iterable[Var], values: Iterable[object]):
        universe = tuple(universe)
        cooked = tuple(v if isinstance(v, Fraction) else as_weight(v) for v in values)
        if len(cooked) != (1 << len(universe)):
            raise DomainError(
                f"expected {1 << len(universe)} values for {len(universe)} variables,"
                f" got {len(cooked)}"
            )
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "values", cooked)

    def index_of(self, w: Interpretation) -> int:
        n = len(self.universe)
        i = 0
        for j, var in enumerate(self.universe):
            if w.value(var):
                i |= 1 << (n - 1 - j)
        return i

    def __getitem__(self, w: Interpretation) -> Fraction:
        return self.values[self.index_of(w)]

    def items(self) -> Iterator[tuple[Interpretation, Fraction]]:
        for w, v in zip(interpretations(self.universe), self.values):
            yield w, v

    @property
    def is_normalized(self) -> bool:
        return any(v == ONE for v in self.values)

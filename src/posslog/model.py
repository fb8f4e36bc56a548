"""Core vocabulary: variables, literals, clauses, formulas, weighted bases,
interpretations and possibility distributions.

All certainty/possibility levels are exact rationals (`fractions.Fraction`)
in [0, 1]; nothing in this package ever rounds. Every type here is immutable
after construction and safe to share between threads.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import itemgetter
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
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
        raise DomainError(f"cannot interpret {value!r} as a rational weight") from exc
    if not ZERO <= w <= ONE:
        raise DomainError(f"weight {w} outside [0, 1]")
    return w


def _degrees(values: Iterable[object]) -> tuple[Fraction, ...]:
    """`values` as a tuple of degrees in [0, 1]: as given when each is a
    `Fraction` in range, otherwise each read by `as_weight`, which refuses
    one out of range. A table's cells repeat a few degree objects, often
    side by side, so a run of one object is tested once; a `Fraction`'s
    denominator is positive, so it is in range when 0 <= numerator <=
    denominator."""
    values = tuple(values)
    last = ONE  # in range, so a run of it needs no test
    for w in values:
        if w is not last:
            if not (isinstance(w, Fraction) and 0 <= w.numerator <= w.denominator):
                return tuple(map(as_weight, values))
            last = w
    return values


class _Value:
    """Base of the value types: equality (between instances of one class),
    hash, `repr` and pickling derive from `_fields`, the constructor's
    arguments in order, each held in the slot of the same name. `__init__`
    sets the slots with `object.__setattr__`; assigning or deleting an
    attribute raises `AttributeError`."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        """Fill the slots of `_fields`, in order; for `__init__`."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def _compared(self) -> tuple:
        """The values that equality and the hash read."""
        return self._values()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared() == other._compared()

    def __hash__(self) -> int:
        return hash(self._compared())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        # Rebuilt through the constructor, so a pickle carries no slot
        # outside `_fields`.
        return (type(self), self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# `Var` and `Literal` are tuples, so that their hashing, equality and
# ordering, which every layer leans on, run in C. A `Var` hashes as
# `(name,)` and a `Literal` as `(var, positive)`, and both order by their
# fields: by name, then `False` before `True`.


class Var(tuple):
    """A binary propositional variable, identified by name."""

    __slots__ = ()
    name = property(itemgetter(0))

    def __new__(cls, name: str):
        if (
            not isinstance(name, str)
            or not _NAME_RE.match(name)
            or name in RESERVED_NAMES
        ):
            raise DomainError(f"invalid variable name {name!r}")
        return tuple.__new__(cls, (name,))

    def __reduce__(self):
        return (type(self), (self[0],))

    def __repr__(self) -> str:
        return f"Var(name={self[0]!r})"

    def __str__(self) -> str:
        return self.name


class Literal(tuple):
    """A variable or its negation."""

    __slots__ = ()
    var = property(itemgetter(0))
    positive = property(itemgetter(1))

    def __new__(cls, var: Var, positive: bool = True):
        return tuple.__new__(cls, (var, positive))

    def __reduce__(self):
        return (type(self), tuple(self))

    def __repr__(self) -> str:
        return f"Literal(var={self[0]!r}, positive={self[1]!r})"

    def __str__(self) -> str:
        return self.var.name if self.positive else "!" + self.var.name


def negate(lit: Literal) -> Literal:
    """Flip the polarity of a literal; `negate` is an involution."""
    return Literal(lit.var, not lit.positive)


class Clause(_Value):
    """A disjunction of literals with set semantics (duplicates collapse).

    The empty clause is permitted and is unsatisfiable.
    """

    __slots__ = _fields = ("literals",)
    literals: frozenset[Literal]

    def __init__(self, literals: Iterable[Literal] = ()):
        if isinstance(literals, Literal):
            # A `Literal` is a tuple, so it would pass as its var and sign.
            raise TypeError("Clause takes an iterable of literals; use unit(lit)")
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


class Const(_Value):
    """Boolean constant leaf."""

    __slots__ = _fields = ("value",)

    def __init__(self, value: bool):
        object.__setattr__(self, "value", value)


TRUE = Const(True)
FALSE = Const(False)


class Not(_Value):
    __slots__ = _fields = ("operand",)

    def __init__(self, operand: "Formula"):
        object.__setattr__(self, "operand", operand)


class And(_Value):
    __slots__ = _fields = ("parts",)
    parts: tuple["Formula", ...]

    def __init__(self, parts: Iterable["Formula"]):
        object.__setattr__(self, "parts", tuple(parts))


class Or(_Value):
    __slots__ = _fields = ("parts",)
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


class Interpretation(_Value):
    """A total truth assignment over an ordered variable universe."""

    _fields = ("universe", "values")
    __slots__ = (*_fields, "_lookup")
    universe: tuple[Var, ...]
    values: tuple[bool, ...]
    _lookup: Mapping[Var, bool]

    def __init__(self, universe: Iterable[Var], values: Iterable[bool]):
        universe, values = tuple(universe), tuple(values)
        if len(universe) != len(values):
            raise DomainError("universe and values lengths differ")
        lookup = dict(zip(universe, values))
        if len(lookup) != len(universe):
            raise DomainError("duplicate variable in universe")
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "values", values)
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


# Most clauses any CNF built by `cnf_clauses` (for `to_clausal`) may hold,
# at any step of the expansion. A disjunction of 13 two-literal terms
# already expands to 8,192 clauses.
MAX_CNF_CLAUSES = 4096


def cnf_clauses(f: Formula) -> tuple[Clause, ...]:
    """A CNF of `f` over its own variables, as a tuple of clauses.

    Uses negation push-down plus distributive expansion; no auxiliary
    variables are introduced (they would surface as spurious graph nodes
    downstream). Tautological and strictly redundant clauses are pruned.
    The expansion is exponential in the worst case, so it raises
    `ResourceCapError` before any step would hold more than
    `MAX_CNF_CLAUSES` clauses. `normalize.to_clausal` is its one caller:
    a query formula is never expanded (see `semantics._gate_clauses`).
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


class WeightedBase(_Value):
    """A multiset of weighted formulas over an ordered variable universe.

    Weights are coerced by `as_weight` unless already a `Fraction`, and
    range-checked on the numerator and denominator. Weight-0 entries are
    vacuous and dropped on construction. Duplicate entries (same formula,
    several weights) are legal; only the maximum weight is semantically
    effective, and the normalize pass merges them.
    """

    _fields = ("entries", "variables")
    # `_levels`: the weight levels `semantics` builds on first use and
    # keeps; not a field, so they take no part in equality or pickling.
    __slots__ = (*_fields, "_levels")
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
            # A `Fraction`'s denominator is positive, so integer tests
            # suffice: no `Fraction` comparison runs.
            top = weight.numerator
            if not 0 <= top <= weight.denominator:
                raise DomainError(f"weight {weight} outside [0, 1]")
            if not top:
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
            # By name: a `str` caches its hash, while a `Var` is a tuple
            # that combines its name's hash again on every call.
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
        object.__setattr__(self, "_levels", None)

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


class Distribution(_Value):
    """A possibility distribution: every interpretation of the universe is
    mapped to an exact degree in [0, 1].

    Values are stored positionally in the enumeration order of
    `interpretations(universe)`, read as a table's degrees are (`_degrees`).
    """

    __slots__ = _fields = ("universe", "values")
    universe: tuple[Var, ...]
    values: tuple[Fraction, ...]

    def __init__(self, universe: Iterable[Var], values: Iterable[object]):
        universe = tuple(universe)
        cooked = _degrees(values)
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

"""Text formats: the weighted-base grammar, the network JSON schema and
DOT export.

Base files hold one entry per line, `WEIGHT: FORMULA`, where WEIGHT is an
exact rational (`2/3`, `.4`, `1`) in (0, 1] and FORMULA uses `!`, `&`,
`|`, parentheses, identifiers and the constants `true`/`false`. A `#`
starts a comment. An optional leading `vars a b c` line fixes the
universe and its order; otherwise variables are inferred in order of
first appearance. Serialized weights are always written `p/q`, so nothing
ever drifts through decimal rendering.
"""

from __future__ import annotations

import re
import warnings
from fractions import Fraction
from itertools import chain, product
from operator import itemgetter
from typing import Iterator

from . import compiler
from .errors import DomainError, NetworkSchemaError, ParseError
from .model import (
    And,
    Clause,
    Const,
    Formula,
    Literal,
    Not,
    Or,
    RESERVED_NAMES,
    Var,
    WeightedBase,
    negate,
    vars_of,
)
from .network import CPT, Network, _column, check_normalization

_NUM = r"\d+/\d+|\d*\.\d+|\d+"
_NAME = r"[A-Za-z][A-Za-z0-9_]*"
_TOKEN_RE = re.compile(rf"\s*(?:(?P<num>{_NUM})|(?P<name>{_NAME})|(?P<op>[!&|():]))")

# A clausal entry line, `WEIGHT: LITERAL | ... | LITERAL`, spaced as the
# tokenizer allows: the weight and the body, whose literals `_LITERAL_RE`
# finds as (bang, name) pairs. Each token here is one the tokenizer would
# read whole, so the line means what the general parser makes of it. Each
# run of whitespace has one place in the pattern (the space after a `!` is
# taken only with the `!`), so a line that fails to match fails in time
# linear in its length, not after trying every split of its spaces.
_LITERAL = rf"(?:!\s*)?{_NAME}"
_CLAUSE_LINE_RE = re.compile(
    rf"\s*({_NUM})\s*:\s*({_LITERAL}(?:\s*\|\s*{_LITERAL})*)\s*"
)
_LITERAL_RE = re.compile(rf"(!?)\s*({_NAME})")

# Deepest `(`/`!` nesting a formula may have. The parser and every later
# walk over the formula tree recurse once per level, so the cap keeps them
# all far from Python's recursion limit.
MAX_NESTING = 100


class NormalizationWarning(UserWarning):
    """A parsed network has CPT columns that never reach degree 1."""


def _tokenize(line: str, lineno: int) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(line):
        m = _TOKEN_RE.match(line, pos)
        if m is None:
            rest = line[pos:].lstrip()
            if not rest:
                break
            col = len(line) - len(rest) + 1
            raise ParseError(f"unexpected character {rest[0]!r}", lineno, col)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind) + 1))
        pos = m.end()
    return tokens


class _FormulaParser:
    """Recursive descent over the token list: `|` binds loosest, then `&`,
    then `!`. A `!` applied to a literal is folded into the literal."""

    def __init__(self, tokens, lineno, line_length):
        self.tokens = tokens
        self.lineno = lineno
        self.line_length = line_length
        self.pos = 0
        self.depth = 0

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _fail(self, message, token=None):
        col = token[2] if token else self.line_length + 1
        raise ParseError(message, self.lineno, col)

    def parse(self) -> Formula:
        f = self._or()
        tok = self._peek()
        if tok is not None:
            self._fail(f"unexpected {tok[1]!r}", tok)
        return f

    def _or(self) -> Formula:
        parts = [self._and()]
        while (tok := self._peek()) and tok[1] == "|":
            self.pos += 1
            parts.append(self._and())
        # `a | (b | c)` reads as `a | b | c`, as it is written back.
        parts = [q for p in parts for q in (p.parts if isinstance(p, Or) else (p,))]
        return parts[0] if len(parts) == 1 else Or(parts)

    def _and(self) -> Formula:
        parts = [self._unary()]
        while (tok := self._peek()) and tok[1] == "&":
            self.pos += 1
            parts.append(self._unary())
        # `a & (b & c)` reads as `a & b & c`, as it is written back.
        parts = [q for p in parts for q in (p.parts if isinstance(p, And) else (p,))]
        return parts[0] if len(parts) == 1 else And(parts)

    def _unary(self) -> Formula:
        tok = self._peek()
        if tok is None:
            self._fail("formula ends unexpectedly")
        kind, text, _ = tok
        if text in ("!", "("):
            self.depth += 1
            if self.depth > MAX_NESTING:
                self._fail(f"formula nested deeper than {MAX_NESTING} levels", tok)
            self.pos += 1
            if text == "!":
                inner = self._unary()
                inner = negate(inner) if isinstance(inner, Literal) else Not(inner)
            else:
                inner = self._or()
                closing = self._peek()
                if closing is None or closing[1] != ")":
                    self._fail("missing closing parenthesis", closing)
                self.pos += 1
            self.depth -= 1
            return inner
        if kind == "name":
            self.pos += 1
            if text == "true":
                return Const(True)
            if text == "false":
                return Const(False)
            if text == "vars":
                self._fail("'vars' is reserved", tok)
            return Literal(Var(text))
        self._fail(f"unexpected {text!r}", tok)


def _as_clause_if_flat(f: Formula) -> Formula:
    """Turn a disjunction of plain literals (or a single literal) into a
    Clause, so files that are already clausal parse as clausal bases."""
    if isinstance(f, Literal):
        return Clause((f,))
    if isinstance(f, Or) and all(isinstance(p, Literal) for p in f.parts):
        return Clause(f.parts)
    return f


def parse_formula(text: str) -> Formula:
    """Parse a single formula (used for CLI query/context arguments)."""
    tokens = _tokenize(text, 1)
    if not tokens:
        raise ParseError("empty formula", 1, 1)
    return _FormulaParser(tokens, 1, len(text)).parse()


def _entry_weight(
    text: str, weights: dict[str, Fraction], lineno: int, col: int
) -> Fraction:
    """The weight an entry's weight text gives: looked up in the parse's
    table, or parsed, checked to lie in (0, 1] and added on first sight.
    Both readers of an entry call it, so they raise one error for it."""
    weight = weights.get(text)
    if weight is None:
        try:
            weight = Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad weight {text!r}", lineno, col) from None
        # A `Fraction`'s denominator is positive.
        if not 0 < weight.numerator <= weight.denominator:
            raise ParseError(f"weight {text} outside (0, 1]", lineno, col)
        weights[text] = weight
    return weight


def _check_declared(names: set[str], declared: set[str], lineno: int, col: int) -> None:
    """Refuse an entry, whose body starts at `col`, that names a variable
    the vars line does not list."""
    extra = names - declared
    if extra:
        listed = ", ".join(sorted(extra))
        raise ParseError(f"undeclared variable(s): {listed}", lineno, col)


def _clause_entry(
    match: re.Match,
    lineno: int,
    weights: dict[str, Fraction],
    literals: dict[tuple[str, str], Literal],
    declared: set[str] | None,
) -> tuple[Clause, Fraction] | None:
    """The entry of a line `_CLAUSE_LINE_RE` matched, read off the match,
    with each signed name looked up in the parse's table and added on
    first sight. None when a name is reserved: `true` and `false` are
    constants, not literals, and `vars` is refused, so the general parser
    must read the line."""
    weight_text, body = match.groups()
    weight = _entry_weight(weight_text, weights, lineno, match.start(1) + 1)
    found = []
    new = False
    for signed in _LITERAL_RE.findall(body):
        lit = literals.get(signed)
        if lit is None:
            bang, name = signed
            if name in RESERVED_NAMES:
                return None
            lit = literals[signed] = Literal(Var(name), not bang)
            new = True
        found.append(lit)
    # A literal met on an earlier line passed this check there: a vars
    # line after an entry is refused.
    if new and declared is not None:
        _check_declared({lit.var.name for lit in found}, declared, lineno, match.start(2) + 1)
    return Clause(found), weight


def parse_base(text: str) -> WeightedBase:
    """Parse the base grammar described in the module docstring.

    A line that is a clause, `WEIGHT: LITERAL | ... | LITERAL` however
    spaced, is read by one match (`_CLAUSE_LINE_RE`) and `_clause_entry`,
    which builds each distinct literal once per call. Every other line,
    and a clausal one that names a constant or `vars`, goes to the
    tokenizer and the recursive-descent parser. Both readers take the
    weight from `_entry_weight`, which parses each distinct weight text
    once per call, and check names with `_check_declared`, so a line gives
    the same entry or the same `ParseError`, with its line and column,
    whichever reads it."""
    declared: tuple[Var, ...] | None = None
    declared_names: set[str] | None = None
    entries = []
    weights: dict[str, Fraction] = {}
    literals: dict[tuple[str, str], Literal] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        hash_at = raw.find("#")
        line = raw if hash_at < 0 else raw[:hash_at]
        clausal = _CLAUSE_LINE_RE.fullmatch(line)
        if clausal is not None:
            entry = _clause_entry(clausal, lineno, weights, literals, declared_names)
            if entry is not None:
                entries.append(entry)
                continue
        if not line.strip():
            continue
        tokens = _tokenize(line, lineno)
        if not tokens:
            continue
        if tokens[0][:2] == ("name", "vars"):
            if declared is not None:
                raise ParseError("duplicate vars line", lineno, tokens[0][2])
            if entries:
                raise ParseError(
                    "vars line must precede all entries", lineno, tokens[0][2]
                )
            names = []
            for kind, name, col in tokens[1:]:
                if kind != "name" or name in RESERVED_NAMES:
                    raise ParseError(f"bad variable name {name!r}", lineno, col)
                names.append(name)
            if not names:
                raise ParseError("vars line lists no variables", lineno, tokens[0][2])
            if len(set(names)) != len(names):
                raise ParseError("vars line repeats a variable", lineno, tokens[0][2])
            declared = tuple(Var(n) for n in names)
            declared_names = set(names)
            continue
        kind, weight_text, col = tokens[0]
        if kind != "num":
            raise ParseError("entry must start with a weight", lineno, col)
        if len(tokens) < 2 or tokens[1][1] != ":":
            raise ParseError("expected ':' after the weight", lineno, col + len(weight_text))
        weight = _entry_weight(weight_text, weights, lineno, col)
        body = tokens[2:]
        if not body:
            raise ParseError("entry has no formula", lineno, len(line) + 1)
        formula = _FormulaParser(body, lineno, len(line)).parse()
        formula = _as_clause_if_flat(formula)
        if declared_names is not None:
            names = {v.name for v in vars_of(formula)}
            _check_declared(names, declared_names, lineno, body[0][2])
        entries.append((formula, weight))
    try:
        return WeightedBase(entries, declared)
    except DomainError as exc:
        raise ParseError(str(exc), len(text.splitlines()) or 1, 1) from exc


# ---------------------------------------------------------------------------
# rendering


def _weight_text(w: Fraction) -> str:
    return f"{w.numerator}/{w.denominator}"


def render_formula(f: Formula, _parent_prec: int = 0) -> str:
    """Render a formula in the input grammar. Precedence: `|` 1, `&` 2,
    `!` 3; parentheses appear only where needed."""
    if isinstance(f, Const):
        return "true" if f.value else "false"
    if isinstance(f, Literal):
        return str(f)
    if isinstance(f, Clause):
        if not f.literals:
            return "false"
        return f"({f})" if len(f) > 1 and _parent_prec > 1 else str(f)
    if isinstance(f, Not):
        return "!" + render_formula(f.operand, 3)
    if isinstance(f, (And, Or)):
        if not f.parts:
            return "true" if isinstance(f, And) else "false"
        prec = 2 if isinstance(f, And) else 1
        sep = " & " if isinstance(f, And) else " | "
        body = sep.join(render_formula(p, prec) for p in f.parts)
        return f"({body})" if prec < _parent_prec else body
    raise TypeError(f"not a formula: {f!r}")


def serialize_base(b: WeightedBase) -> str:
    """Canonical text for a base: a vars line followed by entries sorted
    by descending weight then rendered form. Equal bases always produce
    identical bytes; weights are written `p/q`."""
    lines = []
    if b.variables:
        lines.append("vars " + " ".join(v.name for v in b.variables))
    rendered = sorted(
        ((w, render_formula(f)) for f, w in b.entries),
        key=lambda pair: (-pair[0], pair[1]),
    )
    lines.extend(f"{_weight_text(w)}: {body}" for w, body in rendered)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# network JSON


def _json_list(items: list[str], indent: str) -> str:
    """A JSON array of already rendered items, laid out as
    `json.dumps(..., indent=2)` lays it out at depth `indent`."""
    if not items:
        return "[]"
    inner = indent + "  "
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"


def serialize_network(n: Network) -> str:
    """Canonical JSON for a network; parse_network inverts it exactly and
    re-serialization is byte-identical. The text is the concatenation of
    `network_pieces`."""
    return "".join(network_pieces(n))


def network_pieces(n: Network) -> Iterator[str]:
    """The text of `serialize_network`, a piece at a time: one piece per
    CPT column and a few per node, so that a writer never holds the whole
    text.

    The text is what `json.dumps(doc, indent=2, sort_keys=True)` gives for
    the document {"nodes": [{"cpt": [{"assignment": {parent: value},
    "polarity": ..., "weight": "p/q"}], "parents": [...], "var": ...}],
    "ordering": [...]}, written directly: with an indent, json falls back
    to its pure-Python encoder. Names match `[A-Za-z][A-Za-z0-9_]*` and
    weights are `p/q`, so no string needs escaping. A table always has a
    column, so no cell list is empty.
    """
    yield '{\n  "nodes": [' if n.nodes else '{\n  "nodes": []'
    node_sep = "\n    "
    for cpt in n.nodes:
        names = [p.name for p in cpt.parents]
        yield f'{node_sep}{{\n      "cpt": [\n        '
        node_sep = ",\n    "
        # Column i's assignment is the i-th of the products of each
        # parent's false and true fields, written in name order.
        fields = [
            (f'            "{name}": false', f'            "{name}": true') for name in names
        ]
        order = sorted(range(len(names)), key=names.__getitem__)
        # itemgetter of a single index would return a bare field.
        by_name = itemgetter(*order) if len(order) > 1 else tuple
        texts = (
            ("{\n" + ",\n".join(by_name(fs)) + "\n          }" for fs in product(*fields))
            if names
            else ("{}",)
        )
        # The columns share a few degree objects; each is rendered once.
        distinct = {id(w): w for w in chain(cpt.neg, cpt.pos)}
        rendered = {key: _weight_text(w) for key, w in distinct.items()}
        negs = map(rendered.__getitem__, map(id, cpt.neg))
        poss = map(rendered.__getitem__, map(id, cpt.pos))
        cell_sep = ""
        for text, neg, pos in zip(texts, negs, poss):
            yield (
                f'{cell_sep}{{\n          "assignment": {text},'
                f'\n          "polarity": false,'
                f'\n          "weight": "{neg}"\n        }},'
                f'\n        {{\n          "assignment": {text},'
                f'\n          "polarity": true,'
                f'\n          "weight": "{pos}"\n        }}'
            )
            cell_sep = ",\n        "
        parents = _json_list([f'"{name}"' for name in names], "      ")
        yield (
            f'\n      ],\n      "parents": {parents},'
            f'\n      "var": "{cpt.var.name}"\n    }}'
        )
    ordering = _json_list([f'"{v.name}"' for v in n.variables], "  ")
    yield ("\n  ]," if n.nodes else ",") + f'\n  "ordering": {ordering}\n}}\n'


def _schema_fail(message: str):
    raise NetworkSchemaError(message)


class _Exponent:
    """A JSON number written with an exponent, kept as its text."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text

    def __repr__(self) -> str:
        return self.text


def _json_number(text: str) -> Fraction | _Exponent:
    """A JSON number with a fraction part or an exponent, read from its
    decimal text, so that `0.30000000000000001` is the `Fraction` its
    digits spell, as the same digits in a string are, not the nearest
    binary float. One written with an exponent is kept as an `_Exponent`,
    which `_cell_weight` refuses, as it refuses a string weight with one."""
    return _Exponent(text) if "e" in text or "E" in text else Fraction(text)


def _cell_weight(weight_text, name: str) -> Fraction:
    """A CPT cell's weight, checked: no exponent, a rational, in [0, 1]."""
    if isinstance(weight_text, _Exponent) or (
        isinstance(weight_text, str) and "e" in weight_text.lower()
    ):
        # Fraction("1e-999999999") would build a billion-digit integer.
        _schema_fail(f"weight {weight_text!r} in cpt of {name} has an exponent")
    try:
        weight = Fraction(str(weight_text))
    except (ValueError, ZeroDivisionError) as exc:
        raise NetworkSchemaError(f"bad weight {weight_text!r} in cpt of {name}") from exc
    if not 0 <= weight <= 1:
        _schema_fail(f"weight {weight_text} of {name} outside [0, 1]")
    return weight


def parse_network(text: str) -> Network:
    """Parse and validate the network JSON schema. Structural violations
    (missing cells, cyclic parents, malformed weights, a node with more
    parents than `compiler.MAX_CPT_CELLS` allows) are errors; columns that
    never reach 1 only provoke a NormalizationWarning."""
    import json  # here, its one user, so `import posslog` does not load it

    try:
        doc = json.loads(text, parse_float=_json_number)
    except (ValueError, RecursionError) as exc:
        # ValueError also covers numbers longer than Python converts, and
        # RecursionError arrays or objects nested past the recursion limit.
        raise NetworkSchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "nodes" not in doc:
        _schema_fail("document must be an object with a 'nodes' list")
    raw_nodes = doc["nodes"]
    if not isinstance(raw_nodes, list):
        _schema_fail("'nodes' must be a list")
    by_name: dict[str, CPT] = {}
    parsed: dict[str, Fraction] = {}  # each distinct weight string, checked
    for raw in raw_nodes:
        if not isinstance(raw, dict):
            _schema_fail("each node must be an object")
        try:
            name = raw["var"]
            parents = raw["parents"]
            cells = raw["cpt"]
        except KeyError as exc:
            _schema_fail(f"node missing field {exc.args[0]!r}")
        if not isinstance(parents, list) or not all(isinstance(p, str) for p in parents):
            _schema_fail(f"'parents' of {name} must be a list of names")
        try:
            var = Var(name)
            parent_vars = tuple(Var(p) for p in parents)
        except (DomainError, TypeError) as exc:
            raise NetworkSchemaError(f"bad node naming: {exc}") from exc
        size = 2 << len(parent_vars)
        if size > compiler.MAX_CPT_CELLS:
            _schema_fail(
                f"the table of {name} would have {size} cells,"
                f" more than the cap of {compiler.MAX_CPT_CELLS}"
            )
        parent_names = {p.name for p in parent_vars}
        if not isinstance(cells, list):
            _schema_fail(f"cpt of {name} must be a list")
        if len(cells) != size:
            _schema_fail(f"table for {name} must define exactly {size} cells")
        # With the count right, a table with no cell given twice is complete.
        columns = ([None] * (size >> 1), [None] * (size >> 1))
        for cell in cells:
            if not isinstance(cell, dict):
                _schema_fail(f"cpt cell of {name} must be an object")
            try:
                assignment_doc = cell["assignment"]
                polarity = cell["polarity"]
                weight_text = cell["weight"]
            except KeyError as exc:
                _schema_fail(f"cpt cell of {name} missing {exc.args[0]!r}")
            if not isinstance(assignment_doc, dict):
                _schema_fail(f"assignment in cpt of {name} must be an object")
            if assignment_doc.keys() != parent_names:
                _schema_fail(f"cpt cell of {name} does not assign exactly its parents")
            assignment = tuple(assignment_doc[p.name] for p in parent_vars)
            if not all(isinstance(v, bool) for v in (*assignment, polarity)):
                _schema_fail(f"cpt cell of {name} has a non-boolean polarity or value")
            if isinstance(weight_text, str):
                # Keyed by the string only: True == 1 must not find "1".
                weight = parsed.get(weight_text)
                if weight is None:
                    weight = parsed[weight_text] = _cell_weight(weight_text, name)
            else:
                weight = _cell_weight(weight_text, name)
            column, i = columns[polarity], _column(assignment)
            if column[i] is not None:
                _schema_fail(f"duplicate cpt cell in {name}")
            column[i] = weight
        try:
            cpt = CPT(var, parent_vars, *columns)
        except DomainError as exc:
            raise NetworkSchemaError(str(exc)) from exc
        if var.name in by_name:
            _schema_fail(f"duplicate node {name!r}")
        by_name[var.name] = cpt
    ordering = doc.get("ordering")
    if ordering is not None:
        if (
            not isinstance(ordering, list)
            or not all(isinstance(name, str) for name in ordering)
            or set(ordering) != set(by_name)
        ):
            _schema_fail("'ordering' must be a list of names, each node exactly once")
        nodes = [by_name[name] for name in ordering]
    else:
        nodes = list(by_name.values())
    net = Network(nodes)
    violations = check_normalization(net)
    if violations:
        warnings.warn(
            f"{len(violations)} CPT column(s) never reach degree 1",
            NormalizationWarning,
            stacklevel=2,
        )
    return net


# ---------------------------------------------------------------------------
# DOT


def export_dot(n: Network) -> str:
    """Render the DAG as a DOT digraph: one node per variable (roots show
    their prior pair), one edge per parent link, deterministic order."""
    lines = ["digraph possibilistic_network {"]
    for cpt in n.nodes:
        if cpt.parents:
            label = f"{cpt.var.name}\\n{2 * len(cpt.neg)} cells"
        else:
            label = (
                f"{cpt.var.name}\\nprior {_weight_text(cpt.pos[0])}"
                f" : {_weight_text(cpt.neg[0])}"
            )
        lines.append(f'  "{cpt.var.name}" [label="{label}"];')
    for cpt in n.nodes:
        for p in cpt.parents:
            lines.append(f'  "{p.name}" -> "{cpt.var.name}";')
    lines.append("}")
    return "\n".join(lines) + "\n"

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

import json
import re
import warnings
from fractions import Fraction

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
    Var,
    WeightedBase,
    negate,
    vars_of,
)
from .network import CPT, Network, check_normalization

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+/\d+|\d*\.\d+|\d+)|(?P<name>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<op>[!&|():]))"
)

_KEYWORDS = {"true", "false", "vars"}

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
        return parts[0] if len(parts) == 1 else Or(parts)

    def _and(self) -> Formula:
        parts = [self._unary()]
        while (tok := self._peek()) and tok[1] == "&":
            self.pos += 1
            parts.append(self._unary())
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


def parse_formula(text: str, lineno: int = 1) -> Formula:
    """Parse a single formula (used for CLI query/context arguments)."""
    tokens = _tokenize(text, lineno)
    if not tokens:
        raise ParseError("empty formula", lineno, 1)
    return _FormulaParser(tokens, lineno, len(text)).parse()


def parse_base(text: str) -> WeightedBase:
    """Parse the base grammar described in the module docstring."""
    declared: tuple[Var, ...] | None = None
    entries = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        hash_at = raw.find("#")
        line = raw if hash_at < 0 else raw[:hash_at]
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
                if kind != "name" or name in _KEYWORDS:
                    raise ParseError(f"bad variable name {name!r}", lineno, col)
                names.append(name)
            if not names:
                raise ParseError("vars line lists no variables", lineno, tokens[0][2])
            if len(set(names)) != len(names):
                raise ParseError("vars line repeats a variable", lineno, tokens[0][2])
            declared = tuple(Var(n) for n in names)
            continue
        kind, weight_text, col = tokens[0]
        if kind != "num":
            raise ParseError("entry must start with a weight", lineno, col)
        if len(tokens) < 2 or tokens[1][1] != ":":
            raise ParseError("expected ':' after the weight", lineno, col + len(weight_text))
        try:
            weight = Fraction(weight_text)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad weight {weight_text!r}", lineno, col) from None
        if not 0 < weight <= 1:
            raise ParseError(f"weight {weight_text} outside (0, 1]", lineno, col)
        body = tokens[2:]
        if not body:
            raise ParseError("entry has no formula", lineno, len(line) + 1)
        formula = _FormulaParser(body, lineno, len(line)).parse()
        formula = _as_clause_if_flat(formula)
        if declared is not None:
            extra = vars_of(formula) - set(declared)
            if extra:
                names = ", ".join(sorted(v.name for v in extra))
                raise ParseError(f"undeclared variable(s): {names}", lineno, body[0][2])
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


_JSON_BOOL = ("false", "true")


def _json_list(items: list[str], indent: str) -> str:
    """A JSON array of already rendered items, laid out as
    `json.dumps(..., indent=2)` lays it out at depth `indent`."""
    if not items:
        return "[]"
    inner = indent + "  "
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"


def serialize_network(n: Network) -> str:
    """Canonical JSON for a network; parse_network inverts it exactly and
    re-serialization is byte-identical.

    The text is what `json.dumps(doc, indent=2, sort_keys=True)` gives for
    the document {"nodes": [{"cpt": [{"assignment": {parent: value},
    "polarity": ..., "weight": "p/q"}], "parents": [...], "var": ...}],
    "ordering": [...]}, written directly: with an indent, json falls back
    to its pure-Python encoder. Names match `[A-Za-z][A-Za-z0-9_]*` and
    weights are `p/q`, so no string needs escaping.
    """
    nodes = []
    for cpt in n.nodes:
        names = [p.name for p in cpt.parents]
        by_name = sorted(range(len(names)), key=names.__getitem__)
        assignments: dict[tuple[bool, ...], str] = {}
        cells = []
        for assignment, polarity, weight in cpt.cells:
            text = assignments.get(assignment)
            if text is None:
                if names:
                    text = (
                        "{\n"
                        + ",\n".join(
                            f'            "{names[j]}": {_JSON_BOOL[assignment[j]]}'
                            for j in by_name
                        )
                        + "\n          }"
                    )
                else:
                    text = "{}"
                assignments[assignment] = text
            cells.append(
                f'{{\n          "assignment": {text},'
                f'\n          "polarity": {_JSON_BOOL[polarity]},'
                f'\n          "weight": "{_weight_text(weight)}"\n        }}'
            )
        parents = _json_list([f'"{name}"' for name in names], "      ")
        nodes.append(
            f'{{\n      "cpt": {_json_list(cells, "      ")},'
            f'\n      "parents": {parents},'
            f'\n      "var": "{cpt.var.name}"\n    }}'
        )
    ordering = _json_list([f'"{v.name}"' for v in n.variables], "  ")
    return f'{{\n  "nodes": {_json_list(nodes, "  ")},\n  "ordering": {ordering}\n}}\n'


def _schema_fail(message: str):
    raise NetworkSchemaError(message)


def parse_network(text: str) -> Network:
    """Parse and validate the network JSON schema. Structural violations
    (missing cells, cyclic parents, malformed weights, a node with more
    parents than `compiler.MAX_CPT_CELLS` allows) are errors; columns that
    never reach 1 only provoke a NormalizationWarning."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError also covers integers longer than Python converts, and
        # RecursionError arrays or objects nested past the recursion limit.
        raise NetworkSchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "nodes" not in doc:
        _schema_fail("document must be an object with a 'nodes' list")
    raw_nodes = doc["nodes"]
    if not isinstance(raw_nodes, list):
        _schema_fail("'nodes' must be a list")
    by_name: dict[str, CPT] = {}
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
        if 2 << len(parent_vars) > compiler.MAX_CPT_CELLS:
            _schema_fail(
                f"the table of {name} would have {2 << len(parent_vars)} cells,"
                f" more than the cap of {compiler.MAX_CPT_CELLS}"
            )
        table = {}
        if not isinstance(cells, list):
            _schema_fail(f"cpt of {name} must be a list")
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
            if set(assignment_doc) != {p.name for p in parent_vars}:
                _schema_fail(f"cpt cell of {name} does not assign exactly its parents")
            assignment = tuple(assignment_doc[p.name] for p in parent_vars)
            if not all(isinstance(v, bool) for v in (*assignment, polarity)):
                _schema_fail(f"cpt cell of {name} has a non-boolean polarity or value")
            if isinstance(weight_text, str) and "e" in weight_text.lower():
                # Fraction("1e-999999999") would build a billion-digit integer.
                _schema_fail(f"weight {weight_text!r} in cpt of {name} has an exponent")
            try:
                weight = Fraction(str(weight_text))
            except (ValueError, ZeroDivisionError) as exc:
                raise NetworkSchemaError(
                    f"bad weight {weight_text!r} in cpt of {name}"
                ) from exc
            if not 0 <= weight <= 1:
                _schema_fail(f"weight {weight_text} of {name} outside [0, 1]")
            key = (assignment, polarity)
            if key in table:
                _schema_fail(f"duplicate cpt cell in {name}")
            table[key] = weight
        try:
            cpt = CPT(var, parent_vars, table)
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
            label = f"{cpt.var.name}\\n{len(cpt.cells)} cells"
        else:
            pos = cpt.cell((), True)
            neg = cpt.cell((), False)
            label = (
                f"{cpt.var.name}\\nprior {_weight_text(pos)} : {_weight_text(neg)}"
            )
        lines.append(f'  "{cpt.var.name}" [label="{label}"];')
    for cpt in n.nodes:
        for p in cpt.parents:
            lines.append(f'  "{p.name}" -> "{cpt.var.name}";')
    lines.append("}")
    return "\n".join(lines) + "\n"

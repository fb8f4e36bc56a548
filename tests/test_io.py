import json
import random
import re
import signal
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from posslog import (
    CPT,
    And,
    Clause,
    Const,
    Literal,
    Network,
    Not,
    NetworkSchemaError,
    Or,
    ParseError,
    Var,
    WeightedBase,
    compile_network,
    distribution_of_base,
    export_dot,
    parse_base,
    parse_formula,
    parse_network,
    serialize_base,
    serialize_network,
)
from posslog import compiler, model
from posslog import io as base_io
from posslog.io import MAX_NESTING, NormalizationWarning, network_pieces, render_formula

import helpers
from helpers import (
    A1,
    A2,
    A3,
    SE,
    SU,
    WI,
    X,
    Y,
    clause,
    neg,
    pos,
    random_clausal_base,
    random_formula,
)

F = Fraction

WEATHER_TEXT = """\
# beach-day goals
vars su wi se
2/3: su | !wi
1/3: !wi | se
1/3: wi | !se
1/3: su | se
"""


class TestParseBase:
    def test_weather_file(self, weather):
        parsed = parse_base(WEATHER_TEXT)
        assert parsed == weather

    def test_decimal_weights_parse_exactly(self):
        b = parse_base(".4: a2 | a1\n.7: a3\n")
        assert set(b.entries) == {
            (clause(pos(A2), pos(A1)), F(2, 5)),
            (clause(pos(A3)), F(7, 10)),
        }
        # clause literals are a set, so within one entry variables appear
        # in name order
        assert b.variables == (A1, A2, A3)

    def test_empty_and_comment_only_input(self):
        assert parse_base("").entries == ()
        assert parse_base("# nothing here\n\n").entries == ()

    def test_vars_line_fixes_universe_order(self):
        b = parse_base("vars se wi su\n1/3: su | se\n")
        assert b.variables == (SE, WI, SU)

    def test_general_formulas(self):
        b = parse_base("1/2: x & (y | !x)\n")
        (entry,) = b.entries
        assert not isinstance(entry[0], Clause)

    def test_constants(self):
        b = parse_base("1/2: false\n")
        assert len(b.entries) == 1

    @pytest.mark.parametrize(
        "text,line",
        [
            ("1/3 su\n", 1),
            ("x | y\n", 1),
            ("1/3: su |\n", 1),
            ("1/3: (su\n", 1),
            ("1/3: su\n0: wi\n", 2),
            ("3/2: su\n", 1),
            ("1/3: su\nvars su\n", 2),
            ("vars su\nvars su\n", 2),
            ("vars su\n1/3: wi\n", 2),
            ("1/3: su ? wi\n", 1),
            ("1/0: a\n", 1),
            ("vars\n", 1),
            ("vars a a\n", 1),
            ("vars a true\n", 1),
            ("1/2:\n", 1),
            ("1/2: a | vars\n", 1),
        ],
    )
    def test_syntax_errors_carry_position(self, text, line):
        with pytest.raises(ParseError) as err:
            parse_base(text)
        assert err.value.line == line
        assert err.value.column >= 1

    @pytest.mark.parametrize(
        "nest",
        [
            lambda k: "(" * k + "x | y" + ")" * k,
            lambda k: "!" * k + "x",
            lambda k: "!(x & " * (k // 2) + "y" + ")" * (k // 2),
        ],
        ids=["parentheses", "negations", "alternating"],
    )
    def test_nesting_cap(self, nest):
        parse_formula(nest(MAX_NESTING))
        parse_base(f"1/2: {nest(MAX_NESTING)}\n")
        with pytest.raises(ParseError) as err:
            parse_formula(nest(MAX_NESTING + 2))
        assert "nested deeper" in str(err.value)
        with pytest.raises(ParseError):
            parse_base(f"1/2: {nest(MAX_NESTING + 2)}\n")

    @pytest.mark.parametrize("text", ["", ")", "a b"])
    def test_formula_syntax_errors(self, text):
        with pytest.raises(ParseError) as err:
            parse_formula(text)
        assert err.value.line == 1

    def test_vars_line_check_hashes_linearly(self, monkeypatch):
        """The undeclared-variable check builds the declared set once, not
        once per entry: 300 variables and 300 entries took 91,800 `Var`
        hashes when it was rebuilt per entry, and take 2,100."""
        n = 300
        names = [f"a{i}" for i in range(n)]
        text = "vars " + " ".join(names) + "\n" + "".join(
            f"1/2: {names[i]} | !{names[(i + 1) % n]}\n" for i in range(n)
        )
        calls = 0
        original = model.Var.__hash__

        def counted(v):
            nonlocal calls
            calls += 1
            return original(v)

        monkeypatch.setattr(model.Var, "__hash__", counted)
        assert len(parse_base(text).entries) == n
        assert calls <= 10 * n

    def test_negations_fold_into_literals(self):
        assert parse_formula("!!!x") == neg(X)
        assert parse_formula("!(x) | y") == Or((neg(X), pos(Y)))
        (entry,) = parse_base("1/2: !x | !!y\n").entries
        assert entry[0] == clause(neg(X), pos(Y))


BASE_NAMES = ("x", "y", "B", "a1")
SPACING = st.sampled_from(["", " ", "  ", "\t", " \t "])
WEIGHT_TEXTS = st.sampled_from(["1", "1/2", ".4", "2/3", "007/10", "10/20"])


@st.composite
def clausal_lines(draw):
    """The lines of a base text of clausal entries, each as the text
    before its clause body, the body (None on a line with no entry) and
    the text after: a vars line or none, then entries, comments and blank
    lines. Entries repeat literals and hold both polarities of a variable,
    spaced anywhere the tokenizer allows."""
    lines = []
    if draw(st.booleans()):
        lines.append((draw(SPACING) + "vars " + " ".join(BASE_NAMES), None, draw(SPACING)))
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["entry", "entry", "entry", "comment", "blank"]))
        if kind == "blank":
            lines.append((draw(SPACING), None, ""))
        elif kind == "comment":
            lines.append((draw(SPACING) + "# 1/2: x | y", None, ""))
        else:
            head = draw(SPACING) + draw(WEIGHT_TEXTS) + draw(SPACING) + ":" + draw(SPACING)
            signed = draw(
                st.lists(st.tuples(st.booleans(), st.sampled_from(BASE_NAMES)), min_size=1, max_size=6)
            )
            body = ""
            for k, (negative, name) in enumerate(signed):
                if k:
                    body += draw(SPACING) + "|" + draw(SPACING)
                body += ("!" + draw(SPACING) if negative else "") + name
            tail = draw(SPACING) + draw(st.sampled_from(["", "# 1/2: z", "#)|"]))
            lines.append((head, body, tail))
    return lines


def _base_text(lines, wrap=str) -> str:
    return "".join(
        head + ("" if body is None else wrap(body)) + tail + "\n" for head, body, tail in lines
    )


class TestClausalLines:
    """A clausal line is read by one match; a clause body in parentheses
    is read by the recursive-descent parser, and must give the same base."""

    @given(clausal_lines())
    @settings(max_examples=200, deadline=None)
    @example([("1/2:", "x|!x|x", ""), (" .4 :\t", "! y | B |!y", "  # c")])
    def test_same_base_as_the_parser(self, lines):
        b = parse_base(_base_text(lines))
        assert b == parse_base(_base_text(lines, lambda body: f"({body})"))
        assert b.is_clausal

    def test_clausal_lines_skip_the_parser(self, weather, monkeypatch):
        # Each distinct weight text is parsed once; the vars line and the
        # comment are tokenized, and no entry reaches the parser.
        parsed = []
        monkeypatch.setattr(base_io, "Fraction", lambda text: parsed.append(text) or F(text))

        def refuse(parser):
            raise AssertionError("a clausal line reached the parser")

        monkeypatch.setattr(base_io._FormulaParser, "parse", refuse)
        assert parse_base(WEATHER_TEXT) == weather
        assert parsed == ["2/3", "1/3"]

    @pytest.mark.parametrize(
        "text,message,line,column",
        [
            ("1/2: a | true\n1/2: b | vars\n", "'vars' is reserved", 2, 10),
            ("1/2: a | b\n1/2: !vars\n", "'vars' is reserved", 2, 7),
            ("vars a b\n1/2: a | !c\n", "undeclared variable(s): c", 2, 6),
            ("vars a b\n1/3: b\n 1/2 :\t!a | zz | !yy\n", "undeclared variable(s): yy, zz", 3, 8),
            ("1/2: a\n0: b\n", "weight 0 outside (0, 1]", 2, 1),
            ("1/2: a | b\n1/2: c\n0/1: b\n", "weight 0/1 outside (0, 1]", 3, 1),
            ("3/2: a\n", "weight 3/2 outside (0, 1]", 1, 1),
            ("1/2: a\n  1/0 : !a\n", "bad weight '1/0'", 2, 3),
            ("1.: a\n", "unexpected character '.'", 1, 2),
        ],
    )
    def test_errors_keep_message_and_position(self, text, message, line, column):
        with pytest.raises(ParseError) as err:
            parse_base(text)
        assert str(err.value) == f"line {line}, column {column}: {message}"
        assert (err.value.line, err.value.column) == (line, column)

    def test_constants_go_to_the_parser(self):
        b = parse_base("1/2: true\n1/2: false | a\n1/3: a | b\n")
        assert b.entries == (
            (Const(True), F(1, 2)),
            (Or((Const(False), pos(Var("a")))), F(1, 2)),
            (clause(pos(Var("a")), pos(Var("b"))), F(1, 3)),
        )

    @pytest.mark.parametrize(
        "tail,message,column",
        [
            (" | (y & z)", None, None),
            (" |", "formula ends unexpectedly", 1),
            (" ;", "unexpected character ';'", 0),
            (" | x0 ;", "unexpected character ';'", 0),
        ],
    )
    def test_long_lines_off_the_clausal_shape_parse_in_linear_time(self, tail, message, column):
        # 60 spaced literals, then a part that no clausal line has: the
        # match must fail at once, not after trying each split of the
        # spaces around every `|` (2**60 of them), and the parser then
        # reads the line or refuses it at its end.
        body = " | ".join(f"x{i}" for i in range(60)) + tail
        line = "1/2: " + body

        def too_slow(signum, frame):
            raise AssertionError("a 60-literal line took over 2 s to parse")

        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.setitimer(signal.ITIMER_REAL, 2.0)
        try:
            if message is None:
                assert parse_base(line).entries == ((parse_formula(body), F(1, 2)),)
            else:
                with pytest.raises(ParseError) as err:
                    parse_base(line)
                assert (err.value.line, err.value.column) == (1, len(line) + column)
                assert str(err.value).endswith(message)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def formulas(variables):
    leaves = st.builds(Const, st.booleans()) | st.just(Clause())
    if variables:
        literals = st.builds(Literal, st.sampled_from(variables), st.booleans())
        leaves = leaves | literals | st.builds(Clause, st.lists(literals, max_size=3))
    return st.recursive(
        leaves,
        lambda inner: st.builds(Not, inner)
        | st.builds(And, st.lists(inner, max_size=3))
        | st.builds(Or, st.lists(inner, max_size=3)),
        max_leaves=6,
    )


@st.composite
def bases(draw):
    """A base over 0-4 variables in any order, whose entries are formulas
    of every shape (clauses nested anywhere, empty conjunctions and
    disjunctions, constants) with weights in (0, 1]."""
    names = draw(st.lists(st.sampled_from(BASE_NAMES), unique=True, max_size=4))
    variables = tuple(Var(name) for name in names)
    weights = st.integers(1, 60).map(lambda k: F(k, 60))
    entries = draw(st.lists(st.tuples(formulas(variables), weights), max_size=5))
    return WeightedBase(entries, variables)


class TestSerializeBase:
    def test_round_trip_is_semantically_identity(self):
        rng = random.Random(101)
        for _ in range(40):
            b = random_clausal_base(rng, rng.randint(1, 4), rng.randint(0, 7))
            again = parse_base(serialize_base(b))
            assert again.variables == b.variables
            assert distribution_of_base(again) == distribution_of_base(b)

    def test_canonical_bytes(self, weather):
        shuffled = WeightedBase(tuple(reversed(weather.entries)), weather.variables)
        assert serialize_base(weather) == serialize_base(shuffled)

    def test_weights_rendered_as_fractions(self, weather):
        text = serialize_base(weather)
        assert "2/3:" in text
        assert "." not in text

    def test_hard_weight_keeps_denominator(self):
        b = WeightedBase([(clause(pos(X)), F(1))], (X,))
        assert "1/1: x" in serialize_base(b)

    @settings(max_examples=300, deadline=None)
    @given(bases())
    @example(WeightedBase([(And((clause(pos(X), pos(Y)), pos(X))), F(1))]))
    @example(WeightedBase([(Or(()), F(1, 2)), (And(()), F(1))], (X,)))
    @example(
        WeightedBase([(Or((neg(X), And((clause(neg(X), pos(X)),)))), F(1, 60))], (X,))
    )
    # Written `x & (y & x)`: the nested conjunction parses flat.
    @example(WeightedBase([(And((pos(X), Or((And((pos(Y), pos(X))),)))), F(1, 2))]))
    def test_round_trip_hypothesis(self, b):
        text = serialize_base(b)
        again = parse_base(text)
        assert again.variables == b.variables
        assert distribution_of_base(again) == distribution_of_base(b)
        # Parsing folds some shapes (double negations, nested conjunctions
        # and disjunctions, one-part conjunctions), so the text is a
        # fixpoint after one round, and a parsed base reads back as itself
        # up to the order of its entries.
        settled = serialize_base(again)
        assert serialize_base(parse_base(settled)) == settled
        assert Counter(parse_base(settled).entries) == Counter(again.entries)
        if all(isinstance(f, Clause) and f.literals for f, _ in b.entries):
            assert settled == text


class TestRenderFormula:
    def test_round_trips_truth(self):
        from posslog import interpretations, satisfies

        rng = random.Random(61)
        universe = (X, Y, SU)
        for _ in range(80):
            f = random_formula(rng, universe)
            again = parse_formula(render_formula(f))
            for w in interpretations(universe):
                assert satisfies(w, f) == satisfies(w, again)

    def test_empty_clause_renders_as_false(self):
        assert render_formula(Clause()) == "false"


class TestNetworkJson:
    def test_golden_cell_present(self, weather):
        net = compile_network(weather, (SE, WI, SU))
        doc = json.loads(serialize_network(net))
        assert doc["ordering"] == ["se", "wi", "su"]
        se_node = next(n for n in doc["nodes"] if n["var"] == "se")
        assert {
            "assignment": {"wi": True, "su": True},
            "polarity": False,
            "weight": "2/3",
        } in se_node["cpt"]

    def test_round_trip_is_byte_identical(self, weather):
        net = compile_network(weather, (SE, WI, SU))
        text = serialize_network(net)
        assert serialize_network(parse_network(text)) == text

    def test_single_root_document(self):
        cpt = CPT(X, (), [F(2, 3)], [F(1)])
        doc = json.loads(serialize_network(Network([cpt])))
        (node,) = doc["nodes"]
        assert node["parents"] == []
        assert len(node["cpt"]) == 2

    def test_missing_cell_rejected(self, weather):
        net = compile_network(weather, (SE, WI, SU))
        doc = json.loads(serialize_network(net))
        doc["nodes"][0]["cpt"].pop()
        with pytest.raises(NetworkSchemaError):
            parse_network(json.dumps(doc))

    def test_duplicate_cell_rejected(self, weather):
        # The count is right, but the first cell is given twice and the
        # last one not at all.
        net = compile_network(weather, (SE, WI, SU))
        doc = json.loads(serialize_network(net))
        cells = doc["nodes"][0]["cpt"]
        cells[-1] = cells[0]
        with pytest.raises(NetworkSchemaError, match="duplicate cpt cell"):
            parse_network(json.dumps(doc))

    def test_cycle_rejected(self):
        doc = {
            "nodes": [
                {
                    "var": "x",
                    "parents": ["y"],
                    "cpt": [
                        {"assignment": {"y": a}, "polarity": p, "weight": "1/1"}
                        for a in (False, True)
                        for p in (False, True)
                    ],
                },
                {
                    "var": "y",
                    "parents": ["x"],
                    "cpt": [
                        {"assignment": {"x": a}, "polarity": p, "weight": "1/1"}
                        for a in (False, True)
                        for p in (False, True)
                    ],
                },
            ]
        }
        with pytest.raises(NetworkSchemaError):
            parse_network(json.dumps(doc))

    def test_bad_weight_rejected(self):
        doc = {
            "nodes": [
                {
                    "var": "x",
                    "parents": [],
                    "cpt": [
                        {"assignment": {}, "polarity": True, "weight": "3/2"},
                        {"assignment": {}, "polarity": False, "weight": "1/1"},
                    ],
                }
            ]
        }
        with pytest.raises(NetworkSchemaError):
            parse_network(json.dumps(doc))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("assignment", ["y"]),
            ("assignment", "y"),
            ("polarity", "false"),
            ("polarity", 1),
            ("value", "false"),
            ("value", 1),
            ("ordering", [["x"]]),
            ("ordering", [1]),
            ("parents", "y"),
            ("parents", {"y": True}),
            ("cell", ["y"]),
            ("assignment", {"z": True}),
            ("assignment", {"y": True, "z": True}),
        ],
    )
    def test_non_boolean_or_malformed_cell_rejected(self, field, value):
        # The edited cell is the all-true one, so a truthy non-boolean
        # would otherwise load as a valid, complete table.
        cells = [
            {"assignment": {"y": a}, "polarity": p, "weight": "1/1"}
            for a in (False, True)
            for p in (False, True)
        ]
        if field == "value":
            cells[-1]["assignment"]["y"] = value
        elif field == "cell":
            cells[-1] = value
        elif field != "ordering":
            cells[-1][field] = value
        doc = {
            "nodes": [
                {"var": "x", "parents": ["y"], "cpt": cells},
                {
                    "var": "y",
                    "parents": [],
                    "cpt": [
                        {"assignment": {}, "polarity": p, "weight": "1/1"}
                        for p in (False, True)
                    ],
                },
            ]
        }
        if field == "ordering":
            doc["ordering"] = value
        if field == "parents":
            doc["nodes"][0]["parents"] = value
        with pytest.raises(NetworkSchemaError):
            parse_network(json.dumps(doc))

    @pytest.mark.parametrize(
        "nodes, message",
        [
            ([("y", []), ("y", [])], "duplicate node 'y'"),
            ([("x", ["x"])], "x cannot be its own parent"),
        ],
        ids=["duplicate-node", "own-parent"],
    )
    def test_node_set_rejected(self, nodes, message):
        doc = {
            "nodes": [
                {
                    "var": name,
                    "parents": parents,
                    "cpt": [
                        {"assignment": dict.fromkeys(parents, a), "polarity": p, "weight": "1"}
                        for a in ((False, True) if parents else (False,))
                        for p in (False, True)
                    ],
                }
                for name, parents in nodes
            ]
        }
        with pytest.raises(NetworkSchemaError, match=message):
            parse_network(json.dumps(doc))

    @pytest.mark.parametrize("name", ["true", "false", "vars"])
    def test_reserved_node_name_rejected(self, name):
        for doc in (
            {"nodes": [{"var": name, "parents": [], "cpt": []}]},
            {"nodes": [{"var": "x", "parents": [name], "cpt": []}]},
        ):
            with pytest.raises(NetworkSchemaError, match="invalid variable name"):
                parse_network(json.dumps(doc))

    def test_table_size_checked_before_enumerating(self, monkeypatch):
        # 40 parents would need 2^41 cells; the node gives 2, and the
        # refusal must come from counting them, not from building the table.
        # The table-size cap, which would refuse the node first, is lifted.
        monkeypatch.setattr(compiler, "MAX_CPT_CELLS", 1 << 50)
        parents = [f"p{i}" for i in range(40)]
        cells = [
            {"assignment": dict.fromkeys(parents, False), "polarity": p, "weight": "1"}
            for p in (False, True)
        ]
        doc = {"nodes": [{"var": "x", "parents": parents, "cpt": cells}]}
        with pytest.raises(NetworkSchemaError, match="exactly"):
            parse_network(json.dumps(doc))

    def test_table_cap(self, weather, monkeypatch):
        text = serialize_network(compile_network(weather, (SE, WI, SU)))
        monkeypatch.setattr(compiler, "MAX_CPT_CELLS", 8)  # se has 2 parents
        assert serialize_network(parse_network(text)) == text
        monkeypatch.setattr(compiler, "MAX_CPT_CELLS", 7)
        with pytest.raises(NetworkSchemaError, match="8 cells, more than the cap of 7"):
            parse_network(text)

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("[" * 100_000 + "]" * 100_000, id="past-recursion-limit"),
            pytest.param('{"nodes": [' + "1" * 5000 + "]}", id="past-int-digit-limit"),
        ],
    )
    def test_hostile_json_rejected(self, text):
        with pytest.raises(NetworkSchemaError):
            parse_network(text)

    def test_exponent_weight_rejected(self):
        # Fraction("1e-999999999") would take minutes and gigabytes, so no
        # string weight may have an exponent, not even a harmless one.
        doc = {
            "nodes": [
                {
                    "var": "x",
                    "parents": [],
                    "cpt": [
                        {"assignment": {}, "polarity": p, "weight": "1e-9"}
                        for p in (False, True)
                    ],
                }
            ]
        }
        with pytest.raises(NetworkSchemaError, match="exponent"):
            parse_network(json.dumps(doc))

    @staticmethod
    def one_node(weight_text):
        """A one-node network whose positive cell's weight is the JSON
        text `weight_text`, and whose negative cell weighs 1."""
        cells = [
            f'{{"assignment": {{}}, "polarity": {p}, "weight": {w}}}'
            for p, w in (("false", "1"), ("true", weight_text))
        ]
        return f'{{"nodes": [{{"var": "x", "parents": [], "cpt": [{", ".join(cells)}]}}]}}'

    def test_number_weight_is_read_from_its_decimal_text(self):
        # 0.30000000000000001 is 3/10 once read as a binary float; both
        # spellings must give the fraction the digits spell.
        exact = Fraction(30000000000000001, 10**17)
        for text in ("0.30000000000000001", '"0.30000000000000001"'):
            assert parse_network(self.one_node(text)).nodes[0].pos == (exact,)
        assert parse_network(self.one_node("0.5")).nodes[0].pos == (Fraction(1, 2),)
        assert parse_network(self.one_node("-0.0")).nodes[0].pos == (0,)

    @pytest.mark.parametrize("text", ["1e-9", "5E-1", "1e-999999999", "0.1e+999999999"])
    def test_number_weight_with_an_exponent_rejected(self, text):
        # As for a string weight: Fraction("1e-999999999") would build a
        # billion-digit integer, so no number weight may have an exponent.
        with pytest.raises(NetworkSchemaError, match="exponent"):
            parse_network(self.one_node(text))

    def test_boolean_weight_rejected_after_equal_numbers(self):
        # Weights are parsed once per distinct string; true == 1, so a
        # cache keyed by value would let the boolean through.
        doc = {
            "nodes": [
                {
                    "var": "x",
                    "parents": [],
                    "cpt": [
                        {"assignment": {}, "polarity": True, "weight": 1},
                        {"assignment": {}, "polarity": False, "weight": "1"},
                    ],
                },
                {
                    "var": "y",
                    "parents": [],
                    "cpt": [
                        {"assignment": {}, "polarity": True, "weight": "1"},
                        {"assignment": {}, "polarity": False, "weight": True},
                    ],
                },
            ]
        }
        with pytest.raises(NetworkSchemaError, match="bad weight True"):
            parse_network(json.dumps(doc))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mutated_documents_raise_only_schema_errors(self, data):
        text = serialize_network(
            compile_network(helpers.weather_base(), (SE, WI, SU))
        )
        doc = json.loads(text)
        for _ in range(data.draw(st.integers(1, 4))):
            doc = mutate(data, doc)
        mutated = json.dumps(doc)
        if data.draw(st.booleans()):
            # Damage the text itself: cut it or splice in a character.
            at = data.draw(st.integers(0, len(mutated)))
            splice = data.draw(st.sampled_from(["", "{", "]", '"', ",", "1", "e9"]))
            cut = data.draw(st.integers(0, 3))
            mutated = mutated[:at] + splice + mutated[at + cut :]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NormalizationWarning)
            try:
                parse_network(mutated)
            except NetworkSchemaError:
                pass

    def test_unnormalized_column_warns_but_parses(self):
        doc = {
            "nodes": [
                {
                    "var": "x",
                    "parents": [],
                    "cpt": [
                        {"assignment": {}, "polarity": True, "weight": "2/3"},
                        {"assignment": {}, "polarity": False, "weight": "1/2"},
                    ],
                }
            ]
        }
        with pytest.warns(NormalizationWarning):
            net = parse_network(json.dumps(doc))
        assert net.variables == (X,)


JSON_KEYS = ("nodes", "ordering", "var", "parents", "cpt", "assignment",
             "polarity", "weight", "su", "wi", "se", "other")

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 3)
    | st.floats(allow_nan=False)
    | st.text(max_size=4)
    | st.sampled_from(["1/2", "1/0", "-1/3", "2", "su", "wi", "se", "x", "1e5"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(JSON_KEYS), inner, max_size=3),
    max_leaves=6,
)


def mutate(data, value):
    """`value` with one place in it replaced, removed or added to."""
    if isinstance(value, (dict, list)) and value and data.draw(st.integers(0, 3)):
        keys = list(value) if isinstance(value, dict) else list(range(len(value)))
        key = data.draw(st.sampled_from(keys))
        copy = dict(value) if isinstance(value, dict) else list(value)
        if data.draw(st.integers(0, 5)) == 0:
            del copy[key]
        else:
            copy[key] = mutate(data, copy[key])
        return copy
    if isinstance(value, dict) and data.draw(st.booleans()):
        return {**value, data.draw(st.sampled_from(JSON_KEYS)): data.draw(json_values)}
    if isinstance(value, list) and data.draw(st.booleans()):
        return [*value, data.draw(json_values)]
    return data.draw(json_values)


# ---------------------------------------------------------------------------
# The network writer against json's own indented, key-sorted rendering of
# the same document.


def json_reference(n: Network) -> str:
    doc = {
        "ordering": [v.name for v in n.variables],
        "nodes": [
            {
                "var": cpt.var.name,
                "parents": [p.name for p in cpt.parents],
                "cpt": [
                    {
                        "assignment": {
                            p.name: v for p, v in zip(cpt.parents, assignment)
                        },
                        "polarity": polarity,
                        "weight": f"{weight.numerator}/{weight.denominator}",
                    }
                    for assignment, polarity, weight in cpt.cells
                ],
            }
            for cpt in n.nodes
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# Upper case sorts before lower case, and "a_" after "a1".
NODE_NAMES = ("a", "b", "z", "B", "Z", "a1", "a_", "a10", "x_y", "Qq")


@st.composite
def networks(draw):
    """Up to 5 nodes listed in any order. The parents of a node come from
    the nodes before it in a separately drawn topological order, listed in
    drawn order, so their name order and their node order both vary."""
    names = draw(st.lists(st.sampled_from(NODE_NAMES), unique=True, max_size=5))
    rank = draw(st.permutations(names))
    weights = st.integers(0, 60).map(lambda k: F(k, 60))
    nodes = []
    for name in names:
        earlier = rank[: rank.index(name)]
        parents = (
            draw(st.lists(st.sampled_from(earlier), unique=True, max_size=3))
            if earlier
            else []
        )
        neg, pos = [], []
        for _ in range(1 << len(parents)):
            neg.append(draw(weights))
            pos.append(draw(weights))
        nodes.append(CPT(Var(name), [Var(p) for p in parents], neg, pos))
    return Network(nodes)


def _unsorted_parents_network():
    # z's parents are listed [y, b]: neither in name order nor in node order.
    def node(var, parents):
        columns = 1 << len(parents)
        return CPT(var, parents, [F(1)] * columns, [F(1, 3)] * columns)

    b, y, z = Var("b"), Var("y"), Var("z")
    return Network([node(z, (y, b)), node(b, ()), node(y, (b,))])


class TestNetworkWriter:
    @settings(max_examples=300, deadline=None)
    @given(networks())
    @example(Network([]))
    @example(Network([CPT(X, (), [F(1)], [F(0)])]))
    @example(_unsorted_parents_network())
    def test_equals_json_reference_and_round_trips(self, net):
        text = serialize_network(net)
        assert text == json_reference(net)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NormalizationWarning)
            assert parse_network(text) == net

    def test_pieces_hold_one_column_at_a_time(self):
        parents = tuple(Var(f"p{i:02d}") for i in range(12))
        degrees = [F(1), F(1, 3)] * (1 << 11)
        roots = [CPT(p, (), [F(1)], [F(1)]) for p in parents]
        net = Network([CPT(X, parents, degrees, degrees[::-1]), *roots])
        text = serialize_network(net)
        tracemalloc.start()
        try:
            length = sum(len(piece) for piece in network_pieces(net))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert length == len(text)
        assert peak < len(text) // 4


def _tokenize_dot(text: str):
    """A minimal DOT tokenizer: quoted strings, identifiers, punctuation."""
    token_re = re.compile(r'"(?:[^"\\]|\\.)*"|[A-Za-z_][A-Za-z0-9_]*|->|[{}\[\];=]')
    pos_ = 0
    tokens = []
    while pos_ < len(text):
        if text[pos_].isspace():
            pos_ += 1
            continue
        m = token_re.match(text, pos_)
        assert m, f"untokenizable DOT at {text[pos_:pos_ + 12]!r}"
        tokens.append(m.group())
        pos_ = m.end()
    return tokens


class TestExportDot:
    def test_weather_edges(self, weather):
        net = compile_network(weather, (SE, WI, SU))
        dot = export_dot(net)
        assert '"wi" -> "se";' in dot
        assert '"su" -> "se";' in dot
        assert '"su" -> "wi";' in dot

    def test_edgeless_network(self):
        cpt = CPT(X, (), [F(1)], [F(1)])
        dot = export_dot(Network([cpt]))
        assert "->" not in dot
        assert '"x"' in dot

    def test_output_tokenizes_as_dot(self, weather):
        net = compile_network(weather, (SE, WI, SU))
        tokens = _tokenize_dot(export_dot(net))
        assert tokens[0] == "digraph"
        assert tokens.count("{") == tokens.count("}") == 1
        assert tokens[-1] == "}"
        assert tokens.count("->") == 3

import json
import random
import re
import warnings
from fractions import Fraction
from itertools import product

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
from posslog import compiler
from posslog.io import MAX_NESTING, NormalizationWarning, render_formula

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

    def test_negations_fold_into_literals(self):
        assert parse_formula("!!!x") == neg(X)
        assert parse_formula("!(x) | y") == Or((neg(X), pos(Y)))
        (entry,) = parse_base("1/2: !x | !!y\n").entries
        assert entry[0] == clause(neg(X), pos(Y))


BASE_NAMES = ("x", "y", "B", "a1")


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
    def test_round_trip_hypothesis(self, b):
        text = serialize_base(b)
        again = parse_base(text)
        assert again.variables == b.variables
        assert distribution_of_base(again) == distribution_of_base(b)
        # Parsing folds some shapes (double negations, nested disjunctions,
        # one-part conjunctions), so the text is a fixpoint after one round.
        settled = serialize_base(again)
        assert serialize_base(parse_base(settled)) == settled
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
        cpt = CPT(X, (), {((), True): F(1), ((), False): F(2, 3)})
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
        table = {
            (assignment, polarity): draw(weights)
            for assignment in product((False, True), repeat=len(parents))
            for polarity in (False, True)
        }
        nodes.append(CPT(Var(name), [Var(p) for p in parents], table))
    return Network(nodes)


def _unsorted_parents_network():
    # z's parents are listed [y, b]: neither in name order nor in node order.
    def table(k):
        return {
            (a, p): F(1, 3) if p else F(1)
            for a in product((False, True), repeat=k)
            for p in (False, True)
        }

    b, y, z = Var("b"), Var("y"), Var("z")
    return Network(
        [CPT(z, (y, b), table(2)), CPT(b, (), table(0)), CPT(y, (b,), table(1))]
    )


class TestNetworkWriter:
    @settings(max_examples=300, deadline=None)
    @given(networks())
    @example(Network([]))
    @example(Network([CPT(X, (), {((), False): F(1), ((), True): F(0)})]))
    @example(_unsorted_parents_network())
    def test_equals_json_reference_and_round_trips(self, net):
        text = serialize_network(net)
        assert text == json_reference(net)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NormalizationWarning)
            assert parse_network(text) == net


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
        cpt = CPT(X, (), {((), True): F(1), ((), False): F(1)})
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

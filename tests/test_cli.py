import json
from fractions import Fraction

import pytest

from posslog import (
    CPT,
    compiler,
    Network,
    compile_network,
    distribution_of_base,
    parse_base,
    serialize_network,
)
from posslog.cli import main

from helpers import SE, SU, WI

F = Fraction

WEATHER_TEXT = """\
vars se wi su
2/3: su | !wi
1/3: !wi | se
1/3: wi | !se
1/3: su | se
"""

SUPPORT_TEXT = ".4: a2 | a1\n.7: a3\n"


@pytest.fixture
def weather_file(tmp_path):
    path = tmp_path / "weather.base"
    path.write_text(WEATHER_TEXT)
    return str(path)


@pytest.fixture
def support_file(tmp_path):
    path = tmp_path / "support.base"
    path.write_text(SUPPORT_TEXT)
    return str(path)


class TestCompile:
    def test_default_order_is_declaration_order(self, weather_file, tmp_path, capsys):
        out = tmp_path / "net.json"
        code = main(["compile", weather_file, "-o", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == ""
        assert "parents=[wi su]" in captured.err
        doc = json.loads(out.read_text())
        assert doc["ordering"] == ["se", "wi", "su"]
        expected = compile_network(parse_base(WEATHER_TEXT), (SE, WI, SU))
        assert out.read_text() == serialize_network(expected)

    def test_explicit_order_and_dot(self, weather_file, tmp_path, capsys):
        out = tmp_path / "net.json"
        dot = tmp_path / "net.dot"
        code = main(
            ["compile", weather_file, "-o", str(out), "--order", "su,wi,se",
             "--dot", str(dot)]
        )
        capsys.readouterr()
        assert code == 0
        assert dot.read_text().startswith("digraph")

    def test_inconsistent_base_exits_3(self, tmp_path, capsys):
        path = tmp_path / "bad.base"
        path.write_text("1: x\n1: !x\n")
        code = main(["compile", str(path), "-o", str(tmp_path / "n.json")])
        captured = capsys.readouterr()
        assert code == 3
        assert "Inc = 1" in captured.err

    def test_parse_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.base"
        path.write_text("nonsense here\n")
        code = main(["compile", str(path)])
        capsys.readouterr()
        assert code == 2

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["compile", str(tmp_path / "absent.base")])
        capsys.readouterr()
        assert code == 2

    def test_bad_order_exits_2(self, weather_file, capsys):
        code = main(["compile", weather_file, "--order", "se,wi"])
        capsys.readouterr()
        assert code == 2

    def test_deep_nesting_exits_2(self, tmp_path, capsys):
        path = tmp_path / "deep.base"
        path.write_text("1/2: " + "(" * 1200 + "a" + ")" * 1200 + "\n")
        for argv in (["compile", str(path)], ["query", str(path), "pi", "a"]):
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 2
            assert captured.err.startswith("error:")

    def test_table_cap_exits_2(self, weather_file, tmp_path, capsys, monkeypatch):
        # se, the first node, has 2 parents: 8 cells.
        monkeypatch.setattr(compiler, "MAX_CPT_CELLS", 4)
        out = tmp_path / "net.json"
        code = main(["compile", weather_file, "-o", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert "8 cells, more than the cap of 4" in captured.err
        assert not out.exists()

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin.base"
        path.write_bytes(b"\xff\xfe1/2: a\n")
        for argv in (["compile", str(path)], ["query", str(path), "pi", "a"]):
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 2
            assert captured.err.startswith("error:")
            assert "UTF-8" in captured.err


class TestQuery:
    def test_deeply_nested_query_exits_2(self, weather_file, capsys):
        query = "(" * 1200 + "su" + ")" * 1200
        code = main(["query", weather_file, "pi", query])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")

    def test_cnf_expansion_cap_exits_2(self, tmp_path, capsys):
        # (a0 & b0) | ... | (a21 & b21) expands to 2^22 CNF clauses.
        names = [f"{x}{i}" for i in range(22) for x in "ab"]
        path = tmp_path / "wide.base"
        path.write_text(f"vars {' '.join(names)}\n1/2: a0 | b0\n")
        query = " | ".join(f"(a{i} & b{i})" for i in range(22))
        code = main(["query", str(path), "pi", query])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert "CNF" in captured.err

    def test_conditional_golden(self, weather_file, capsys):
        code = main(["query", weather_file, "cond", "!se", "--context", "wi & su"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.strip() == "2/3"

    def test_possibility_of_tautology(self, weather_file, capsys):
        code = main(["query", weather_file, "pi", "se | !se"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.strip() == "1"

    def test_support_conditional(self, support_file, capsys):
        code = main(["query", support_file, "cond", "!a1", "--context", "!a2"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.strip() == "3/5"

    def test_necessity(self, weather_file, capsys):
        code = main(["query", weather_file, "nec", "su | !wi"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.strip() == "2/3"

    def test_decimal_flag(self, weather_file, capsys):
        code = main(["query", weather_file, "cond", "!se", "--context", "wi & su",
                     "--decimal"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.strip() == "2/3 0.666667"

    def test_cond_requires_context(self, weather_file, capsys):
        code = main(["query", weather_file, "cond", "!se"])
        capsys.readouterr()
        assert code == 2

    def test_cond_requires_literal_context(self, weather_file, capsys):
        code = main(["query", weather_file, "cond", "!se", "--context", "wi | su"])
        capsys.readouterr()
        assert code == 2

    def test_inconsistent_base_exits_3(self, tmp_path, capsys):
        path = tmp_path / "bad.base"
        path.write_text("1: x\n1: !x\n")
        code = main(["query", str(path), "pi", "x"])
        capsys.readouterr()
        assert code == 3


class TestEval:
    def test_windy_dark_world(self, weather_file, capsys):
        code = main(["eval", weather_file, "!su,wi,!se"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.strip() == "1/3"

    def test_sunny_sea_world(self, weather_file, capsys):
        code = main(["eval", weather_file, "su,!wi,se"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.strip() == "2/3"

    def test_empty_base(self, tmp_path, capsys):
        path = tmp_path / "empty.base"
        path.write_text("vars x\n")
        code = main(["eval", str(path), "x"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.strip() == "1"

    def test_partial_world_exits_2(self, weather_file, capsys):
        code = main(["eval", weather_file, "su,wi"])
        capsys.readouterr()
        assert code == 2

    def test_unknown_variable_exits_2(self, weather_file, capsys):
        code = main(["eval", weather_file, "su,wi,se,zz"])
        capsys.readouterr()
        assert code == 2


class TestMarginalize:
    def test_forgetting_se(self, weather_file, capsys):
        code = main(["marginalize", weather_file, "se"])
        captured = capsys.readouterr()
        assert code == 0
        got = parse_base(captured.out)
        reference = parse_base("vars wi su\n1/3: su\n2/3: su | !wi\n")
        assert distribution_of_base(got) == distribution_of_base(reference)

    def test_unknown_variable_exits_2(self, weather_file, capsys):
        code = main(["marginalize", weather_file, "zz"])
        capsys.readouterr()
        assert code == 2


class TestParents:
    def test_weather_first_node(self, weather_file, capsys):
        code = main(["parents", weather_file, "se"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.strip() == "wi su"

    def test_support_hidden_parent(self, support_file, capsys):
        code = main(["parents", support_file, "a1", "--order", "a1,a2,a3"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.strip() == "a2 a3"

    def test_isolated_variable(self, tmp_path, capsys):
        path = tmp_path / "iso.base"
        path.write_text("vars x y\n1/2: x\n")
        code = main(["parents", str(path), "y", "--order", "y,x"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.strip() == ""


class TestVerify:
    def test_compiled_network_passes(self, weather_file, tmp_path, capsys):
        net_path = tmp_path / "net.json"
        assert main(["compile", weather_file, "-o", str(net_path)]) == 0
        capsys.readouterr()
        code = main(["verify", weather_file, str(net_path)])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == ""

    def test_all_ones_network_fails(self, weather_file, tmp_path, capsys):
        flat = Network(
            [
                CPT(v, (), {((), True): F(1), ((), False): F(1)})
                for v in (SE, WI, SU)
            ]
        )
        net_path = tmp_path / "flat.json"
        net_path.write_text(serialize_network(flat))
        code = main(["verify", weather_file, str(net_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert len(captured.out.strip().splitlines()) == 6

    def test_non_string_ordering_exits_2(self, weather_file, tmp_path, capsys):
        net_path = tmp_path / "net.json"
        assert main(["compile", weather_file, "-o", str(net_path)]) == 0
        doc = json.loads(net_path.read_text())
        doc["ordering"] = [[name] for name in doc["ordering"]]
        net_path.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["verify", weather_file, str(net_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")

    def test_table_cap_exits_2(self, weather_file, tmp_path, capsys, monkeypatch):
        net_path = tmp_path / "net.json"
        assert main(["compile", weather_file, "-o", str(net_path)]) == 0
        capsys.readouterr()
        monkeypatch.setattr(compiler, "MAX_CPT_CELLS", 4)
        code = main(["verify", weather_file, str(net_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "more than the cap of 4" in captured.err

    def test_universe_mismatch_exits_2(self, weather_file, tmp_path, capsys):
        other = Network([CPT(SU, (), {((), True): F(1), ((), False): F(1)})])
        net_path = tmp_path / "other.json"
        net_path.write_text(serialize_network(other))
        code = main(["verify", weather_file, str(net_path)])
        capsys.readouterr()
        assert code == 2


class TestGen:
    def test_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a.base"
        b = tmp_path / "b.base"
        assert main(["gen", "--seed", "5", "--vars", "4", "--clauses", "6",
                     "-o", str(a)]) == 0
        assert main(["gen", "--seed", "5", "--vars", "4", "--clauses", "6",
                     "-o", str(b)]) == 0
        capsys.readouterr()
        assert a.read_text() == b.read_text()

    def test_generated_base_compiles_and_verifies(self, tmp_path, capsys):
        base_path = tmp_path / "g.base"
        net_path = tmp_path / "g.json"
        assert main(["gen", "--seed", "11", "--vars", "4", "--clauses", "6",
                     "-o", str(base_path)]) == 0
        assert main(["compile", str(base_path), "-o", str(net_path)]) == 0
        capsys.readouterr()
        assert main(["verify", str(base_path), str(net_path)]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize(
        "size",
        [
            ["--vars", "1", "--clauses", "50"],  # GenerationError
            ["--vars", "22", "--clauses", "5"],  # ResourceCapError
        ],
    )
    def test_unsatisfiable_request_exits_2(self, tmp_path, capsys, size):
        code = main(["gen", "--seed", "1", *size, "-o", str(tmp_path / "g.base")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_weight_pool_flag(self, tmp_path, capsys):
        path = tmp_path / "p.base"
        assert main(["gen", "--seed", "3", "--vars", "3", "--clauses", "5",
                     "-o", str(path), "--weights", "1/3,2/3"]) == 0
        capsys.readouterr()
        base = parse_base(path.read_text())
        assert {w for _, w in base.entries} <= {F(1, 3), F(2, 3)}

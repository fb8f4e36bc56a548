import errno
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import posslog
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

    def test_failed_compile_leaves_no_output(self, tmp_path, capsys):
        path = tmp_path / "bad.base"
        path.write_text("1: x\n1: !x\n")
        out, dot = tmp_path / "n.json", tmp_path / "n.dot"
        code = main(["compile", str(path), "-o", str(out), "--dot", str(dot)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == "error: Inc = 1\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.base"]

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

    def test_over_cap_node_exits_2_before_sweeping(self, tmp_path, capsys):
        # x has 40 parents; the closure used to sweep their 2^40
        # instantiations before the table cap was checked.
        path = tmp_path / "wide.base"
        ys = " | ".join(f"y{i}" for i in range(40))
        path.write_text(f"1/2: x | {ys}\n1/3: !y0 | z\n")
        code = main(["compile", str(path), "-o", str(tmp_path / "n.json")])
        captured = capsys.readouterr()
        assert code == 2
        assert "more than the cap of" in captured.err

    def test_stdout_is_the_serialized_network(self, weather_file, capsys):
        assert main(["compile", weather_file]) == 0
        expected = compile_network(parse_base(WEATHER_TEXT), (SE, WI, SU))
        assert capsys.readouterr().out == serialize_network(expected)

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

    WIDE_NAMES = " ".join(f"{x}{i}" for i in range(22) for x in "ab")
    WIDE_DNF = " | ".join(f"(a{i} & b{i})" for i in range(22))

    def test_cnf_expansion_cap_exits_2(self, tmp_path, capsys):
        # (a0 & b0) | ... | (a21 & b21) expands to 2^22 CNF clauses. As a
        # base entry it is clausalized before any question is asked.
        path = tmp_path / "wide.base"
        path.write_text(f"vars {self.WIDE_NAMES}\n1/2: {self.WIDE_DNF}\n")
        code = main(["query", str(path), "pi", "a0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert "CNF" in captured.err

    def test_wide_dnf_query_needs_no_cnf(self, tmp_path, capsys):
        # The same DNF as a query formula over 44 variables, past the
        # bitset cap: its gate clauses are searched with no CNF, and the
        # world a0, b0 satisfies both it and the base.
        path = tmp_path / "wide.base"
        path.write_text(f"vars {self.WIDE_NAMES}\n1/2: a0 | b0\n")
        code = main(["query", str(path), "pi", self.WIDE_DNF])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.strip() == "1"

    def test_conditional_golden(self, weather_file, capsys):
        code = main(["query", weather_file, "cond", "!se", "--context", "wi & su"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.strip() == "2/3"

    def test_nested_conjunction_context(self, weather_file, capsys):
        # A nested conjunction parses flat, so it is a literal context too.
        for context in ("wi & !se & wi", "wi & (!se & wi)", "(wi & !se) & wi"):
            code = main(["query", weather_file, "cond", "!su", "--context", context])
            captured = capsys.readouterr()
            assert code == 0, context
            assert captured.out.strip() == "1/2"

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

    @staticmethod
    def conditional(path, capsys, lit, context):
        code = main(["query", path, "cond", lit, "--context", context])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize(
        "context, same",
        [
            ("!(wi | se)", "!wi & !se"),
            ("wi & true", "wi"),
            ("!(!wi | se)", "wi & !se"),
            ("!(wi & true)", "!wi"),
            ("wi | false", "wi"),
            ("true & !!su & !(false | !wi)", "su & wi"),
            ("!(!wi | (se & true))", "wi & !se"),
            ("wi & (se | true)", "wi"),
        ],
    )
    def test_context_written_another_way(self, weather_file, capsys, context, same):
        # Negations are pushed down to the literals, true parts of a
        # conjunction dropped, and false parts of a disjunction, so the
        # context answers as its conjunction of literals does; a
        # disjunction with a true part is true.
        for lit in ("su", "!su", "se", "!se", "wi"):
            expected = self.conditional(weather_file, capsys, lit, same)
            assert expected[0] == 0
            assert self.conditional(weather_file, capsys, lit, context) == expected

    def test_true_context_is_the_possibility(self, weather_file, capsys):
        for lit in ("su", "!su", "se", "!se", "!wi"):
            code, out, _ = self.conditional(weather_file, capsys, lit, "true")
            assert code == 0
            assert main(["query", weather_file, "pi", lit]) == 0
            assert capsys.readouterr().out == out

    @pytest.mark.parametrize("context", ["wi & false", "false", "!true", "!(se | true)"])
    def test_false_context_answers_as_a_contradiction(self, weather_file, capsys, context):
        for lit in ("su", "!su", "se", "!se"):
            expected = self.conditional(weather_file, capsys, lit, "wi & !wi")
            assert expected == (0, "1\n", "")
            assert self.conditional(weather_file, capsys, lit, context) == expected

    @pytest.mark.parametrize(
        "context",
        ["wi | se", "!(wi & se)", "wi | !su | se", "(wi & se) | su", "!(wi & (se | su))"],
    )
    def test_disjunction_context_exits_2(self, weather_file, capsys, context):
        code, out, err = self.conditional(weather_file, capsys, "!se", context)
        assert code == 2 and out == ""
        assert "context must be a conjunction of literals" in err

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


class TestTautologyInInput:
    # The weight levels, the marginal and the compile each drop a
    # tautology, so an input holding some answers as one without.
    @pytest.mark.parametrize(
        "argv",
        [
            ["query", "pi", "wi | !se"],
            ["query", "nec", "su"],
            ["query", "cond", "su", "--context", "!wi"],
            ["marginalize", "wi"],
            ["marginalize", "se"],
            ["parents", "se"],
            ["parents", "su", "--order", "su,wi,se"],
        ],
    )
    def test_same_output(self, weather_file, tmp_path, capsys, argv):
        messy = tmp_path / "messy.base"
        messy.write_text(WEATHER_TEXT + "1: wi | !wi | se\n1/2: su | !su\n")
        outputs = []
        for path in (weather_file, str(messy)):
            code = main([argv[0], path, *argv[1:]])
            outputs.append((code, *capsys.readouterr()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0 and outputs[0][1]


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
                CPT(v, (), [F(1)], [F(1)])
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
        other = Network([CPT(SU, (), [F(1)], [F(1)])])
        net_path = tmp_path / "other.json"
        net_path.write_text(serialize_network(other))
        code = main(["verify", weather_file, str(net_path)])
        capsys.readouterr()
        assert code == 2


class TestStandardOutput:
    COMMANDS = (["compile"], ["query", "pi", "se"], ["marginalize", "se"])

    @pytest.mark.parametrize(
        "error",
        [
            BrokenPipeError(errno.EPIPE, "Broken pipe"),
            OSError(errno.ENOSPC, "No space left on device"),
        ],
        ids=["broken-pipe", "full-device"],
    )
    def test_failed_write_exits_2(self, weather_file, capsys, monkeypatch, error):
        class Failing(io.StringIO):
            def write(self, text):
                raise error

        monkeypatch.setattr(sys, "stdout", Failing())
        for command, *rest in self.COMMANDS:
            assert main([command, weather_file, *rest]) == 2
            err = capsys.readouterr().err
            assert err.endswith(f"error: cannot write standard output: {error}\n")
            assert "Traceback" not in err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    def test_full_device_exits_2(self, weather_file):
        # Buffered, as stdout to a file is by default, the output fails
        # only when flushed.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(posslog.__file__).parents[1])
        for command, *rest in self.COMMANDS:
            with open("/dev/full", "w") as full:
                run = subprocess.run(
                    [sys.executable, "-m", "posslog.cli", command, weather_file, *rest],
                    stdout=full,
                    stderr=subprocess.PIPE,
                    text=True,
                    env=env,
                    timeout=60,
                )
            assert run.returncode == 2, run.stderr
            assert run.stderr.endswith(
                "error: cannot write standard output:"
                " [Errno 28] No space left on device\n"
            )
            assert "Traceback" not in run.stderr


class TestRejectedArguments:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["compile", "{base}", "--order", "se,zz"], "unknown variable(s) in --order"),
            (["compile", "{base}", "-o", "{tmp}/absent/x.json"], "cannot write"),
            (["eval", "{base}", "se,se,wi"], "assigned twice"),
            (["query", "{base}", "cond", "se | wi", "--context", "su"], "single literal"),
            (["parents", "{base}", "zz"], "unknown variable 'zz'"),
            (["gen", "--weights", "abc"], "cannot interpret 'abc'"),
            (["gen", "--weights", " , "], "empty weight pool"),
            (["gen", "--weights", "1/2,0"], "weight 0 outside (0, 1]"),
        ],
        ids=[
            "order", "output", "world", "cond-formula", "parents", "weight", "no-weight",
            "zero-weight",
        ],
    )
    def test_exits_2_with_message(self, weather_file, tmp_path, capsys, argv, message):
        argv = [a.format(base=weather_file, tmp=tmp_path) for a in argv]
        if argv[0] == "gen":
            argv += ["--seed", "1", "--vars", "2", "--clauses", "2", "-o", str(tmp_path / "g")]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        # Only the error reaches stderr: `compile` opens its output before
        # the first stage, so an unwritable path reports no stage line.
        [line] = captured.err.splitlines()
        assert line.startswith("error: ") and message in line


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
            ["--vars", "1000000000", "--clauses", "5"],  # refused before building
            ["--vars", "5", "--clauses", "100000"],  # over the clause cap
            ["--vars", "5", "--clauses", "-3"],  # negative count
            ["--vars", "20", "--clauses", "400"],  # GenerationError, in seconds
        ],
    )
    def test_unsatisfiable_request_exits_2(self, tmp_path, capsys, size):
        code = main(["gen", "--seed", "1", *size, "-o", str(tmp_path / "g.base")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_exponent_weight_exits_2(self, tmp_path, capsys):
        code = main(["gen", "--seed", "1", "--vars", "2", "--clauses", "2",
                     "-o", str(tmp_path / "g.base"), "--weights", "1e-999999,1/2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ") and "exponent" in captured.err
        assert "Traceback" not in captured.err
        assert not (tmp_path / "g.base").exists()

    def test_weight_pool_flag(self, tmp_path, capsys):
        path = tmp_path / "p.base"
        assert main(["gen", "--seed", "3", "--vars", "3", "--clauses", "5",
                     "-o", str(path), "--weights", "1/3,2/3"]) == 0
        capsys.readouterr()
        base = parse_base(path.read_text())
        assert {w for _, w in base.entries} <= {F(1, 3), F(2, 3)}

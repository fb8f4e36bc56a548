"""Tests of the benchmark itself: determinism, the reference, the tracer and
the command's contract.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracing  # noqa: E402
import workloads as w  # noqa: E402
import yardstick  # noqa: E402
from posslog import compiler, oracle  # noqa: E402
from posslog.model import And, Literal, Not, Or  # noqa: E402

FINGERPRINT = """
import sys
sys.path[:0] = sys.argv[1:3]
import workloads as w
ref = w.load_reference()
for workload in w.WORKLOADS:
    inputs = w.build_inputs(workload, 7, ref)
    # A query input is named by its key; its base and query text were
    # checked against the reference digest when `expected` was filled in.
    print(workload, "inputs", w.digest(*(
        repr((inp.key, inp.text, inp.ordering)) if isinstance(inp, w.CompileInput)
        else repr((inp.key, inp.expected)) for inp in inputs
    )))
    for inp in inputs[:12]:
        if isinstance(inp, w.CompileInput):
            print(workload, inp.key, w.compile_digest(inp, w.run_compile(inp)[1]))
        else:
            print(workload, inp.key, w.run_query(inp))
"""


def _fingerprint(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    done = subprocess.run(
        [sys.executable, "-c", FINGERPRINT, str(ROOT / "src"), str(BENCH)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    return done.stdout


def test_same_seed_same_inputs_and_outputs_across_hash_seeds():
    first = _fingerprint("1")
    assert first == _fingerprint("2")
    ref = w.load_reference()
    wide = {e["key"]: e["digest"] for e in ref["compile-wide"]}
    checked = 0
    for line in first.splitlines():
        workload, key, value = line.split()
        if key == "inputs":
            continue
        if workload == "compile-small":
            base, label = key.split("/")
            assert value == ref[workload][base][label]
        elif workload == "compile-wide":
            assert value == wide[key]
        else:
            base, j = key.split("/")
            assert value == ref[workload][base]["answers"][int(j)]
        checked += 1
    assert checked > 12


def test_build_inputs_is_deterministic_and_seed_dependent():
    ref = w.load_reference()
    for workload in ("compile-small", "query"):
        a = w.build_inputs(workload, 3, ref)
        assert a == w.build_inputs(workload, 3, ref)
        assert a != w.build_inputs(workload, 4, ref)
        assert all(inp.expected is not None for inp in a)


def test_reference_covers_every_pool():
    ref = w.load_reference()
    assert len(ref["compile-small"]) == w.SMALL_POOL
    assert len(ref["query"]) == w.QUERY_POOL
    for i, entry in ref["query"].items():
        assert len(entry["answers"]) == w.QUERIES_PER_BASE
    for n, count in w.WIDE_DRAWS.items():
        assert sum(e["n"] == n for e in ref["compile-wide"]) >= count


def test_yardstick_times_every_pool_op():
    ref = w.load_reference()
    times = json.loads(w.TIMES_PATH.read_text())
    assert len(times["compile-small"]) == 2 * w.SMALL_POOL
    assert set(times["compile-wide"]) == {e["key"] for e in ref["compile-wide"]}
    assert len(times["query"]) == w.QUERY_POOL * w.QUERIES_PER_BASE
    assert all(t > 0 for per_op in times.values() for t in per_op.values())


def test_frozen_twins_give_the_reference_outputs():
    ref = w.load_reference()
    for workload in ("compile-small", "query"):
        inputs = w.build_inputs(workload, 2, ref)[:40]
        twins = yardstick.frozen_twins(inputs)
        for inp in inputs:
            twin = twins[inp.key]
            if isinstance(inp, w.QueryInput):
                assert type(twin.base).__module__ == "posslog_frozen.model"
            seconds, got = yardstick.run_frozen(twin)
            assert seconds > 0 and got == inp.expected
    assert 0 < yardstick.host_speed_now(yardstick.calibration_twins())


def _holds(f, world) -> bool:
    if isinstance(f, Literal):
        return world[f.var] is f.positive
    if isinstance(f, Not):
        return not _holds(f.operand, world)
    if isinstance(f, And):
        return all(_holds(p, world) for p in f.parts)
    if isinstance(f, Or):
        return any(_holds(p, world) for p in f.parts)
    raise TypeError(f)


def test_query_answers_match_brute_force_on_14_vars():
    i = 0
    assert w.query_vars(i) == 14
    b, queries, _ = w.query_set(i)
    worlds = [(wd.as_dict(), value) for wd, value in oracle.enumerate_distribution(b).items()]

    def poss(pred) -> Fraction:
        return max((value for world, value in worlds if pred(world)), default=Fraction(0))

    answers = w.load_reference()["query"][str(i)]["answers"]
    for j, (kind, args) in enumerate(queries[:32]):
        if kind == "possibility":
            expected = poss(lambda x: _holds(args[0], x))
        elif kind in ("necessity", "certainty"):
            expected = 1 - poss(lambda x: not _holds(args[0], x))
        else:
            lit, ctx = args
            context = poss(lambda x: all(_holds(c, x) for c in ctx))
            joint = poss(lambda x: _holds(lit, x) and all(_holds(c, x) for c in ctx))
            expected = joint / context if context else Fraction(1)
        got = w.run_query(w.QueryInput(f"{i}/{j}", b, kind, args, None))
        assert got == w.render_answer(expected) == answers[j], (kind, args)


def test_tracer_keeps_outputs_and_restores_the_library():
    ref = w.load_reference()
    inputs = w.build_inputs("compile-small", 5, ref)[:20]
    originals = {(owner, attr): owner.__dict__[attr] for owner, attr, _, _ in tracing.SITES}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert compiler.__dict__["compile_network"] is not originals[(compiler, "compile_network")]
        for inp in inputs:
            b, out = w.run_compile(inp)
            assert w.compile_digest(inp, out) == inp.expected
            assert w.run_verify(b, out)[0].ok
    finally:
        tracer.uninstall()
    for (owner, attr), fn in originals.items():
        assert owner.__dict__[attr] is fn
    assert tracer.calls["compiler.compile_network"] == len(inputs)
    assert tracer.calls["semantics.inconsistency_degree"] > 0
    assert tracer.counts["compiler.closure.contexts"] > 0
    assert all(seconds >= 0 for seconds in tracer.layer_self_s().values())


def _run(cwd: Path, *args: str, timeout: int = 170):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_every_declared_metric(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = _run(ROOT, "--workload", "query", "--seed", "1", "--seconds", "0", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = spec["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


def test_command_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "query", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert "metrics" not in done.stdout

"""Inputs, operations and reference checks of the benchmark workloads.

Every input comes from a fixed pool of generator seeds, and `reference.json`
holds the expected output of every pool member, recorded by
`record_reference.py`. A run's `--seed` draws its sample from the pools, so
each run checks every output it produces against a recorded digest.

The library is always called through its submodules' attributes
(`io.parse_base`, not `posslog.parse_base`), so that the tracer's wrappers
take effect.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import posslog
from posslog import compiler, io, oracle, semantics
from posslog.model import And, Literal, Not, Or, Var, WeightedBase

REFERENCE_PATH = Path(__file__).with_name("reference.json")
TIMES_PATH = Path(__file__).with_name("yardstick.json")

WORKLOADS = ("compile-small", "compile-wide", "query")

# compile-small: the pool holds SMALL_POOL bases, each compiled under its
# declaration order and under one ordering seeded by the base. Its ops are
# ranked by their recorded frozen compile time (yardstick.json), and a run
# draws one op from each run of consecutive ranks, SMALL_OPS_PER_RUN ops in
# all, so that every seed gets the same mix of fast and slow ops.
SMALL_POOL = 1000
SMALL_OPS_PER_RUN = 200
SMALL_SEED_BASE = 2_000_000
SMALL_ORDER_SEED_BASE = 5_000_000

# compile-wide: every run compiles the first this many pool bases of each
# size (vars; 2n clauses), in an order set by the seed. The pool holds only
# bases whose recorded work is near their size's median. Drawing the bases
# by seed made the run's load differ by up to 40% from seed to seed.
WIDE_DRAWS = {9: 3}

# query: even pool ids are 14-var bases (bitset path), odd ids 20 to 24 vars
# (DPLL path). Every run uses every base, so that the mix of base sizes is
# the same for all seeds, and draws QUERIES_PER_RUN of each base's queries.
QUERY_POOL = 16
QUERIES_PER_BASE = 256
QUERIES_PER_RUN = 128
QUERY_SEED_BASE = 3_000_000
QUERY_KINDS = ("possibility", "necessity", "conditional", "certainty")


def digest(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def load_times(path: Path = TIMES_PATH) -> dict[str, dict[str, float]]:
    """The yardstick's recorded time of every pool op, by workload and key."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass(frozen=True)
class CompileInput:
    key: str
    text: str
    ordering: tuple[str, ...]
    expected: str | None


@dataclass(frozen=True)
class QueryInput:
    key: str
    base: WeightedBase
    kind: str
    args: tuple
    expected: str | None


# ---------------------------------------------------------------------------
# generators


def small_base(i: int) -> WeightedBase:
    """Pool base `i`, drawn exactly as tests/test_acceptance.py draws its
    random cases, from seeds that suite does not use."""
    seed = SMALL_SEED_BASE + i
    sizing = random.Random(1_000_000 + seed)
    return oracle.random_base(seed, sizing.randint(2, 6), sizing.randint(1, 12))


def small_orderings(i: int, b: WeightedBase) -> dict[str, tuple[str, ...]]:
    names = [v.name for v in b.variables]
    shuffled = names[:]
    random.Random(SMALL_ORDER_SEED_BASE + i).shuffle(shuffled)
    return {"declared": tuple(names), "shuffled": tuple(shuffled)}


def consistent_draws(rng: random.Random, n_vars: int, n_clauses: int):
    """Yield (seed, base) for the consistent bases in a stream of
    `random_base` draws.

    `random_base`'s own consistency check enumerates 2^n worlds and refuses
    more than 20 vars, so consistency is decided by `inconsistency_degree`.
    """
    while True:
        seed = rng.getrandbits(32)
        b = oracle.random_base(seed, n_vars, n_clauses, require_consistent=False)
        if semantics.inconsistency_degree(b) == 0:
            yield seed, b


def query_vars(i: int) -> int:
    return 14 if i % 2 == 0 else (20, 22, 24)[(i // 2) % 3]


def random_formula(rng: random.Random, variables, depth: int = 3):
    if depth == 0 or rng.random() < 0.3:
        return Literal(rng.choice(variables), rng.random() < 0.5)
    roll = rng.random()
    if roll < 0.25:
        return Not(random_formula(rng, variables, depth - 1))
    parts = [random_formula(rng, variables, depth - 1) for _ in range(rng.randint(2, 3))]
    return And(parts) if roll < 0.65 else Or(parts)


def query_set(i: int) -> tuple[WeightedBase, list[tuple[str, tuple]], str]:
    """Pool base `i`, its QUERIES_PER_BASE queries, and a digest of both."""
    rng = random.Random(QUERY_SEED_BASE + i)
    n = query_vars(i)
    _, b = next(consistent_draws(rng, n, 2 * n))
    queries = []
    rendered = [io.serialize_base(b)]
    for j in range(QUERIES_PER_BASE):
        kind = QUERY_KINDS[j % len(QUERY_KINDS)]
        if kind in ("possibility", "necessity"):
            f = random_formula(rng, b.variables)
            args = (f,)
            rendered.append(f"{kind} {io.render_formula(f)}")
        else:
            var, *context = rng.sample(b.variables, 4)
            lit = Literal(var, rng.random() < 0.5)
            if kind == "certainty":
                args = (lit,)
                rendered.append(f"{kind} {lit}")
            else:
                ctx = tuple(Literal(v, rng.random() < 0.5) for v in context)
                args = (lit, ctx)
                rendered.append(f"{kind} {lit} | {' & '.join(map(str, ctx))}")
        queries.append((kind, args))
    return b, queries, digest(*rendered)


# ---------------------------------------------------------------------------
# operations


def run_compile(inp: CompileInput, lib=posslog) -> tuple[WeightedBase, str]:
    """One compile op: parse_base -> compile_network -> serialize_network.
    `lib` is the package that runs it (see yardstick.py)."""
    b = lib.io.parse_base(inp.text)
    net = lib.compiler.compile_network(b, [lib.model.Var(name) for name in inp.ordering])
    return b, lib.io.serialize_network(net)


def run_verify(b: WeightedBase, output: str):
    """Reload the network from its JSON and check it against the oracle.
    Returns the verification report and the network."""
    net = io.parse_network(output)
    return oracle.verify_compilation(b, net), net


def compile_digest(inp: CompileInput, output: str) -> str:
    return digest(inp.text, " ".join(inp.ordering), output)


def run_query(inp: QueryInput, lib=posslog) -> str:
    """One query op; the answer is rendered `p/q`. `lib` is the package that
    runs it, and `inp` must hold that package's objects."""
    if inp.kind == "possibility":
        answer = lib.semantics.possibility(inp.base, *inp.args)
    elif inp.kind == "necessity":
        answer = lib.semantics.necessity(inp.base, *inp.args)
    elif inp.kind == "conditional":
        answer = lib.compiler.conditional_possibility(inp.base, *inp.args)
    else:
        answer = lib.semantics.certainty_degree(inp.base, *inp.args)
    return render_answer(answer)


def render_answer(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


# ---------------------------------------------------------------------------
# per-run input sets


def small_inputs(i: int, expected: dict | None) -> list[CompileInput]:
    b = small_base(i)
    text = io.serialize_base(b)
    return [
        CompileInput(f"{i}/{label}", text, order, expected and expected[label])
        for label, order in small_orderings(i, b).items()
    ]


def wide_input(entry: dict) -> CompileInput:
    b = oracle.random_base(
        entry["seed"], entry["n"], 2 * entry["n"], require_consistent=False
    )
    names = tuple(v.name for v in b.variables)
    return CompileInput(entry["key"], io.serialize_base(b), names, entry["digest"])


def query_inputs(i: int, expected: dict) -> list[QueryInput]:
    b, queries, input_digest = query_set(i)
    ref = expected.get(str(i))
    answers = ref["answers"] if ref and ref["input"] == input_digest else None
    return [
        QueryInput(f"{i}/{j}", b, kind, args, answers and answers[j])
        for j, (kind, args) in enumerate(queries)
    ]


def build_inputs(workload: str, seed: int, reference: dict) -> list:
    """The run's inputs, in the order the run issues them."""
    rng = random.Random(seed)
    expected = reference[workload]
    if workload == "compile-small":
        times = load_times()[workload]
        ranked = sorted(times, key=lambda key: (times[key], key))
        stride = len(ranked) // SMALL_OPS_PER_RUN
        keys = {rng.choice(ranked[k : k + stride]) for k in range(0, len(ranked), stride)}
        ids = sorted({int(key.split("/")[0]) for key in keys})
        inputs = [inp for i in ids for inp in small_inputs(i, expected[str(i)]) if inp.key in keys]
    elif workload == "compile-wide":
        inputs = []
        for n, count in WIDE_DRAWS.items():
            inputs += [wide_input(e) for e in expected if e["n"] == n][:count]
    elif workload == "query":
        inputs = []
        for i in range(QUERY_POOL):
            inputs += rng.sample(query_inputs(i, expected), QUERIES_PER_RUN)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(inputs)
    return inputs

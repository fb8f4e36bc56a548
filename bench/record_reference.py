"""Regenerate reference.json, the expected outputs of every pool member.

    python3 bench/record_reference.py
    python3 bench/record_reference.py --yardstick

Run from the repository root, only when a pool or an expected output is
meant to change. With `--yardstick` it rewrites yardstick.json instead: the
frozen copy's time for every pool op, the fastest of YARDSTICK_REPEATS, each
checked against reference.json. Re-record it only together with a pool,
since it sets the scale of every end-to-end time.

Without the flag, every compiled network is checked against the oracle
before its digest is recorded. The compile-wide pool keeps the candidates
whose work (calls to `inconsistency_degree`) lies within WIDE_BAND of their
size's median. Each mode takes a few minutes.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
from itertools import islice
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402
import workloads as w  # noqa: E402
import yardstick  # noqa: E402

WIDE_SEED_BASE = 6_000_000
WIDE_CANDIDATES = 12
WIDE_BAND = 0.05
YARDSTICK_REPEATS = 3


def checked_compile(inp: w.CompileInput) -> tuple[str, int]:
    """The op's digest, checked by the oracle, and the work of its compile."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        b, out = w.run_compile(inp)
    finally:
        tracer.uninstall()
    report, _ = w.run_verify(b, out)
    if not report.ok:
        raise SystemExit(f"oracle rejects the network of {inp.key}")
    return w.compile_digest(inp, out), tracer.calls["semantics.inconsistency_degree"]


def record_small() -> dict:
    out = {}
    for i in range(w.SMALL_POOL):
        entry = {}
        for inp in w.small_inputs(i, None):
            entry[inp.key.split("/")[1]], _ = checked_compile(inp)
        out[str(i)] = entry
    return out


def record_wide() -> list:
    pool = []
    for n in w.WIDE_DRAWS:
        candidates = []
        stream = w.consistent_draws(random.Random(WIDE_SEED_BASE + n), n, 2 * n)
        for k, (seed, _) in enumerate(islice(stream, WIDE_CANDIDATES)):
            entry = {"key": f"{n}-{k}", "n": n, "seed": seed, "digest": None}
            entry["digest"], entry["work"] = checked_compile(w.wide_input(entry))
            print(f"compile-wide candidate {entry}", file=sys.stderr)
            candidates.append(entry)
        middle = statistics.median(e["work"] for e in candidates)
        pool += [e for e in candidates if abs(e["work"] - middle) <= WIDE_BAND * middle]
    return pool


def record_query() -> dict:
    out = {}
    for i in range(w.QUERY_POOL):
        b, queries, input_digest = w.query_set(i)
        answers = [
            w.run_query(w.QueryInput(f"{i}/{j}", b, kind, args, None))
            for j, (kind, args) in enumerate(queries)
        ]
        out[str(i)] = {"input": input_digest, "answers": answers}
    return out


def record_yardstick() -> dict:
    ref = w.load_reference()
    pools = {
        "compile-small": [
            inp
            for i in range(w.SMALL_POOL)
            for inp in w.small_inputs(i, ref["compile-small"][str(i)])
        ],
        "compile-wide": [w.wide_input(e) for e in ref["compile-wide"]],
        "query": [inp for i in range(w.QUERY_POOL) for inp in w.query_inputs(i, ref["query"])],
    }
    out = {}
    for workload, pool in pools.items():
        times = {}
        for key, twin in yardstick.frozen_twins(pool).items():
            runs = [yardstick.run_frozen(twin) for _ in range(YARDSTICK_REPEATS)]
            if any(got != twin.expected for _, got in runs):
                raise SystemExit(f"the frozen copy disagrees with the reference on {key}")
            times[key] = min(seconds for seconds, _ in runs)
        print(f"{workload}: {len(times)} ops, {sum(times.values()):.1f} s", file=sys.stderr)
        out[workload] = times
    return out


def main() -> None:
    if sys.argv[1:] == ["--yardstick"]:
        with open(w.TIMES_PATH, "w", encoding="utf-8") as fh:
            json.dump(record_yardstick(), fh, indent=0, sort_keys=True)
            fh.write("\n")
        return
    reference = {
        "compile-small": record_small(),
        "compile-wide": record_wide(),
        "query": record_query(),
    }
    with open(w.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

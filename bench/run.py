"""posslog benchmark: one workload per run, in a closed loop, one op at a time.

    python3 bench/run.py --workload compile-small --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from `src/`. The run
sets up its inputs from the seed (several times, reporting the median),
then runs whole passes over them until `--seconds` have elapsed. Every
output is checked against `reference.json`, and compiled networks also
against the brute-force oracle. With `--trace 0` each op is paired with the
same op on a frozen copy of the library, and the last line of output is a
JSON object holding the end-to-end metrics, timed at the host speed of the
yardstick recording (see yardstick.py). With `--trace 1` it holds the
per-layer metrics of a traced run. The exit code is 1 when any op failed.
See README.md for the metrics and the reasons behind the workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import posslog; print(time.perf_counter() - t)"
)


def child_import_s() -> float:
    """Time to import the package in a fresh interpreter (timed inside it)."""
    done = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return float(done.stdout)


def nearest_rank(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def best_per_input(samples: dict[str, list[float]]) -> list[float]:
    """Each input's fastest pass. Other processes on a shared machine slow
    single passes by 10-40% in bursts of about a second."""
    return [min(times) for times in samples.values()]


def normalized_per_input(stats: Stats, recorded: dict[str, float]) -> list[float]:
    """Each input's latency at the host speed of the yardstick recording:
    the median over passes of live time / frozen time, times its recorded
    frozen time (see yardstick.py)."""
    return [
        statistics.median(t / f for t, f in zip(times, stats.frozen_s[key])) * recorded[key]
        for key, times in stats.op_s.items()
    ]


def host_speed(stats: Stats, recorded: dict[str, float]) -> float:
    """Median of recorded / measured frozen time over the run's ops: above 1
    when the host ran faster than when the yardstick was recorded."""
    return statistics.median(
        recorded[key] / f for key, times in stats.frozen_s.items() for f in times
    )


@dataclass
class Stats:
    """Latencies are kept per input, one sample per pass; `frozen_s` holds
    the paired yardstick times."""

    op_s: defaultdict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    frozen_s: defaultdict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    verify_s: defaultdict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    outputs: dict[str, str | None] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    passes: int = 0
    wall_s: float = 0.0
    cells: int = 0
    edges: int = 0
    network_bytes: int = 0


def run_pass(inputs, stats: Stats, baseline: dict | None, twins: dict | None) -> None:
    """One op per input. An op fails when it raises, when the oracle rejects
    its network, or when its output differs from the reference (or, in a
    traced pass, from the untraced pass). With `twins`, each op is paired
    with its frozen twin, run before it on every other op and pass and after
    it otherwise, and the oracle checks the networks of the first pass only:
    later passes must give the same bytes. Without them, as in a traced run,
    the oracle checks every pass, so that its spans are per pass."""
    for k, inp in enumerate(inputs):
        stats.attempted += 1
        got = None
        ok = False
        frozen_first = twins is not None and (stats.passes + k) % 2 == 1
        if frozen_first:
            stats.frozen_s[inp.key].append(yardstick.run_frozen(twins[inp.key])[0])
        try:
            if isinstance(inp, workloads.CompileInput):
                start = perf_counter()
                b, out = workloads.run_compile(inp)
                stats.op_s[inp.key].append(perf_counter() - start)
                got = workloads.compile_digest(inp, out)
                ok = True
                if stats.passes == 0 or twins is None:
                    start = perf_counter()
                    report, net = workloads.run_verify(b, out)
                    stats.verify_s[inp.key].append(perf_counter() - start)
                    ok = report.ok
                if stats.passes == 0:
                    stats.cells += sum(len(cpt.cells) for cpt in net.nodes)
                    stats.edges += sum(len(cpt.parents) for cpt in net.nodes)
                    stats.network_bytes += len(out.encode())
            else:
                start = perf_counter()
                got = workloads.run_query(inp)
                stats.op_s[inp.key].append(perf_counter() - start)
                ok = True
        except Exception:
            traceback.print_exc()
        ok = ok and got == inp.expected
        if baseline is not None:
            ok = ok and got == baseline[inp.key]
        if not ok:
            stats.failed += 1
            print(f"FAILED {inp.key}: got {got}, expected {inp.expected}", file=sys.stderr)
        stats.outputs[inp.key] = got
        if twins is not None and not frozen_first:
            stats.frozen_s[inp.key].append(yardstick.run_frozen(twins[inp.key])[0])


def measure(inputs, seconds: float, baseline: dict | None = None, twins: dict | None = None) -> Stats:
    """Whole passes over `inputs` until `seconds` have elapsed (at least one)."""
    stats = Stats()
    start = perf_counter()
    while True:
        run_pass(inputs, stats, baseline, twins)
        stats.passes += 1
        if perf_counter() - start >= seconds:
            break
    stats.wall_s = perf_counter() - start
    return stats


def setup(workload: str, seed: int):
    """The inputs, and the median set-up time at the host speed of the
    yardstick recording (see yardstick.py)."""
    calibration = yardstick.calibration_twins()
    yardstick.host_speed_now(calibration)  # warm-up
    before = yardstick.host_speed_now(calibration)
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        inputs = workloads.build_inputs(workload, seed, workloads.load_reference())
        raw = perf_counter() - start + child_import_s()
        after = yardstick.host_speed_now(calibration)
        times.append(raw * (before + after) / 2)
        before = after
    return inputs, statistics.median(times)


def end_to_end(stats: Stats, setup_s: float, recorded: dict[str, float]) -> dict:
    """Times are normalized to the host speed of the yardstick recording."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    latencies = normalized_per_input(stats, recorded)
    n = len(latencies)
    return {
        "op_ms.p50": (nearest_rank(latencies, 0.5) * 1e3, "ms", n),
        "op_ms.p90": (nearest_rank(latencies, 0.9) * 1e3, "ms", n),
        "ops_per_s": (n / sum(latencies), "1/s", n),
        "peak_rss_mb": (peak_kb / 1024, "MB", 1),
        "setup_s": (setup_s, "s", SETUP_REPEATS),
    }


def per_layer(untraced: Stats, traced: Stats, tracer) -> dict:
    passes = traced.passes
    out = {}
    for name in tracing.SPAN_NAMES:
        out[f"{name}.ms"] = (tracer.self_s[name] * 1e3 / passes, "ms")
    layers = tracer.layer_self_s()
    for layer, seconds in layers.items():
        out[f"layer.{layer}.ms"] = (seconds * 1e3 / passes, "ms")
    other = traced.wall_s - sum(layers.values())
    out["layer.other.ms"] = (other * 1e3 / passes, "ms")
    counts = tracer.counts
    for name in (
        "compiler.closure.contexts",
        "compiler.closure.hidden_parents",
        "normalize.subsumption_checks",
        "marginalize.cross_clauses",
    ):
        out[name] = (counts[name] / passes, "count")
    out["semantics.inconsistency_degree.calls"] = (
        tracer.calls["semantics.inconsistency_degree"] / passes,
        "count",
    )
    out["model.weighted_base.built"] = (
        tracer.calls["model.weighted_base"] / passes,
        "count",
    )
    checks = counts["normalize.subsumption_checks"]
    out["normalize.removed_ratio"] = (
        counts["normalize.removed"] / checks if checks else 0.0,
        "ratio",
    )
    cross = counts["marginalize.cross_clauses"]
    out["marginalize.kept_ratio"] = (
        counts["marginalize.kept"] / cross if cross else 0.0,
        "ratio",
    )
    # Sizes and verify time come from the untraced pass.
    out["io.network_bytes"] = (untraced.network_bytes, "count")
    out["network.cells"] = (untraced.cells, "count")
    out["network.edges"] = (untraced.edges, "count")
    verify = best_per_input(untraced.verify_s)
    out["verify_ms.p50"] = (nearest_rank(verify, 0.5) * 1e3 if verify else 0.0, "ms")
    out["trace.overhead_ratio"] = (
        (traced.wall_s / traced.passes) / untraced.wall_s,
        "ratio",
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    inputs, setup_s = setup(args.workload, args.seed)
    if args.trace:
        untraced = measure(inputs, 0)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = measure(inputs, args.seconds - untraced.wall_s, untraced.outputs)
        finally:
            tracer.uninstall()
        stats = [untraced, traced]
        metrics = per_layer(untraced, traced, tracer)
        lines = [(name, value, unit, traced.passes) for name, (value, unit) in metrics.items()]
    else:
        recorded = workloads.load_times()[args.workload]
        stats = [measure(inputs, args.seconds, twins=yardstick.frozen_twins(inputs))]
        metrics = end_to_end(stats[0], setup_s, recorded)
        lines = [(name, value, unit, n) for name, (value, unit, n) in metrics.items()]

    attempted = sum(s.attempted for s in stats)
    failed = sum(s.failed for s in stats)
    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}: "
        f"{len(inputs)} inputs, {sum(s.passes for s in stats)} passes, "
        f"{attempted} ops, failed_ratio {failed / attempted:.6f}"
    )
    for name, value, unit, n in lines:
        print(f"  {name:40s} {value:14.4f} {unit:6s} n={n}")
    if not args.trace:
        raw = best_per_input(stats[0].op_s)
        print(f"  {'raw op_ms.p50 (fastest pass)':40s} {nearest_rank(raw, 0.5) * 1e3:14.4f} ms")
        print(f"  {'host speed vs yardstick recording':40s} {host_speed(stats[0], recorded):14.4f}")
        verify = best_per_input(stats[0].verify_s)
        if verify:
            print(f"  {'verify_ms.p50':40s} {nearest_rank(verify, 0.5) * 1e3:14.4f} ms     n={len(verify)}")
            print(f"  {'network.cells':40s} {stats[0].cells:14d} count  (one pass)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in lines},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    if not (SRC / "posslog" / "__init__.py").is_file():
        sys.exit(f"error: posslog sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads
    import yardstick

    sys.exit(main())

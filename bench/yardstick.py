"""Host-speed yardstick: a frozen copy of posslog that runs every op again.

The benchmark runs on a shared machine whose speed drifts by up to 2.5x
within an hour, in spells that outlast a whole run, so no statistic of one
run's wall times is steady from run to run. `posslog_frozen/` is a copy of
`src/posslog` (without the CLI) taken when the benchmark was defined, and
it never changes. Each timed op is paired with the same op on the frozen
copy, run right before or right after it, so both see the same host speed.
`yardstick.json` holds the frozen copy's time for every pool op, recorded
once. An op's normalized latency is

    median over passes of (live time / frozen time) * recorded frozen time,

its latency at the host speed of the recording. On the commit that
defined the benchmark it reads the recorded time; a change that makes the
live package k times faster divides it by k.

Set-up time is scaled the same way, by the host speed measured right before
and right after each set-up: the recorded over the measured time of a fixed
calibration set of frozen compile-small ops.
"""

from __future__ import annotations

import io
import pickle
from dataclasses import replace
from time import perf_counter

import posslog_frozen
import workloads

# The calibration set: the compile-small ops of these pool bases.
CALIBRATION_BASES = range(8)


class _ToFrozen(pickle.Unpickler):
    def find_class(self, module, name):
        if module == "posslog" or module.startswith("posslog."):
            module = "posslog_frozen" + module[len("posslog") :]
        return super().find_class(module, name)


def to_frozen(obj):
    """The same object built from the frozen copy's classes."""
    return _ToFrozen(io.BytesIO(pickle.dumps(obj))).load()


def frozen_twins(inputs) -> dict:
    """Each input as the frozen copy takes it, by key. Compile inputs are
    plain text; query inputs that share a base share its frozen copy."""
    twins, bases = {}, {}
    for inp in inputs:
        if isinstance(inp, workloads.QueryInput):
            if id(inp.base) not in bases:
                bases[id(inp.base)] = to_frozen(inp.base)
            inp = replace(inp, base=bases[id(inp.base)], args=to_frozen(inp.args))
        twins[inp.key] = inp
    return twins


def run_frozen(twin) -> tuple[float, str]:
    """Run one op on the frozen copy; its wall time and its digest."""
    if isinstance(twin, workloads.CompileInput):
        start = perf_counter()
        _, out = workloads.run_compile(twin, posslog_frozen)
        return perf_counter() - start, workloads.compile_digest(twin, out)
    start = perf_counter()
    answer = workloads.run_query(twin, posslog_frozen)
    return perf_counter() - start, answer


def calibration_twins() -> list[workloads.CompileInput]:
    reference = workloads.load_reference()["compile-small"]
    return [
        inp for i in CALIBRATION_BASES for inp in workloads.small_inputs(i, reference[str(i)])
    ]


def host_speed_now(twins: list[workloads.CompileInput]) -> float:
    """Recorded / measured time of the calibration set, run now: above 1
    when the host runs faster than when the yardstick was recorded."""
    recorded = workloads.load_times()["compile-small"]
    measured = sum(run_frozen(twin)[0] for twin in twins)
    return sum(recorded[twin.key] for twin in twins) / measured

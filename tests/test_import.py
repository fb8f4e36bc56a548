"""A cold start stays lean: importing the package, then its CLI, in a fresh
interpreter loads none of `dataclasses`, `inspect` and `json`, which once
made up about three quarters of `import posslog`."""

import subprocess
import sys
from pathlib import Path

import posslog

HEAVY = {"dataclasses", "inspect", "json"}

# Prints, per import, the modules it added to those already loaded (by
# `site`, say), on one line.
PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
for name in ("posslog", "posslog.cli"):
    before = set(sys.modules)
    __import__(name)
    print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_cold_import_loads_no_heavy_module():
    src = Path(posslog.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-I", "-c", PROBE, str(src)],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    package, cli = (set(line.split()) for line in done.stdout.splitlines())
    assert "posslog" in package and "posslog.cli" in cli
    assert not HEAVY & package, sorted(HEAVY & package)
    assert not HEAVY & cli, sorted(HEAVY & cli)

"""The package's modules: the memory that compiling each one takes.

With bytecode caching off (``PYTHONDONTWRITEBYTECODE``), every process,
each worker of a campaign included, compiles every thinlab module it
imports, and the memory freed after the largest compile stays resident.
So a process's peak RSS follows the largest compile peak among all
modules, and every module is held to the budget, not only the largest.
"""

import sys
import tracemalloc
from pathlib import Path

import pytest

import thinlab
import thinlab.cli  # imports every module the CLI uses

MODULES = sorted(path for root in thinlab.__path__ for path in Path(root).glob("*.py"))

# compile() peaks under tracemalloc on CPython 3.11: cli 1109 KiB,
# experiments 987, checks 744, engine 735, oracle 718, trace 713, rng 598,
# bounds 525, counting 502, cli_params 389, two_choices 347, threshold
# 341, strategies 329, __init__ 108 and errors 101 KiB.  Before engine.py
# and cli.py were split they peaked at 1987 and 1419 KiB.  Splitting only
# one of the two left the benchmark's campaign peak RSS where it was, since
# the other was then the largest; splitting both cut it by 0.8 MB.
COMPILE_BUDGET = 1152 * 1024


def test_every_imported_module_is_covered():
    files = {Path(module.__file__) for name, module in sys.modules.items()
             if name.startswith("thinlab.") or name == "thinlab"}
    assert files <= set(MODULES)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_compile_peak_within_budget(path):
    source = path.read_text()
    tracemalloc.start()
    try:
        compile(source, str(path), "exec")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < COMPILE_BUDGET

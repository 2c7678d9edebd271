"""The package's modules: the memory that compiling each one takes.

With bytecode caching off (``PYTHONDONTWRITEBYTECODE``), every process,
each worker of a campaign included, compiles every thinlab module it
imports, and the memory freed after the largest compile stays resident.
So a process's peak RSS follows the largest compile peak among all
modules, and every module is held to the budget, not only the largest.
"""

import ast
import sys
import tracemalloc
from pathlib import Path

import pytest

import thinlab
import thinlab.cli  # imports every module the CLI uses

MODULES = sorted(path for root in thinlab.__path__ for path in Path(root).glob("*.py"))

# compile() peaks under tracemalloc on CPython 3.11: cli 1052 KiB,
# experiments 980, oracle 947, engine 919, checks 748, trace 686, rng 609,
# bounds 564, counting 490, cli_params 398, two_choices 362, threshold
# 341, strategies 301, errors 156 and __init__ 109 KiB.  A module's peak
# steps up by about 120 KiB where it passes 2048 tokens: engine went from
# 2038 to 2199 tokens, and from 735 to 898 KiB, when the run bound moved
# into it.  Before engine.py and cli.py were split they peaked at 1987 and
# 1419 KiB.  Splitting only one of the two left the benchmark's campaign
# peak RSS where it was, since the other was then the largest; splitting
# both cut it by 0.8 MB.
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


def test_trace_imports_no_kernel():
    # What a run records is built without running a kernel, so trace.py
    # imports no kernel, stream or bound of one: engine picks the kernel and
    # bounds the run that uses it.
    tree = ast.parse(Path(thinlab.__file__).with_name("trace.py").read_text())
    relative = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level}
    assert relative == {"errors", "strategies"}

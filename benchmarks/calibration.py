"""Host-speed calibration: fixed reference work timed beside the measured work.

On a shared 2-vCPU host the same code ran up to 1.9 times slower for
minutes at a time, fresh interpreters included, with CPU time rising with
wall time: the slowdown is the host's, not the program's.  So the
benchmark times reference work that never changes next to the work it
measures, and scales each measured time by ``reference time at the fast
speed / reference time now``: the result is the time the work would take
with the host at its fast speed.  The raw times are printed beside it.

- Passes are scaled by a kernel (a per-item Python loop and a numpy
  draw-and-count at n = 1e6, the two kinds of work in thinlab) run in as
  many processes at once as the pass keeps busy: the campaign's 2 workers
  load the host differently from one process.
- Set-ups are scaled by the start of a fresh interpreter that imports
  numpy and nothing of thinlab: a set-up is mostly process start and
  imports, which the host slows by a different factor than the kernel.
"""

from __future__ import annotations

import multiprocessing
import statistics
import subprocess
import sys
import time

import numpy as np

# Fixed scales near the fastest times seen for the reference work on a
# shared 2-vCPU Intel Xeon KVM guest (4 MiB L2, 300 MiB L3), Python 3.11.7,
# numpy 2.4.6.  They only set the unit: they never change, so a scaled time
# moves with the program's own cost, and on another host every scaled time
# moves by the same factor.
KERNEL_REFERENCE_S = 0.0215  # one kernel call
START_REFERENCE_S = 0.13  # one reference start, to its exit
BLOCK_CALLS = 5  # kernel calls per calibration block
REFERENCE_START = [sys.executable, "-c", "import numpy; print('ready')"]


def kernel() -> int:
    """Half a per-item Python loop, half a vectorized draw-and-count at 1e6."""
    total = 0
    table = {}
    for i in range(100_000):
        total += i * i % 7
        table[i & 1023] = total
    draws = np.random.default_rng(12345).integers(0, 1_000_000, 1_000_000)
    return total + int(np.bincount(draws, minlength=1_000_000).max())


def kernel_times(calls: int) -> list[float]:
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return times


def _timed_calls(barrier, conn) -> None:
    barrier.wait()
    conn.send(kernel_times(BLOCK_CALLS))
    conn.close()


def block(processes: int = 1) -> float:
    """Median seconds of one kernel call, over ``BLOCK_CALLS`` calls now in
    each of ``processes`` processes at once."""
    if processes == 1:
        return statistics.median(kernel_times(BLOCK_CALLS))
    context = multiprocessing.get_context("fork")
    barrier = context.Barrier(processes)
    pipes = [context.Pipe(duplex=False) for _ in range(processes)]
    children = [context.Process(target=_timed_calls, args=(barrier, send))
                for _recv, send in pipes]
    try:
        for child in children:
            child.start()
        for _recv, send in pipes:
            send.close()  # so that a child that dies ends its recv()
        times = [t for recv, _send in pipes for t in recv.recv()]
    finally:
        for child in children:
            if child.pid is not None:
                child.join(timeout=60)
                if child.is_alive():
                    child.kill()
                    child.join()
    return statistics.median(times)


def time_to_ready(argv: list[str], timeout: float) -> float | None:
    """Seconds from starting ``argv`` to its first line, or None unless
    that line is "ready" and the process then exits with status 0."""
    start = time.perf_counter()
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        return None
    if child.returncode != 0 or line.strip() != "ready":
        return None
    return elapsed


def reference_start() -> float:
    """Seconds from starting the reference interpreter to its exit: timed to
    the exit, not to its "ready" line, it spread less from run to run."""
    start = time.perf_counter()
    done = subprocess.run(REFERENCE_START, capture_output=True, text=True, timeout=60)
    if done.returncode != 0 or done.stdout.strip() != "ready":
        raise RuntimeError("the reference interpreter start failed")
    return time.perf_counter() - start


def scaled(elapsed: float, before: float, after: float, reference: float) -> float:
    """``elapsed`` at the fast speed, from the reference times either side of it."""
    return elapsed * reference / ((before + after) / 2)

"""The host's speed, measured beside a run with a fixed reference task.

The benchmark's host shares its cores with other tenants, and its speed
per core moves within minutes: the same operation used 509 ms of CPU in
one run and 860 ms in the next.  To tell that apart from a change in
the program, this process runs a fixed piece of pure-Python work again
and again beside the measured window and reports the CPU time one piece
took.  The gated per-operation cost is the operation's CPU time over
that reference time.

A piece has the two kinds of work the program does, written here
without the program: exact rational elimination (as in its LPs), and a
walk through a heap far larger than the processor's caches (as through
its own object graph).  The walk matters: on this host the program's
CPU time moved in proportion to the walk's (slope 1.0 in logs over 279
cold-2d operations), but only with the 0.7th power of the arithmetic's,
since the arithmetic alone gains more from a fast host than the program
does.

Run as ``python3 perfbench/calibrate.py``, the module is that process:
it prints ``ready``, then runs one piece every :data:`PERIOD_S` seconds
until a line arrives on standard input (or it closes); then it prints
the CPU seconds of each piece as one JSON list and exits.
:class:`Reference` runs it from the benchmark.
"""

from __future__ import annotations

import json
import pathlib
import random
import select
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import common

#: Seconds between two pieces.  A piece takes about a tenth of this, so
#: the reference uses a tenth of one core.
PERIOD_S = 0.1

#: Entries of the heap the walk goes through (about 40 MiB of list and
#: int objects), and steps of one walk.
HEAP = 1 << 20
STEPS = 25_000


def _matrix(size: int) -> list[list[Fraction]]:
    """A fixed, well-conditioned matrix with small rational entries."""
    return [
        [Fraction((7 * i + 3 * j) % 11 - 5, 1 + (i + 2 * j) % 4)
         + (size if i == j else 0)
         for j in range(size + 1)]
        for i in range(size)
    ]


def _eliminate(size: int) -> Fraction:
    """Solve a fixed ``size``×``size`` rational system."""
    rows = _matrix(size)
    for col in range(size):
        pivot = rows[col][col]
        rows[col] = [value / pivot for value in rows[col]]
        for row in range(size):
            if row != col and rows[row][col]:
                factor = rows[row][col]
                rows[row] = [a - factor * b
                             for a, b in zip(rows[row], rows[col])]
    return sum(row[-1] for row in rows)


def heap() -> list[int]:
    """A fixed cyclic permutation of ``range(HEAP)`` (Sattolo's shuffle),
    so a walk never closes a short loop that would stay in cache."""
    order = list(range(HEAP))
    rng = random.Random(0)
    for i in range(HEAP - 1, 0, -1):
        j = rng.randrange(i)
        order[i], order[j] = order[j], order[i]
    return order


def piece(order: list[int]) -> int:
    """One reference task: an 8×8 rational system, then a walk."""
    _eliminate(8)
    i = 0
    for __ in range(STEPS):
        i = order[i]
    return i


class Reference:
    """The reference process, running for the length of a ``with`` on
    the same CPU as the work process (:func:`common.spawn` pins both).

    Afterwards :attr:`piece_s` is the median CPU seconds of a piece.
    """

    def __init__(self, root: pathlib.Path) -> None:
        self.root = root
        self.piece_s = None

    def __enter__(self) -> "Reference":
        self.process = common.spawn(self.root, "calibrate.py",
                                    stdin=subprocess.PIPE)
        if self.process.stdout.readline().strip() != "ready":
            common.stop(self.process)
            raise RuntimeError("reference process failed to start")
        return self

    def __exit__(self, *exc) -> None:
        try:
            self.process.stdin.write("\n")
            self.process.stdin.flush()
            times = json.loads(self.process.stdout.readline())
        finally:
            code = common.stop(self.process, interrupt=False)
        if code != 0:
            raise RuntimeError(f"reference process exited with {code}")
        self.piece_s = statistics.median(times)


def main() -> int:
    order = heap()
    print("ready", flush=True)
    times = []
    while True:
        started = time.process_time()
        piece(order)
        times.append(time.process_time() - started)
        ready, __, __ = select.select([sys.stdin], [], [], PERIOD_S)
        if ready:
            break
    print(json.dumps(times), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""A fixed pure-Python computation that gauges how fast the host runs right now.

On a shared host the same operation runs up to twice as slowly for
minutes at a time, and the fastest of many runs slows with it.  The
reference is timed right around the program's work, in the same
process: in bursts between operations in a workload process, and with
``Gauge`` before, during and after the work of a fresh interpreter.
Every time metric is divided by the reference's mean run time there, so
that a slow stretch of the host moves both alike.

The work resembles the program's inner loops without calling it:
noncommutative polynomials as ``dict[tuple, Fraction]`` multiplied by
word concatenation, and Gaussian elimination over ``Fraction``.  Nothing
here depends on ``zhuind``, so a change to the program cannot change it.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

F = Fraction

# two fixed polynomials in three letters; their product has 7 x 7 terms
_P = {(0, 1): F(1, 2), (1, 0): F(-3), (2,): F(5, 7), (0, 0, 1): F(2, 3), (1, 2, 0): F(-1, 4), (2, 2): F(3), (0,): F(-5, 6)}
_Q = {(1,): F(4, 5), (0, 2): F(-2), (2, 1, 0): F(1, 3), (1, 1): F(7, 2), (0, 1, 2): F(-3, 8), (2, 0): F(1), (): F(-1, 9)}
# a fixed 7 x 9 matrix of small rationals, rank 6 (row 6 = row 0 + row 1)
_ROWS = [[F((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 4) for j in range(9)] for i in range(6)]
_ROWS.append([a + b for a, b in zip(_ROWS[0], _ROWS[1])])


def _mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for u, a in p.items():
        for v, b in q.items():
            w = u + v
            s = out.get(w, 0) + a * b
            if s:
                out[w] = s
            else:
                out.pop(w, None)
    return out


def _rank(rows: list[list[Fraction]]) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] * inv
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def reference() -> int:
    """2 to 3.5 ms of polynomial products and elimination on the measuring host."""
    prod = _mul(_mul(_P, _Q), _P)
    return len(prod) + _rank(_ROWS)


EXPECTED = reference()


def burst_level(runs: int) -> float:
    """Mean time of ``runs`` back-to-back reference runs, in seconds."""
    clock = time.perf_counter
    start = clock()
    for _ in range(runs):
        if reference() != EXPECTED:
            raise RuntimeError("the reference computation returned a wrong value")
    return (clock() - start) / runs


class Gauge:
    """Reference levels around and during one piece of work in this interpreter.

    ``with Gauge(burst, gap) as g: work()`` times one warm-up run and a
    burst of ``burst`` reference runs before the work, one run every
    ``gap`` seconds while it runs (from a SIGALRM handler, between the
    work's bytecodes), and a burst after it.  ``g.level`` is the mean of
    the timed runs; ``g.spent`` is the seconds all the runs took, to be
    taken out of the work's time.
    """

    def __init__(self, burst: int, gap: float):
        self.burst, self.gap = burst, gap
        self.runs: list[float] = []
        self.spent = 0.0

    def _time_runs(self, n: int, warm_up: bool = False) -> None:
        clock = time.perf_counter
        start = clock()
        if warm_up:
            reference()
        for _ in range(n):
            t = clock()
            if reference() != EXPECTED:
                raise RuntimeError("the reference computation returned a wrong value")
            self.runs.append(clock() - t)
        self.spent += clock() - start

    def _sample(self, signum, frame) -> None:
        self._time_runs(1)

    def __enter__(self) -> "Gauge":
        self._time_runs(self.burst, warm_up=True)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.gap, self.gap)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._time_runs(self.burst)

    @property
    def level(self) -> float:
        return sum(self.runs) / len(self.runs)

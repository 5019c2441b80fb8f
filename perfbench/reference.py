"""A reference loop that shares the job's CPU and counts how far it got.

The benchmark's host is shared with other tenants, and how fast it runs
Python changes by a factor of up to 4 within seconds (README.md, "Noise").
The virtual machine exposes no hardware counters, so the job's work cannot
be counted in instructions or cycles.  Instead the worker forks a counter
onto the job's one CPU.  While the job runs, the counter repeats a fixed
round of pure-Python work, and the kernel's fair scheduler gives the two
processes equal shares of the CPU, millisecond by millisecond.  A slow
spell of the host slows both alike, so the number of rounds the counter
finishes while the job runs measures the job's work in rounds: it moves with
the job's cost, not with the host's speed.

The round uses no quiverfold code, so a change to quiverfold cannot change
it.  It does the kinds of work quiverfold does: tuple polynomial arithmetic
on Python ints, Fractions, small object construction and dict lookups, for
about a millisecond.
"""

from __future__ import annotations

import mmap
import os
import struct

# Layout of the shared page: rounds finished (written by the counter),
# then the stop flag (written by the worker).
_ROUNDS = struct.Struct("q")
_STOP = _ROUNDS.size


class Counter:
    """A child process that runs reference rounds between start() and stop().

    Fork it before importing anything large: the child is a copy of the
    caller.  It inherits the caller's CPU affinity, which must be one CPU.
    """

    def __init__(self):
        self._shared = mmap.mmap(-1, mmap.PAGESIZE)
        go_read, self._go = os.pipe()
        parent = os.getpid()
        self._pid = os.fork()
        if self._pid == 0:
            os.close(self._go)
            _count(self._shared, go_read, parent)
        os.close(go_read)

    def start(self) -> None:
        os.write(self._go, b"g")

    def rounds(self) -> int:
        return _ROUNDS.unpack_from(self._shared, 0)[0]

    def stop(self) -> None:
        """End the child and wait for it; safe to call more than once."""
        if self._pid:
            self._shared[_STOP] = 1
            os.close(self._go)
            os.waitpid(self._pid, 0)
            self._pid = 0


def _count(shared, go_read: int, parent: int) -> None:
    """The child: wait for the go byte, then run rounds until told to stop.

    It also stops when the worker is gone, so it never outlives it.
    """
    try:
        if os.read(go_read, 1):
            from fractions import Fraction

            done = 0
            while not shared[_STOP] and os.getppid() == parent:
                _round(done, Fraction)
                done += 1
                _ROUNDS.pack_into(shared, 0, done)
    finally:
        os._exit(0)


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def mul(self, other, mod):
        return _Pair(_poly_mod(_poly_mul(self.a, other.a), mod), self.b * other.b)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    end = len(out)
    while end > 0 and out[end - 1] == 0:
        end -= 1
    return tuple(out[:end])


def _poly_mod(a, mod):
    """Remainder of ``a`` modulo the monic polynomial ``mod``."""
    out = list(a)
    deg = len(mod) - 1
    for top in range(len(out) - 1, deg - 1, -1):
        lead = out[top]
        if lead:
            for k in range(deg + 1):
                out[top - deg + k] -= lead * mod[k]
    return tuple(out[:deg])


def _round(r: int, Fraction) -> int:
    # x^4 - 4x^2 + 2, constant term first
    mod = (2, 0, -4, 0, 1)
    memo: dict = {}
    x = _Pair((r % 7 - 3, 1, r % 3 - 1, 2), Fraction(r % 50 + 1, r % 50 + 2))
    acc = _Pair((1,), Fraction(1))
    for step in range(60):
        acc = acc.mul(x, mod)
        key = tuple(c % 97 for c in acc.a)
        memo[key] = memo.get(key, 0) + step
        if step % 15 == 14:
            b = acc.b
            acc = _Pair(tuple(c % 1000003 for c in acc.a),
                        Fraction(b.numerator % 997 + 1, b.denominator % 991 + 1))
    return len(memo)

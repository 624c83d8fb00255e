"""Host-speed probe: two fixed pure-Python loops, no program code.

Imported by ``harness`` to probe in-process.  Run as a script, it
samples host speed in the background for a workload whose own process
is busy with background threads: each line on standard input is
answered on standard output with the mean rate since the line before;
end of input stops it.
"""

from __future__ import annotations

import select
import statistics
import sys
import time

_M32 = 0xFFFFFFFF


def _arith(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


def _add(regs, mem, a, b, d):
    regs[d] = (regs[a] + regs[b]) & _M32


def _xor(regs, mem, a, b, d):
    regs[d] = regs[a] ^ regs[b]


def _srl(regs, mem, a, b, d):
    regs[d] = regs[a] >> (b & 31)


def _addi(regs, mem, a, b, d):
    regs[d] = (regs[a] + b) & _M32


def _lw(regs, mem, a, b, d):
    at = (regs[a] + b) & 60
    regs[d] = int.from_bytes(mem[at:at + 4], "little")


def _sw(regs, mem, a, b, d):
    at = (regs[a] + b) & 60
    mem[at:at + 4] = regs[d].to_bytes(4, "little")


_PROBE_PROGRAM = ((_addi, 1, 7, 1), (_add, 1, 2, 3), (_xor, 3, 1, 4),
                  (_srl, 4, 3, 5), (_sw, 0, 8, 5), (_lw, 0, 8, 6),
                  (_add, 6, 1, 2), (_addi, 2, 1, 2))


def _dispatch(n: int) -> int:
    """A table-dispatched register machine, the shape of an ISS loop."""
    regs = [0] * 8
    mem = bytearray(64)
    program = _PROBE_PROGRAM
    size = len(program)
    for i in range(n):
        op, a, b, d = program[i % size]
        op(regs, mem, a, b, d)
    return regs[2]


def probe_rate(scale: float = 1.0) -> float:
    """Host speed now: the geometric mean of the two probe loops' rates
    (operations per host second), about ``scale`` x 20 ms of work."""
    rates = []
    for loop, ops in ((_arith, 100_000), (_dispatch, 30_000)):
        ops = int(ops * scale)
        start = time.perf_counter()
        loop(ops)
        rates.append(ops / (time.perf_counter() - start))
    return (rates[0] * rates[1]) ** 0.5


#: Seconds between two samples of the sampling helper, and the size of
#: one sample (a fifth of a full probe, about 4 ms: 4 % of one CPU).
SAMPLE_INTERVAL = 0.05
SAMPLE_SCALE = 0.2


def sample() -> None:
    """Sample host speed every :data:`SAMPLE_INTERVAL` until standard
    input ends; each input line is answered with the mean rate of the
    samples since the previous line (a full probe when there were none)
    and starts a new window.  The mean, not the median: the host's
    speed comes in bursts, and the work a window gets done follows its
    average speed."""
    samples = []
    while True:
        ready, _, _ = select.select([sys.stdin], [], [], SAMPLE_INTERVAL)
        if not ready:
            samples.append(probe_rate(SAMPLE_SCALE))
            continue
        if not sys.stdin.readline():
            return
        rate = statistics.fmean(samples) if samples else probe_rate()
        print(repr(rate), flush=True)
        samples = []


if __name__ == "__main__":
    sample()

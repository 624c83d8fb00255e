"""Seeded guest programs, each with a Python model of its expected output.

Every generator takes a PRNG derived from the workload seed and returns a
:class:`GuestProgram`.  The seed moves constants and trip counts by a few
percent but never the instruction mix, so host speed stays comparable
across seeds while the inputs still differ.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

M32 = 0xFFFFFFFF


@dataclass(frozen=True)
class GuestProgram:
    name: str
    source: str
    exit_code: int
    uart: str


# F1-shaped: one self-looping ALU block, the JIT superblock case.
_COMPUTE = """
_start:
    li t0, 0
    li t1, {iters}
    li a0, {init}
    li a4, {key}
loop:                 # @loopbound {iters}
    add a0, a0, t0
    xor a1, a0, a4
    srli a2, a1, {shift}
    and a3, a2, t0
    or a0, a0, a3
    slli a0, a0, 1
    srli a0, a0, 1
    addi t0, t0, 1
    blt t0, t1, loop
    andi a0, a0, 0xff
    li a7, 93
    ecall
"""


def _jitter(rng: random.Random, base: int) -> int:
    return base + rng.randrange(max(1, base // 14))


def compute(rng: random.Random, iters: int = 14_000) -> GuestProgram:
    iters = _jitter(rng, iters)
    init = rng.randrange(1 << 11)
    key = rng.randrange(1 << 11)
    shift = rng.randrange(1, 6)
    a0 = init
    for t0 in range(iters):
        a0 = (a0 + t0) & M32
        a3 = ((a0 ^ key) >> shift) & t0
        a0 = ((a0 | a3) << 1 & M32) >> 1
    source = _COMPUTE.format(iters=iters, init=init, key=key, shift=shift)
    return GuestProgram("compute", source, a0 & 0xFF, "")


# F5-shaped: a load/store loop longer than one translation block, so the
# compiled tier must fuse a trace, with every access in the RAM window.
_MEMORY_HEAD = """
_start:
    la s0, scratch
    li t0, 0
    li t1, {iters}
    li a0, 0
loop:
"""

_MEMORY_TAIL = """
    addi t0, t0, 1
    blt t0, t1, loop
    andi a0, a0, 0xff
    li a7, 93
    ecall
.data
scratch: .word {words}
"""


def memory(rng: random.Random, iters: int = 2_800) -> GuestProgram:
    iters = _jitter(rng, iters)
    slots = [rng.randrange(8) for _ in range(10)]
    words = [rng.randrange(1 << 32) for _ in range(8)]
    body = "\n".join(
        f"    lw t2, {slot * 4}(s0)\n"
        "    add a0, a0, t2\n"
        "    xor t2, t2, t0\n"
        f"    sw t2, {slot * 4}(s0)" for slot in slots)
    source = (_MEMORY_HEAD.format(iters=iters) + body
              + _MEMORY_TAIL.format(words=", ".join(map(str, words))))
    mem = list(words)
    a0 = 0
    for t0 in range(iters):
        for slot in slots:
            value = mem[slot]
            a0 = (a0 + value) & M32
            mem[slot] = value ^ t0
    return GuestProgram("memory", source, a0 & 0xFF, "")


# A periodic CLINT timer: the handler re-arms mtimecmp, writes one UART
# byte and returns, so every period takes the bus slow path, a device
# tick, an interrupt poll and a trap entry.
_IRQ = """
_start:
    la t0, handler
    csrw mtvec, t0
    li s1, 0
    li s2, {count}
    li s3, 0x0200BFF8
    li s4, 0x02004000
    li s5, 0x10000000
    li s6, 26
    lw t1, 0(s3)
    addi t1, t1, {period}
    sw t1, 0(s4)
    sw zero, 4(s4)
    li t0, 0x80
    csrw mie, t0
    csrsi mstatus, 8
    li a0, 0
    li a1, {key}
spin:
    add a0, a0, a1
    xor a1, a1, a0
    srli a1, a1, 1
    addi a1, a1, 7
    blt s1, s2, spin
    andi a0, s1, 0xff
    li a7, 93
    ecall
handler:
    lw t1, 0(s3)
    addi t1, t1, {period}
    sw t1, 0(s4)
    sw zero, 4(s4)
    remu t2, s1, s6
    addi t2, t2, 65
    sw t2, 0(s5)
    addi s1, s1, 1
    mret
"""


def irq(rng: random.Random, count: int = 1_150) -> GuestProgram:
    count = _jitter(rng, count)
    period = 120 + rng.randrange(40)
    key = rng.randrange(1 << 11)
    source = _IRQ.format(count=count, period=period, key=key)
    uart = "".join(chr(65 + i % 26) for i in range(count))
    return GuestProgram("irq", source, count & 0xFF, uart)


# F2-shaped: a long transient-heavy arithmetic loop (run-to-trigger
# prefixes dominate mutant cost) with one word of memory traffic per
# iteration so memory faults have a target.
_CAMPAIGN = """
_start:
    li a0, {init}
    li s0, 0
    li s1, {iters}
    la s2, scratch
outer:
    addi t0, s0, {step}
    xor t1, t0, a0
    slli t2, t1, 2
    srli t3, t2, 1
    add a0, a0, t3
    andi a0, a0, 2047
    sw a0, 0(s2)
    lw a1, 0(s2)
    addi s0, s0, 1
    blt s0, s1, outer
    andi a0, a1, 0xff
    li a7, 93
    ecall
.data
scratch: .word 0
"""


def campaign(rng: random.Random, iters: int) -> GuestProgram:
    iters = _jitter(rng, iters)
    init = rng.randrange(2048)
    step = rng.randrange(1, 64)
    a0 = init
    for s0 in range(iters):
        t3 = ((((s0 + step) ^ a0) << 2) & M32) >> 1
        a0 = (a0 + t3) & 2047
    source = _CAMPAIGN.format(init=init, iters=iters, step=step)
    return GuestProgram("campaign", source, a0 & 0xFF, "")

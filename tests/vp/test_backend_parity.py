"""Backend parity: ``interp`` and ``compiled`` must be architecturally
indistinguishable.

Every program from the three testgen suites plus a 200-program fuzz
corpus runs under both execution backends — with and without
per-instruction hooks attached for the directed suites — and the suite
asserts byte-identical :class:`RunResult`, final register file, CSR
state, counters, and pc.

Digest note: MIP (0x344) is read *architecturally* (``csrs.read``), not
via ``raw_read``.  The compiled tier's batched self-loops skip the
per-iteration raw-MIP shadow refresh (it is rewritten at the next poll),
so the raw shadow may legitimately lag by one batch at a run boundary
while the architectural value — which re-polls the interrupt sources —
never does.  That is exactly the determinism contract documented in
``docs/performance.md``.
"""

import random

import pytest

from repro.fuzz.executor import ProgramBuilder
from repro.fuzz.mutators import IsaMutator
from repro.isa import RV32IMC_ZICSR
from repro.testgen import (ArchSuiteGenerator, TortureConfig,
                           TortureGenerator, UnitSuiteGenerator)
from repro.vp import (BACKEND_NAMES, Machine, MachineConfig, Plugin,
                      run_backend_lockstep)

#: Promote after two executions so even short directed programs exercise
#: the compiled tier.
JIT_THRESHOLD = 2

#: CSRs compared after every run: mstatus, mie, mtvec, mscratch, mepc,
#: mcause, mtval, mip (architectural — see module docstring).
DIGEST_CSRS = (0x300, 0x304, 0x305, 0x340, 0x341, 0x342, 0x343, 0x344)


class _CountingHooks(Plugin):
    """Per-instruction + per-block hooks; forces the JIT's method shape."""

    name = "parity-counter"

    def __init__(self) -> None:
        self.insns = 0
        self.blocks = 0

    def on_insn_exec(self, cpu, decoded, pc) -> None:
        self.insns += 1

    def on_block_exec(self, cpu, block) -> None:
        self.blocks += 1


def state_digest(machine):
    cpu = machine.cpu
    return (
        tuple(cpu.regs.snapshot()),
        cpu.pc,
        tuple(cpu.csrs.read(addr) for addr in DIGEST_CSRS),
        cpu.csrs.instret,
        cpu.csrs.cycle,
    )


def run_one(program, backend, hooks=False, budget=200_000):
    kwargs = {"backend": backend}
    if backend == "compiled":
        kwargs["jit_threshold"] = JIT_THRESHOLD
    machine = Machine(MachineConfig(isa=RV32IMC_ZICSR, **kwargs))
    machine.load(program)
    plugin = machine.add_plugin(_CountingHooks()) if hooks else None
    result = machine.run(max_instructions=budget)
    hook_counts = (plugin.insns, plugin.blocks) if plugin else None
    return result, state_digest(machine), hook_counts, machine


def _suite_programs():
    programs = []
    programs += [(f"arch:{name}", prog) for name, prog
                 in ArchSuiteGenerator(RV32IMC_ZICSR).generate()]
    programs += [(f"unit:{name}", prog) for name, prog
                 in UnitSuiteGenerator(RV32IMC_ZICSR, seed=0).generate()]
    torture = TortureGenerator(RV32IMC_ZICSR,
                               TortureConfig(length=80, seed=7))
    programs += [(f"torture:{name}", prog) for name, prog
                 in torture.generate_suite(3, start_seed=7)]
    return programs


SUITE_PROGRAMS = _suite_programs()


@pytest.mark.parametrize("hooks", [False, True], ids=["nohooks", "hooks"])
@pytest.mark.parametrize("name,program", SUITE_PROGRAMS,
                         ids=[name for name, _ in SUITE_PROGRAMS])
def test_suite_program_parity(name, program, hooks):
    results = {}
    for backend in BACKEND_NAMES:
        result, digest, hook_counts, machine = run_one(
            program, backend, hooks=hooks)
        results[backend] = (result, digest, hook_counts)
        if backend == "compiled" and not hooks:
            stats = machine.jit_stats()
            assert stats is not None
    reference = results["interp"]
    assert results["compiled"] == reference, (
        f"{name} diverged under compiled:\n"
        f"  interp:   {reference}\n"
        f"  compiled: {results['compiled']}")


#: A memory-heavy loop long enough to split into multiple translation
#: blocks: the compiled tier must chain them into a cross-block trace,
#: and every backend routes the traffic through the RAM fast path.
TRACE_SOURCE = """
_start:
    la s0, scratch
    li t0, 0
    li t1, 300
    li a0, 0
loop:
""" + "\n".join(
    f"    lw t2, {(k % 8) * 4}(s0)\n"
    "    add a0, a0, t2\n"
    "    xor t2, t2, t0\n"
    f"    sw t2, {(k % 8) * 4}(s0)"
    for k in range(10)) + """
    addi t0, t0, 1
    blt t0, t1, loop
    li a0, 0
    li a7, 93
    ecall
.data
scratch: .word 0, 0, 0, 0, 0, 0, 0, 0
"""


@pytest.mark.parametrize("hooks", [False, True], ids=["nohooks", "hooks"])
def test_trace_and_fastpath_parity(hooks):
    """The trace tier and the RAM fast path are architecturally silent.

    Beyond the usual digest, the memory observables must match: the
    fast-path/bus access counters (the generated code increments them
    per access, exactly like :meth:`Cpu.load`/:meth:`Cpu.store`) and the
    dirty-page set (the fast path marks pages inline).
    """
    from repro.asm import assemble

    program = assemble(TRACE_SOURCE, isa=RV32IMC_ZICSR)
    results = {}
    observables = {}
    for backend in BACKEND_NAMES:
        result, digest, hook_counts, machine = run_one(
            program, backend, hooks=hooks)
        results[backend] = (result, digest, hook_counts)
        mem = machine.mem_stats()
        observables[backend] = (mem,
                                tuple(sorted(machine.ram.dirty_pages())))
        assert mem["fastpath_hit_rate"] > 0, (backend, mem)
        if backend == "compiled" and not hooks:
            stats = machine.jit_stats()
            assert stats["traces_compiled"] >= 1, stats
            assert stats["trace_instructions"] > \
                stats["compiled_instructions"], stats
    assert results["compiled"] == results["interp"]
    assert observables["compiled"] == observables["interp"]


@pytest.mark.parametrize("pair", [("interp", "compiled")],
                         ids=lambda p: "-vs-".join(p))
def test_lockstep_over_trace_program(pair):
    """Per-instruction lockstep across the multi-block memory loop."""
    from repro.asm import assemble

    program = assemble(TRACE_SOURCE, isa=RV32IMC_ZICSR)
    outcome = run_backend_lockstep(program, backends=pair,
                                   isa=RV32IMC_ZICSR,
                                   jit_threshold=JIT_THRESHOLD)
    assert not outcome.diverged
    assert outcome.instructions > 0


def test_compiled_tier_actually_engages():
    """The parity suite must not silently compare interpreter to itself."""
    # A hot loop long enough to clear the threshold many times over.
    source = """
    _start:
        li t0, 0
        li t1, 400
    loop:
        addi t0, t0, 1
        blt t0, t1, loop
        li a0, 0
        li a7, 93
        ecall
    """
    from repro.asm import assemble

    program = assemble(source, isa=RV32IMC_ZICSR)
    _result, _digest, _hooks, machine = run_one(program, "compiled")
    stats = machine.jit_stats()
    assert stats["blocks_compiled"] >= 1
    assert stats["compiled_instructions"] > stats["interp_instructions"]


def test_fuzz_corpus_parity():
    """200 seeded random programs, both backends, identical outcomes."""
    rng = random.Random(0xC0FFEE)
    mutator = IsaMutator(RV32IMC_ZICSR)
    builder = ProgramBuilder(RV32IMC_ZICSR)
    for index in range(200):
        words = []
        for _ in range(rng.randint(1, 24)):
            word = mutator.random_instruction(rng)
            if word is not None:
                words.append(word)
        program = builder.build(words)
        reference = run_one(program, "interp", budget=5_000)[:3]
        got = run_one(program, "compiled", budget=5_000)[:3]
        assert got == reference, (
            f"fuzz program {index} diverged under compiled: "
            f"words={[hex(w) for w in words]}")


@pytest.mark.parametrize("pair", [("interp", "compiled")],
                         ids=lambda p: "-vs-".join(p))
def test_lockstep_per_instruction(pair):
    """Per-instruction lockstep over a branchy, memory-touching loop."""
    from repro.asm import assemble

    program = assemble("""
    _start:
        la s0, scratch
        li t0, 0
        li t1, 60
    loop:
        andi t2, t0, 3
        slli t3, t2, 2
        add t4, s0, t3
        sw t0, 0(t4)
        lw t5, 0(t4)
        add a0, a0, t5
        addi t0, t0, 1
        blt t0, t1, loop
        li a7, 93
        li a0, 0
        ecall
    .data
    scratch: .word 0, 0, 0, 0
    """, isa=RV32IMC_ZICSR)
    outcome = run_backend_lockstep(program, backends=pair,
                                   isa=RV32IMC_ZICSR,
                                   jit_threshold=JIT_THRESHOLD)
    assert not outcome.diverged
    assert outcome.instructions > 0

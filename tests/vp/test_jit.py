"""The template JIT itself: codegen shapes, tiering, cache hygiene.

The backend parity suite (``test_backend_parity.py``) proves the
compiled tier is architecturally invisible; this module tests the JIT's
own machinery — which codegen shape a block gets, when a block is
promoted, what invalidates compiled code, and that stale functions can
never run after a translation-cache flush.
"""

import pytest

from repro.asm import assemble
from repro.isa import RV32IMC_ZICSR
from repro.vp import Machine, MachineConfig
from repro.vp.jit import CompiledBackend, DEFAULT_THRESHOLD
from repro.vp.jit.compiler import CompileError

from ..conftest import run_asm


def compiled_machine(threshold=1, **kwargs):
    return Machine(MachineConfig(isa=RV32IMC_ZICSR, backend="compiled",
                                 jit_threshold=threshold, **kwargs))


def compiled_blocks(machine):
    return {pc: block for pc, block in machine.cpu._tb_cache.items()
            if block.compiled is not None}


HOT_LOOP = """
_start:
    li t0, 0
    li t1, 300
loop:
    add a0, a0, t0
    xor a1, a1, a0
    addi t0, t0, 1
    blt t0, t1, loop
    li a0, 0
    li a7, 93
    ecall
"""

MEM_LOOP = """
_start:
    la s0, scratch
    li t0, 0
    li t1, 100
loop:
    sw t0, 0(s0)
    lw t2, 0(s0)
    add a0, a0, t2
    addi t0, t0, 1
    blt t0, t1, loop
    li a0, 0
    li a7, 93
    ecall
.data
scratch: .word 0
"""


# ----------------------------------------------------------------------
# Tiering
# ----------------------------------------------------------------------

def test_blocks_promote_at_threshold():
    machine, result = run_asm(HOT_LOOP, backend="compiled",
                              jit_threshold=8)
    assert result.stop_reason == "exit"
    stats = machine.jit_stats()
    assert stats["blocks_compiled"] >= 1
    # Warm-up iterations run in the interpreter tier first.
    assert stats["interp_instructions"] > 0
    assert stats["compiled_instructions"] > stats["interp_instructions"]


def test_default_threshold_is_documented_value():
    machine = Machine(MachineConfig(isa=RV32IMC_ZICSR, backend="compiled"))
    assert isinstance(machine.cpu.backend, CompiledBackend)
    assert machine.cpu.backend.threshold == DEFAULT_THRESHOLD == 8


def test_cold_blocks_stay_interpreted():
    # Threshold higher than any block's execution count: nothing compiles.
    machine, result = run_asm(HOT_LOOP, backend="compiled",
                              jit_threshold=10_000)
    assert result.stop_reason == "exit"
    stats = machine.jit_stats()
    assert stats["blocks_compiled"] == 0
    assert stats["compiled_instructions"] == 0


# ----------------------------------------------------------------------
# Codegen shapes
# ----------------------------------------------------------------------

def _sources(machine):
    return [block.compiled.__jit_source__
            for block in compiled_blocks(machine).values()]


def test_fused_batched_shape_for_pure_alu_self_loop():
    machine, result = run_asm(HOT_LOOP, backend="compiled", jit_threshold=1)
    assert result.stop_reason == "exit"
    sources = _sources(machine)
    batched = [src for src in sources if "_horizon(" in src]
    assert batched, "pure-ALU self-loop should take the batched loop shape"
    # The batched loop polls between batches, not per iteration.
    assert "_batch_safe(" in batched[0]


def test_fused_polling_shape_for_memory_self_loop():
    machine, result = run_asm(MEM_LOOP, backend="compiled", jit_threshold=1)
    assert result.stop_reason == "exit"
    sources = _sources(machine)
    loop_sources = [src for src in sources if "while True" in src]
    assert loop_sources, "self-loop should take the loop shape"
    for src in loop_sources:
        # Memory-touching bodies must re-poll every iteration — batching
        # would freeze device state the loop can observe.
        assert "_horizon(" not in src


def test_method_shape_when_hooks_attached():
    from repro.vp import Plugin

    class Hook(Plugin):
        name = "jit-hook"

        def __init__(self):
            self.count = 0

        def on_insn_exec(self, cpu, decoded, pc):
            self.count += 1

    machine = compiled_machine()
    program = assemble(HOT_LOOP, isa=RV32IMC_ZICSR)
    machine.load(program)
    hook = machine.add_plugin(Hook())
    result = machine.run(max_instructions=100_000)
    assert result.stop_reason == "exit"
    # The exiting ecall fires its hook but does not retire — same as the
    # interpreter (see test_backend_parity for the cross-backend proof).
    assert hook.count == result.instructions + 1
    # Hooked code still compiles (method shape), and every compiled
    # source carries the hook dispatch.
    stats = machine.jit_stats()
    assert stats["blocks_compiled"] >= 1
    assert all("HI" in src or "hook" in src for src in _sources(machine))


def test_jit_source_attached_for_introspection():
    machine, _ = run_asm(HOT_LOOP, backend="compiled", jit_threshold=1)
    for block in compiled_blocks(machine).values():
        src = block.compiled.__jit_source__
        assert src.startswith("def _tb")
        # The code object's filename carries the block address, so
        # tracebacks through compiled code are attributable.
        assert f"{block.start_pc:#x}" in block.compiled.__code__.co_filename


# ----------------------------------------------------------------------
# Cache hygiene
# ----------------------------------------------------------------------

def _run_twice_with_patch(backend):
    """Run a counting loop, patch its stride from 1 to 2 in RAM, flush,
    run again from the entry point.  Returns both final a0 values."""
    source = """
    _start:
        li t0, 0
        li a0, 0
        li t1, 200
    loop:
        addi t0, t0, 1
        blt t0, t1, loop
        mv a0, t0
        li a7, 93
        li a0, 0
        ecall
    """
    program = assemble(source, isa=RV32IMC_ZICSR)
    patched = assemble(source.replace("addi t0, t0, 1", "addi t0, t0, 2"),
                       isa=RV32IMC_ZICSR)
    kwargs = {"backend": backend}
    if backend == "compiled":
        kwargs["jit_threshold"] = 1
    machine = Machine(MachineConfig(isa=RV32IMC_ZICSR, **kwargs))
    machine.load(program)
    first = machine.run(max_instructions=10_000)
    assert first.stop_reason == "exit"
    # Self-modifying store: overwrite the whole text image with the
    # patched encoding, then flush — the contract for SMC.
    base, blob = patched.text_segment
    for offset in range(0, len(blob), 4):
        word = int.from_bytes(blob[offset:offset + 4], "little")
        machine.cpu.bus.store(base + offset, 4, word)
    machine.cpu.flush_translation_cache()
    assert not machine.cpu._tb_cache
    machine.cpu.pc = program.entry
    second = machine.run(max_instructions=10_000)
    assert second.stop_reason == "exit"
    return first.instructions, second.instructions


def test_smc_flush_never_runs_stale_compiled_code():
    interp = _run_twice_with_patch("interp")
    compiled = _run_twice_with_patch("compiled")
    assert compiled == interp
    # The patched loop strides by 2 — half the iterations.  If the stale
    # compiled block survived the flush, the second run's delta would
    # match the first run's count instead.  (``instructions`` accumulates
    # across run calls.)
    assert compiled[1] - compiled[0] < compiled[0]


def test_clear_on_full_drops_compiled_blocks():
    # A tiny cache cap forces wholesale clear-on-full flushes while the
    # loop blocks are hot and compiled.
    source = """
    _start:
        li t0, 0
        li t1, 50
    loop:
        addi t0, t0, 1
        beq t0, t1, out
        addi a1, a1, 2
        addi a2, a2, 3
        j loop
    out:
        li a0, 0
        li a7, 93
        ecall
    """
    machine, result = run_asm(source, backend="compiled", jit_threshold=1,
                              tb_cache_max_blocks=2)
    assert result.stop_reason == "exit"
    assert machine.cpu.tb_flushes >= 1
    reference_machine, reference = run_asm(source)
    assert (result.instructions, result.cycles) == \
        (reference.instructions, reference.cycles)
    assert machine.cpu.regs.snapshot() == \
        reference_machine.cpu.regs.snapshot()


def test_hook_attach_invalidates_compiled_code():
    from repro.vp import Plugin

    class Hook(Plugin):
        name = "late-hook"

        def __init__(self):
            self.count = 0

        def on_insn_exec(self, cpu, decoded, pc):
            self.count += 1

    def run(backend):
        kwargs = {"backend": backend}
        if backend == "compiled":
            kwargs["jit_threshold"] = 1
        machine = Machine(MachineConfig(isa=RV32IMC_ZICSR, **kwargs))
        machine.load(assemble(HOT_LOOP, isa=RV32IMC_ZICSR))
        first = machine.run(max_instructions=300)
        hook = machine.add_plugin(Hook())
        second = machine.run(max_instructions=100_000)
        return first.instructions, second.instructions, hook.count

    assert run("compiled") == run("interp")


def test_compile_failure_blacklists_block():
    machine = compiled_machine()
    machine.load(assemble(HOT_LOOP, isa=RV32IMC_ZICSR))
    # Force _refresh to build the compiler, then sabotage it.
    machine.run(max_instructions=1)
    backend = machine.cpu.backend

    class Broken:
        direct = True  # _refresh reads the trace-eligibility shape
        hb = False

        def compile(self, block):
            raise CompileError("forced failure")

        def compile_trace(self, blocks):
            raise CompileError("forced failure")

    backend._compiler = Broken()
    before = machine.jit_stats()["blocks_compiled"]
    result = machine.run(max_instructions=100_000)
    assert result.stop_reason == "exit"
    stats = machine.jit_stats()
    # Nothing new compiles once the compiler only raises.
    assert stats["blocks_compiled"] == before
    # Each block fails once, is blacklisted, and never retried — the
    # failure count stays at the number of distinct hot blocks.
    assert 0 < stats["compile_failures"] <= len(machine.cpu._tb_cache) + 1
    assert any(block.compiled_version == backend._token
               and block.compiled is None
               for block in machine.cpu._tb_cache.values())
    reference = run_asm(HOT_LOOP)[1]
    assert (result.instructions, result.cycles) == \
        (reference.instructions, reference.cycles)


def test_icache_disables_compiled_tier():
    from repro.vp import ICacheConfig

    machine, result = run_asm(HOT_LOOP, backend="compiled", jit_threshold=1,
                              icache=ICacheConfig())
    assert result.stop_reason == "exit"
    assert machine.jit_stats()["blocks_compiled"] == 0


# ----------------------------------------------------------------------
# Interrupts inside the batched self-loop
# ----------------------------------------------------------------------

TIMER_SPIN = """
_start:
    la t0, handler
    csrw mtvec, t0
    li t0, 0x0200BFF8
    lw t1, 0(t0)
    li t2, {delta}
    add t1, t1, t2
    li t0, 0x02004000
    sw t1, 0(t0)
    sw zero, 4(t0)
    li t0, 0x80
    csrw mie, t0
    li s2, 1
    csrsi mstatus, 8
spin:
    addi s0, s0, 1
    xor s1, s1, s0
    blt zero, s2, spin
handler:
    csrr a0, mcause
    li a7, 93
    ecall
"""


@pytest.mark.parametrize("delta", [3, 7, 50, 51, 52, 400, 1001])
def test_timer_interrupt_lands_identically_in_batched_loop(delta):
    """The batched self-loop must take the timer trap on the same
    instruction, with the same counters, as the interpreter — the
    timer-horizon computation caps each batch exactly at the firing
    point."""
    def run(backend):
        kwargs = {"backend": backend}
        if backend == "compiled":
            kwargs["jit_threshold"] = 1
        machine, result = run_asm(TIMER_SPIN.format(delta=delta),
                                  max_instructions=100_000, **kwargs)
        return (result.stop_reason, result.exit_code, result.instructions,
                result.cycles, machine.cpu.regs.snapshot(),
                machine.cpu.csrs.read(0x342),   # mcause
                machine.cpu.csrs.read(0x341))   # mepc

    compiled = run("compiled")
    assert compiled == run("interp")
    assert compiled[5] == 0x80000007  # machine timer interrupt


def test_budget_split_parity():
    """Identical run-call split patterns retire identically across
    backends (budget overshoot is per-call, at block granularity)."""
    splits = (7, 93, 1000, 900, 50_000)

    def run(backend):
        kwargs = {"backend": backend}
        if backend == "compiled":
            kwargs["jit_threshold"] = 1
        machine = Machine(MachineConfig(isa=RV32IMC_ZICSR, **kwargs))
        machine.load(assemble(HOT_LOOP, isa=RV32IMC_ZICSR))
        outcomes = []
        for budget in splits:
            result = machine.run(max_instructions=budget)
            outcomes.append((result.stop_reason, result.instructions,
                             result.cycles, machine.cpu.pc))
        return outcomes

    assert run("compiled") == run("interp")


# ----------------------------------------------------------------------
# Trace tier
# ----------------------------------------------------------------------

#: Body long enough (40 ops) that the loop splits into two translation
#: blocks — the minimal shape that exercises cross-block traces.
MULTI_BLOCK_LOOP = """
_start:
    la s0, scratch
    li t0, 0
    li t1, {iters}
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

MULTI_BLOCK_TIMER = """
_start:
    la t0, handler
    csrw mtvec, t0
    li t0, 0x0200BFF8
    lw t1, 0(t0)
    li t2, {delta}
    add t1, t1, t2
    li t0, 0x02004000
    sw t1, 0(t0)
    sw zero, 4(t0)
    li t0, 0x80
    csrw mie, t0
    la s0, scratch
    li s2, 1
    csrsi mstatus, 8
spin:
""" + "\n".join(
    f"    lw s1, {(k % 4) * 4}(s0)\n"
    "    addi s1, s1, 1\n"
    f"    sw s1, {(k % 4) * 4}(s0)"
    for k in range(12)) + """
    blt zero, s2, spin
handler:
    csrr a0, mcause
    li a7, 93
    ecall
.data
scratch: .word 0, 0, 0, 0
"""


def trace_machine(iters=400, **kwargs):
    kwargs.setdefault("jit_trace_threshold", 4)
    machine = compiled_machine(threshold=2, **kwargs)
    machine.load(assemble(MULTI_BLOCK_LOOP.format(iters=iters),
                          isa=RV32IMC_ZICSR))
    return machine


def test_trace_forms_over_hot_chain():
    machine = trace_machine()
    result = machine.run(max_instructions=1_000_000)
    assert result.stop_reason == "exit"
    stats = machine.jit_stats()
    assert stats["traces_compiled"] == 1
    assert stats["trace_failures"] == 0
    # Once formed, the trace carries the loop: it retires more than the
    # per-block compiled tier and the interp warm-up combined.
    assert stats["trace_instructions"] > (stats["compiled_instructions"]
                                          + stats["interp_instructions"])
    heads = [block for block in machine.cpu._tb_cache.values()
             if block.trace is not None]
    assert len(heads) == 1
    backend = machine.cpu.backend
    assert heads[0].trace_token == backend._token
    members = [block for block in machine.cpu._tb_cache.values()
               if block.trace_member]
    assert len(members) >= 2


def test_trace_source_attached_for_introspection():
    machine = trace_machine()
    machine.run(max_instructions=1_000_000)
    head = next(block for block in machine.cpu._tb_cache.values()
                if block.trace is not None)
    source = head.trace.__jit_source__
    # The code object's filename carries the head address, so tracebacks
    # through trace code are attributable, like per-block functions.
    assert head.trace.__code__.co_filename == \
        f"<jit-trace:{head.start_pc:#x}>"
    # The loop-shaped trace re-enters its own head without leaving the
    # function, and its memory ops carry the inline fast-path guards.
    assert "while True:" in source
    assert "_ramok" in source and "_dirty.add" in source


def test_trace_threshold_gates_formation():
    machine = trace_machine(jit_trace_threshold=10**9)
    result = machine.run(max_instructions=1_000_000)
    assert result.stop_reason == "exit"
    stats = machine.jit_stats()
    assert stats["traces_compiled"] == 0
    assert stats["trace_instructions"] == 0


def test_trace_threshold_validated():
    with pytest.raises(ValueError):
        CompiledBackend(Machine(MachineConfig(isa=RV32IMC_ZICSR)).cpu,
                        trace_threshold=0)


def test_self_loop_blocks_do_not_trace():
    """A single-block self-loop is compiled as a one-member loop at the
    compiled tier — branch-terminated blocks have no static chain edge,
    so the trace walk never considers them and nothing is charged as a
    failure."""
    machine, result = run_asm(HOT_LOOP, backend="compiled",
                              jit_threshold=1, jit_trace_threshold=1)
    assert result.stop_reason == "exit"
    stats = machine.jit_stats()
    assert stats["traces_compiled"] == 0
    assert stats["trace_failures"] == 0


#: The 32-op head chains into a block whose body holds an untemplated
#: CSR read: structurally untraceable, so the walk must blacklist the
#: head instead of re-walking the chain every execution.
UNTRACEABLE_CHAIN = """
_start:
    li t0, 0
    li t1, 200
    li a0, 0
loop:
""" + "\n".join("    add a0, a0, t0\n    xor a1, a1, a0"
                for _ in range(16)) + """
    csrr t3, mscratch
    add a0, a0, t3
    addi t0, t0, 1
    blt t0, t1, loop
    li a0, 0
    li a7, 93
    ecall
"""


def test_untraceable_chain_blacklists_head():
    machine = compiled_machine(threshold=2, jit_trace_threshold=4)
    program = assemble(UNTRACEABLE_CHAIN, isa=RV32IMC_ZICSR)
    machine.load(program)
    result = machine.run(max_instructions=1_000_000)
    assert result.stop_reason == "exit"
    stats = machine.jit_stats()
    assert stats["traces_compiled"] == 0
    # Exactly one failed walk, then the head is marked for this token.
    assert stats["trace_failures"] == 1
    head = machine.cpu._tb_cache[program.symbols["loop"]]
    assert head.trace is None
    assert head.trace_token == machine.cpu.backend._token


def test_trace_blacklist_dropped_with_flushed_blocks():
    """A failed-walk mark describes one translation of the code, so it
    goes with the blocks: once the untraceable ``csrr`` is patched to an
    ALU op and the translation cache flushed, the same head traces."""
    machine = compiled_machine(threshold=2, jit_trace_threshold=4)
    machine.load(assemble(UNTRACEABLE_CHAIN, isa=RV32IMC_ZICSR))
    first = machine.run(max_instructions=2_000)
    assert first.stop_reason == "max_insns"
    assert machine.jit_stats()["trace_failures"] == 1
    patched = assemble(UNTRACEABLE_CHAIN.replace("csrr t3, mscratch",
                                                 "xor t3, t3, t3"),
                       isa=RV32IMC_ZICSR)
    base, blob = patched.text_segment
    for offset in range(0, len(blob), 4):
        word = int.from_bytes(blob[offset:offset + 4], "little")
        machine.cpu.bus.store(base + offset, 4, word)
    machine.cpu.flush_translation_cache()
    result = machine.run(max_instructions=1_000_000)
    assert result.stop_reason == "exit"
    assert machine.jit_stats()["traces_compiled"] >= 1


def test_hook_attach_prevents_tracing():
    """Instruction hooks force the method shape; traces (whose interior
    exits cannot replay per-block hook ordering) must not form."""
    machine = trace_machine()

    from repro.vp import Plugin

    class P(Plugin):
        name = "insn-counter"

        def on_insn_exec(self, cpu, decoded, pc):
            pass

    machine.add_plugin(P())
    result = machine.run(max_instructions=1_000_000)
    assert result.stop_reason == "exit"
    assert machine.jit_stats()["traces_compiled"] == 0


def test_trace_budget_split_parity():
    """Budget exhaustion exits a trace at a member boundary — the same
    block-granular overshoot the interpreter's run loop has."""
    splits = (7, 93, 1000, 900, 17, 50_000)

    def run(backend):
        kwargs = {"backend": backend}
        if backend == "compiled":
            kwargs["jit_threshold"] = 2
            kwargs["jit_trace_threshold"] = 4
        machine = Machine(MachineConfig(isa=RV32IMC_ZICSR, **kwargs))
        machine.load(assemble(MULTI_BLOCK_LOOP.format(iters=400),
                              isa=RV32IMC_ZICSR))
        outcomes = []
        for budget in splits:
            result = machine.run(max_instructions=budget)
            outcomes.append((result.stop_reason, result.instructions,
                             result.cycles, machine.cpu.pc))
        return outcomes, machine.jit_stats()

    compiled, stats = run("compiled")
    assert stats["traces_compiled"] >= 1
    assert compiled == run("interp")[0]


@pytest.mark.parametrize("delta", [40, 173, 1009, 5003])
def test_timer_interrupt_lands_identically_in_trace(delta):
    """The trace polls interrupts at member boundaries, exactly where
    the interpreter's run loop polls between blocks."""
    def run(backend):
        kwargs = {"backend": backend, "max_instructions": 200_000}
        if backend == "compiled":
            kwargs["jit_threshold"] = 2
            kwargs["jit_trace_threshold"] = 4
        machine, result = run_asm(MULTI_BLOCK_TIMER.format(delta=delta),
                                  **kwargs)
        return (result.stop_reason, result.exit_code, result.instructions,
                result.cycles, machine.cpu.regs.snapshot(),
                machine.cpu.csrs.read(0x342),   # mcause
                machine.cpu.csrs.read(0x341))   # mepc

    compiled = run("compiled")
    assert compiled == run("interp")
    assert compiled[5] == 0x80000007  # machine timer interrupt


def test_flush_discards_trace_state():
    machine = trace_machine()
    first = machine.run(max_instructions=5_000)
    assert first.stop_reason == "max_insns"
    assert machine.jit_stats()["traces_compiled"] == 1
    machine.cpu.flush_translation_cache()
    assert not machine.cpu._tb_cache
    # The program re-translates, re-compiles, and re-traces.
    result = machine.run(max_instructions=1_000_000)
    assert result.stop_reason == "exit"
    assert machine.jit_stats()["traces_compiled"] == 2

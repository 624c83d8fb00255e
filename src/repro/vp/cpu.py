"""The RV32 CPU core with a QEMU-style translation-block engine.

Execution proceeds block-wise: straight-line instruction sequences are
decoded once into a :class:`TranslationBlock`, cached by start address, and
replayed on subsequent visits — the structure (translate, cache, execute)
that makes QEMU fast, reproduced here because the Scale4Edge tools (QTA,
coverage, fault analysis) hook exactly this structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..isa import csr as csrdef
from ..isa.decoder import Decoder, IllegalInstructionError
from ..isa.fields import WORD_MASK, sign_extend
from ..isa.registers import FPRegisterFile, RegisterFile
from ..isa.spec import Decoded
from .memory import (PACK_HALF, PACK_WORD, UNPACK_HALF, UNPACK_WORD, Ram,
                     SystemBus)
from .plugins import HookTable
from .timing import TimingModel
from .trap import BusError, MachineExit, Trap, UnhandledTrap

#: Maximum instructions per translation block (like QEMU's TB size cap).
MAX_BLOCK_INSNS = 32

# Stop reasons reported by Cpu.run().
STOP_MAX_INSNS = "max_insns"
STOP_WFI = "wfi"
STOP_EXIT = "exit"  # produced by Machine, not Cpu.run itself
STOP_LIVELOCK = "trap_livelock"
STOP_REQUESTED = "stop_requested"


class StopRun(Exception):
    """Raised by a plugin hook to stop :meth:`Cpu.run` at an exact point.

    Unlike the ``max_instructions`` budget (which is checked at block
    boundaries and can overshoot by up to a block), raising this from an
    ``on_insn_exec`` hook halts *before* the current instruction executes,
    with the pc parked on it and all retired-instruction/cycle accounting
    for the partial block already flushed.  The checkpoint engine uses it
    to fast-forward a golden machine to a fault trigger point exactly.
    """

#: Consecutive zero-progress block steps (trap -> trap -> ...) after which
#: the run is declared livelocked.  A healthy trap entry always retires
#: handler instructions on the next step.
LIVELOCK_LIMIT = 64


#: Unconditional pc-relative jumps whose target is a translate-time
#: constant — the only redirecting instructions with a static successor.
_DIRECT_JUMPS = frozenset({"jal", "c.jal", "c.j"})


class TranslationBlock:
    """A decoded straight-line code region starting at ``start_pc``.

    ``insns`` and ``pcs`` are parallel lists; the block ends at the first
    control-flow or system instruction, at :data:`MAX_BLOCK_INSNS`, or just
    before an undecodable word.

    :meth:`finalize` precomputes the per-instruction execution data the hot
    loop needs (``ops``), the instruction-cache lines the block spans, and
    the statically known successor address (``chain_pc``) that the
    compiled tier's trace formation walks.
    """

    __slots__ = ("start_pc", "insns", "pcs", "size", "exec_count",
                 "ops", "chain_pc", "icache_lines",
                 "compiled", "compiled_version",
                 "trace", "trace_token", "trace_heat", "trace_member")

    def __init__(self, start_pc: int, insns: List[Decoded], pcs: List[int]) -> None:
        self.start_pc = start_pc
        self.insns = insns
        self.pcs = pcs
        self.size = sum(d.spec.length for d in insns)
        self.exec_count = 0
        #: Fused ``(decoded, execute, pc, fallthrough, base_cost,
        #: taken_cost)`` tuples — everything the execute loop needs without
        #: calling back into the timing model, chasing ``decoded.spec``
        #: attributes, or recomputing ``pc + length``.
        self.ops: List[tuple] = []
        #: Statically known successor pc: the fallthrough address for blocks
        #: that end without control flow, the jump target for blocks ending
        #: in a direct jump, ``None`` for branches/system/indirect ends.
        self.chain_pc: Optional[int] = None
        #: Cache-line numbers the block spans (empty without an icache).
        self.icache_lines: tuple = ()
        #: Specialized compiled step function (the JIT tier), or ``None``
        #: while the block is still interpreted.
        self.compiled: Optional[Callable] = None
        #: The :class:`~repro.vp.jit.backend.CompiledBackend` specialization
        #: token ``compiled`` was generated for; a mismatch forces a
        #: recompile (hook table changed, register file swapped, ...).
        #: A matching token with ``compiled`` still ``None`` marks a
        #: codegen failure: the block stays interpreted until the token
        #: changes or a flush drops the block.
        self.compiled_version: Optional[tuple] = None
        #: Compiled multi-block trace headed at this block (the superblock
        #: tier above ``compiled``), or ``None``.  Lives on the head block
        #: only; a TB flush discards blocks wholesale so stale traces can
        #: never outlive their members.
        self.trace: Optional[Callable] = None
        #: Specialization token ``trace`` was generated for (see
        #: ``compiled_version``); with ``trace`` still ``None`` it marks a
        #: failed trace walk from this head.
        self.trace_token: Optional[tuple] = None
        #: Hot-chain-edge counter: executions of this block while already
        #: compiled and chain-headed.  Crossing the trace threshold
        #: triggers a trace-formation attempt.
        self.trace_heat = 0
        #: True when this block's ops are embedded in some compiled trace
        #: (profiler tier labelling).
        self.trace_member = False

    def finalize(self, timing, icache=None) -> None:
        """Precompute hot-loop data against ``timing`` (and ``icache``)."""
        penalty = timing.taken_penalty
        ops = []
        for decoded, pc in zip(self.insns, self.pcs):
            base = timing.base_cost(decoded)
            ops.append((decoded, decoded.spec.execute, pc,
                        pc + decoded.spec.length, base, base + penalty))
        self.ops = ops
        if icache is not None:
            line_size = icache.config.line_size
            self.icache_lines = tuple(
                range(self.start_pc // line_size,
                      (self.end_pc - 1) // line_size + 1))
        last = self.insns[-1]
        spec = last.spec
        if spec.is_jump and spec.name in _DIRECT_JUMPS:
            self.chain_pc = (self.pcs[-1] + last.imm) & WORD_MASK
        elif not (spec.is_branch or spec.is_jump or spec.is_system):
            self.chain_pc = self.end_pc

    @property
    def end_pc(self) -> int:
        """First address after the block."""
        return self.start_pc + self.size

    def __len__(self) -> int:
        return len(self.insns)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"TranslationBlock({self.start_pc:#010x}, {len(self.insns)} "
                f"insns, {self.size} bytes)")


@dataclass
class RunResult:
    """Outcome of a :meth:`Cpu.run` call."""

    stop_reason: str
    instructions: int
    cycles: int
    exit_code: Optional[int] = None
    trap_cause: Optional[int] = None
    trap_pc: Optional[int] = None


class Cpu:
    """A single RV32 hart executing from a :class:`SystemBus`.

    Interesting attributes:

    * ``regs`` / ``fregs`` / ``csrs`` — architectural state,
    * ``pc`` — address of the instruction currently executing,
    * ``next_pc`` — where control goes next (semantics overwrite to jump),
    * ``hooks`` — the plugin hook table,
    * ``timing`` — the cycle cost model (shared with the WCET analysis).

    ``ecall_handler`` (if set) intercepts ``ecall`` before the architectural
    trap is raised; machines use it for semihosting-style services.
    """

    def __init__(
        self,
        decoder: Decoder,
        bus: SystemBus,
        timing: Optional[TimingModel] = None,
        trace_registers: bool = False,
        block_cache_enabled: bool = True,
        icache=None,
        max_blocks: Optional[int] = None,
    ) -> None:
        self.decoder = decoder
        self.bus = bus
        self.timing = timing or TimingModel()
        self.regs = RegisterFile(trace=trace_registers)
        self.fregs = FPRegisterFile(trace=trace_registers)
        self.csrs = csrdef.CsrFile(
            modules=set(decoder.config.modules), trace=trace_registers
        )
        self.pc = 0
        self.next_pc = 0
        self.hooks = HookTable()
        self.ecall_handler: Optional[Callable[["Cpu"], None]] = None
        self.block_cache_enabled = block_cache_enabled
        #: Optional :class:`repro.vp.icache.ICache`: fetch misses charge
        #: extra cycles per executed block.
        self.icache = icache
        #: Cached-block cap: on reaching it the cache is flushed wholesale
        #: (cheap clear-on-full eviction).  ``None`` means unbounded.
        if max_blocks is not None and max_blocks < 1:
            raise ValueError(f"max_blocks must be >= 1, got {max_blocks}")
        self.max_blocks = max_blocks
        self._fetch_align_mask = 1 if decoder.config.has_compressed else 3
        self._tb_cache: Dict[int, TranslationBlock] = {}
        self._current: Optional[Decoded] = None
        # Softmmu-style RAM fast-path window: direct references to the
        # first plain Ram region's buffer and dirty set, validated against
        # ``bus.version`` before every use so device swaps (fault
        # wrappers) are picked up instantly.  ``_ram_version = -1`` marks
        # the cache stale; the sentinel base/end make the window check
        # fail for every 32-bit address until refreshed.
        self._ram_version = -1
        self._ram_base = 0x1_0000_0000
        self._ram_end = 0
        self._ram: Optional[Ram] = None
        self._ram_data: Optional[bytearray] = None
        self._ram_dirty = None
        self._ram_shift = 0
        #: Data-access counters: window hits vs bus-dispatch fallbacks
        #: (fetches are not counted — these describe guest loads/stores).
        self.mem_fast_loads = 0
        self.mem_fast_stores = 0
        self.mem_bus_loads = 0
        self.mem_bus_stores = 0
        self._wfi_pending = False
        self._wfi_wait: Callable[[], Optional[int]] = lambda: None
        self._interrupt_poll: Callable[[], int] = lambda: 0
        # Statistics.
        self.tb_hits = 0
        self.tb_misses = 0
        self.tb_flushes = 0
        #: The :class:`~repro.vp.backends.ExecutionBackend` driving
        #: :meth:`run`.  ``None`` lazily becomes the default backend
        #: (:data:`~repro.vp.backends.DEFAULT_BACKEND`) on the first run.
        self.backend = None

    # ------------------------------------------------------------------
    # Configuration hooks used by Machine
    # ------------------------------------------------------------------

    def set_interrupt_poll(self, poll: Callable[[], int]) -> None:
        """``poll()`` returns the mip bits asserted by platform devices."""
        self._interrupt_poll = poll

    def set_wfi_wait(self, wait: Callable[[], Optional[int]]) -> None:
        """``wait()`` returns cycles to fast-forward until the next event,
        or ``None`` when no future event can wake the hart."""
        self._wfi_wait = wait

    # ------------------------------------------------------------------
    # State management
    # ------------------------------------------------------------------

    def reset(self, pc: int = 0) -> None:
        self.regs.reset()
        self.fregs.reset()
        self.csrs = csrdef.CsrFile(
            modules=set(self.decoder.config.modules), trace=self.regs.trace
        )
        self.pc = pc & WORD_MASK
        self.next_pc = self.pc
        self._wfi_pending = False
        self.flush_translation_cache()

    def flush_translation_cache(self) -> None:
        """Invalidate all cached blocks (``fence.i``, code patching)."""
        self._tb_cache.clear()
        self.tb_flushes += 1
        if self.hooks.tb_flush:
            for hook in self.hooks.tb_flush:
                hook(self)

    def current_word(self) -> int:
        """Raw encoding of the instruction currently executing (for mtval)."""
        return self._current.word if self._current is not None else 0

    # ------------------------------------------------------------------
    # Memory interface used by instruction semantics
    # ------------------------------------------------------------------

    def _refresh_ram_window(self) -> None:
        """Re-derive the RAM fast-path window from the current bus map.

        Only a *plain* :class:`~repro.vp.memory.Ram` is eligible (exact
        type check, not ``isinstance``): anything that wraps or overrides
        ``load``/``store`` — fault wrappers, coverage shims — must keep
        observing every access through the bus-dispatch path.
        """
        self._ram_version = self.bus.version
        for base, size, device in self.bus.regions:
            if type(device) is Ram:
                self._ram = device
                self._ram_base = base
                self._ram_end = base + size
                self._ram_data = device.data
                self._ram_dirty = device._dirty
                self._ram_shift = device._page_shift
                return
        self._ram = None
        self._ram_base = 0x1_0000_0000
        self._ram_end = 0
        self._ram_data = None
        self._ram_dirty = None
        self._ram_shift = 0

    def invalidate_ram_window(self) -> None:
        """Force a window refresh before the next fast-path access.

        ``bus.version`` already covers device swaps; this is the explicit
        hook for events the bus cannot see (snapshot restore rebinding
        machine state, external mutation of the memory map).
        """
        self._ram_version = -1

    def load(self, addr: int, width: int, signed: bool = False) -> int:
        if addr % width:
            raise Trap(csrdef.CAUSE_MISALIGNED_LOAD, addr)
        if self._ram_version != self.bus.version:
            self._refresh_ram_window()
        base = self._ram_base
        if base <= addr and addr + width <= self._ram_end:
            offset = addr - base
            data = self._ram_data
            if width == 4:
                value = UNPACK_WORD(data, offset)[0]
            elif width == 1:
                value = data[offset]
            else:
                value = UNPACK_HALF(data, offset)[0]
            self.mem_fast_loads += 1
        else:
            try:
                value = self.bus.load(addr, width)
            except BusError:
                raise Trap(csrdef.CAUSE_LOAD_ACCESS, addr) from None
            self.mem_bus_loads += 1
        if self.hooks.mem_access:
            for hook in self.hooks.mem_access:
                hook(self, addr, width, value, False)
        if signed:
            value = sign_extend(value, width * 8)
        return value

    def store(self, addr: int, width: int, value: int) -> None:
        if addr % width:
            raise Trap(csrdef.CAUSE_MISALIGNED_STORE, addr)
        if self.hooks.mem_access:
            for hook in self.hooks.mem_access:
                hook(self, addr, width, value, True)
        if self._ram_version != self.bus.version:
            self._refresh_ram_window()
        base = self._ram_base
        if base <= addr and addr + width <= self._ram_end:
            offset = addr - base
            data = self._ram_data
            if width == 4:
                PACK_WORD(data, offset, value & 0xFFFFFFFF)
            elif width == 1:
                data[offset] = value & 0xFF
            else:
                PACK_HALF(data, offset, value & 0xFFFF)
            # Aligned accesses never straddle a page (page size is a power
            # of two >= 4), so one dirty-set add keeps dirty_pages() exact.
            self._ram_dirty.add(offset >> self._ram_shift)
            self.mem_fast_stores += 1
        else:
            try:
                self.bus.store(addr, width, value)
            except BusError:
                raise Trap(csrdef.CAUSE_STORE_ACCESS, addr) from None
            self.mem_bus_stores += 1

    # ------------------------------------------------------------------
    # System interface used by instruction semantics
    # ------------------------------------------------------------------

    def environment_call(self) -> None:
        if self.ecall_handler is not None:
            self.ecall_handler(self)
        else:
            self.trap(csrdef.CAUSE_ECALL_M, 0)

    def trap(self, cause: int, tval: int) -> None:
        raise Trap(cause, tval)

    def wait_for_interrupt(self) -> None:
        self._wfi_pending = True

    # ------------------------------------------------------------------
    # Fetch and translate
    # ------------------------------------------------------------------

    def _fetch_halfword(self, addr: int) -> int:
        try:
            return self.bus.load(addr, 2)
        except BusError:
            raise Trap(csrdef.CAUSE_FETCH_ACCESS, addr) from None

    def _fetch_word(self, addr: int) -> int:
        """Fetch up to 32 bits at ``addr`` (16-bit granular, like RVC fetch)."""
        low = self._fetch_halfword(addr)
        if low & 0x3 != 0x3:
            return low
        return low | (self._fetch_halfword(addr + 2) << 16)

    def _build_block(self, start_pc: int) -> TranslationBlock:
        insns: List[Decoded] = []
        pcs: List[int] = []
        pc = start_pc
        while len(insns) < MAX_BLOCK_INSNS:
            word = self._fetch_word(pc)
            try:
                decoded = self.decoder.decode(word, pc)
            except IllegalInstructionError:
                if not insns:
                    raise Trap(csrdef.CAUSE_ILLEGAL_INSTRUCTION, word) from None
                break  # end block before the undecodable word
            insns.append(decoded)
            pcs.append(pc)
            pc += decoded.spec.length
            spec = decoded.spec
            if spec.is_branch or spec.is_jump or spec.is_system:
                break
        block = TranslationBlock(start_pc, insns, pcs)
        block.finalize(self.timing, self.icache)
        if self.hooks.block_translate:
            for hook in self.hooks.block_translate:
                hook(self, block)
        return block

    def _translate(self, pc: int) -> TranslationBlock:
        """A ``_tb_cache`` miss: build the block at ``pc`` and cache it
        (only aligned pcs are ever cached, so a misaligned pc lands
        here and traps)."""
        if pc & self._fetch_align_mask:
            raise Trap(csrdef.CAUSE_MISALIGNED_FETCH, pc)
        if not self.block_cache_enabled:
            self.tb_misses += 1
            return self._build_block(pc)
        if (self.max_blocks is not None
                and len(self._tb_cache) >= self.max_blocks):
            self.flush_translation_cache()
        self.tb_misses += 1
        block = self._tb_cache[pc] = self._build_block(pc)
        return block

    # ------------------------------------------------------------------
    # Interrupts and traps
    # ------------------------------------------------------------------

    def _pending_interrupt(self) -> Optional[int]:
        mip = self._interrupt_poll()
        self.csrs.raw_write(csrdef.MIP, mip)
        if not mip:  # nothing asserted: skip the mstatus/mie reads
            return None
        if not self.csrs.raw_read(csrdef.MSTATUS) & csrdef.MSTATUS_MIE:
            return None
        enabled = mip & self.csrs.raw_read(csrdef.MIE)
        if not enabled:
            return None
        # Priority order per the privileged spec: external, software, timer.
        if enabled & csrdef.MIE_MEIE:
            return csrdef.CAUSE_MACHINE_EXTERNAL_INT
        if enabled & csrdef.MIE_MSIE:
            return csrdef.CAUSE_MACHINE_SOFTWARE_INT
        return csrdef.CAUSE_MACHINE_TIMER_INT

    def _take_trap(self, cause: int, tval: int) -> None:
        mtvec = self.csrs.raw_read(csrdef.MTVEC)
        if mtvec == 0 and not (cause & csrdef.INTERRUPT_BIT):
            raise UnhandledTrap(cause, tval, self.pc)
        if self.hooks.trap:
            for hook in self.hooks.trap:
                hook(self, cause, self.pc)
        self.csrs.raw_write(csrdef.MEPC, self.pc)
        self.csrs.raw_write(csrdef.MCAUSE, cause)
        self.csrs.raw_write(csrdef.MTVAL, tval)
        status = self.csrs.raw_read(csrdef.MSTATUS)
        mie = bool(status & csrdef.MSTATUS_MIE)
        status &= ~(csrdef.MSTATUS_MIE | csrdef.MSTATUS_MPIE)
        if mie:
            status |= csrdef.MSTATUS_MPIE
        status |= csrdef.MSTATUS_MPP  # we came from (and stay in) M-mode
        self.csrs.raw_write(csrdef.MSTATUS, status)
        base = mtvec & ~0x3
        if (mtvec & 0x3) == 1 and (cause & csrdef.INTERRUPT_BIT):
            self.pc = (base + 4 * (cause & 0x3FF)) & WORD_MASK
        else:
            self.pc = base

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def step_block(self) -> int:
        """Run one translation block (or take one interrupt/trap).

        Returns the number of instructions retired.  The two halves,
        :meth:`_fetch_block` and :meth:`_execute_block`, are also called
        separately by the compiled backend, which runs a block's JIT code
        in place of the interpreted body once the block is hot.
        """
        block = self._fetch_block()
        return 0 if block is None else self._execute_block(block)

    def _fetch_block(self) -> Optional[TranslationBlock]:
        """Poll interrupts and fetch the block at ``pc``.

        Returns ``None`` when an interrupt or a fetch trap was taken
        instead (the step retires nothing).
        """
        interrupt = self._pending_interrupt()
        if interrupt is not None:
            self._wfi_pending = False
            self._take_trap(interrupt, 0)
            return None
        block = self._tb_cache.get(self.pc)
        if block is not None:
            self.tb_hits += 1
            return block
        try:
            return self._translate(self.pc)
        except Trap as trap:
            self._take_trap(trap.cause, trap.tval)
            return None

    def _execute_block(self, block: TranslationBlock) -> int:
        """Interpret ``block`` once; returns the instructions retired."""
        block.exec_count += 1
        if self.hooks.block_exec:
            for hook in self.hooks.block_exec:
                hook(self, block)
        insn_hooks = self.hooks.insn_exec
        retired = 0
        cycles = 0
        if self.icache is not None:
            cycles += self.icache.penalty_for_lines(block.icache_lines)
        pending_trap: Optional[Trap] = None
        try:
            for decoded, execute, pc, fallthrough, base_cost, taken_cost \
                    in block.ops:
                self.pc = pc
                self._current = decoded
                self.next_pc = fallthrough
                if insn_hooks:
                    for hook in insn_hooks:
                        hook(self, decoded, pc)
                try:
                    execute(self, decoded)
                except Trap as trap:
                    cycles += base_cost
                    pending_trap = trap
                    break
                except MachineExit:
                    # The exiting instruction consumed its cycles; the
                    # finally block below flushes them before unwinding.
                    cycles += base_cost
                    raise
                retired += 1
                next_pc = self.next_pc
                self.pc = next_pc
                if next_pc != fallthrough:
                    cycles += taken_cost
                    break
                cycles += base_cost
        finally:
            # Flush accounting even when MachineExit/UnhandledTrap unwinds
            # mid-block, so RunResult counters stay exact.
            csrs = self.csrs
            csrs.instret += retired
            csrs.cycle += cycles
            self.bus.tick(cycles)
        if pending_trap is not None:
            self._take_trap(pending_trap.cause, pending_trap.tval)
        return retired

    def run(self, max_instructions: Optional[int] = None) -> RunResult:
        """Execute until WFI-with-no-event or the instruction budget ends.

        The run loop itself lives in the active
        :class:`~repro.vp.backends.ExecutionBackend` (``interp`` or the
        JIT's ``compiled`` tier); without an explicit backend the default
        ``interp`` is used.

        :class:`~repro.vp.trap.MachineExit` and
        :class:`~repro.vp.trap.UnhandledTrap` propagate to the caller
        (:class:`repro.vp.machine.Machine` turns them into results).
        """
        backend = self.backend
        if backend is None:
            from .backends import DEFAULT_BACKEND, create_backend

            backend = self.backend = create_backend(DEFAULT_BACKEND, self)
        return backend.run(max_instructions)

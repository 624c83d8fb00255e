"""Whole-block source assembly for the template JIT.

:class:`BlockCompiler` turns a finalized
:class:`~repro.vp.cpu.TranslationBlock` into one specialized Python
function ``_tb(cpu, remaining) -> retired`` compiled with
:func:`compile`/``exec``.  Three shapes:

* **direct**  — no instruction/memory hooks and a plain untraced
  register file: registers are raw-list accesses, per-instruction
  pc/next_pc bookkeeping disappears, retired/cycle accounting is
  constant-folded into each exit path.
* **loop**    — direct-mode code for a chain of member blocks: a
  multi-block trace (:meth:`BlockCompiler.compile_trace`) or a
  single-block self-loop compiled as a one-member trace.  A final
  branch back to the head becomes a native ``while`` loop that
  re-checks the instruction budget and pending interrupts at every
  member boundary, exactly where the interpreter's run loop would; a
  pure-ALU self-loop batches iterations up to the timer horizon
  instead.
* **method**  — instruction or memory hooks attached, or a traced /
  fault-wrapped register file: an unrolled interpreter preserving the
  per-instruction hook ordering, pc/next_pc visibility, and redirect
  checks of :meth:`~repro.vp.cpu.Cpu.step_block` bit for bit.

Every exit path replicates the interpreter's accounting contract: CSR
``instret``/``cycle`` updated and the bus ticked before any trap is
taken or ``MachineExit`` unwinds, pc parked on the faulting instruction.
"""

from __future__ import annotations

from typing import List

from ...isa import semantics as sem
from ..devices.clint import Clint
from ..memory import PACK_HALF, PACK_WORD, UNPACK_HALF, UNPACK_WORD
from ..trap import BusError, MachineExit, Trap
from .templates import BRANCH_CONDS, CONTROL_EMITTERS, EMITTERS, MASK, Ctx

__all__ = ["BlockCompiler", "CompileError", "TRACE_MAX_BLOCKS"]

#: Maximum member blocks per compiled trace (keeps generated functions
#: and invalidation blast radius bounded).
TRACE_MAX_BLOCKS = 8

#: Interrupt-check constants folded into loop-shape source.
_MIP, _MSTATUS, _MIE, _MSTATUS_MIE = 0x344, 0x300, 0x304, 0x8


class CompileError(Exception):
    """Internal codegen failure; the backend falls back to interpreting."""


# -- runtime helpers shared by all generated functions ----------------------

def _trap_exit(cpu, cause, tval, retired, cycles, tick_cycles, pc,
               fallthrough, decoded):
    """Flush accounting, park the pc on the trapping instruction, and
    take the trap — the compiled equivalent of the interpreter's
    ``finally`` flush followed by ``_take_trap``.  Returns ``retired``
    so call sites can ``return`` it directly."""
    csrs = cpu.csrs
    csrs.instret += retired
    csrs.cycle += cycles
    cpu.bus.tick(tick_cycles)
    cpu.pc = pc
    cpu.next_pc = fallthrough
    cpu._current = decoded
    cpu._take_trap(cause, tval)
    return retired


def _exit_flush(cpu, retired, cycles, tick_cycles, pc, fallthrough, decoded):
    """Accounting flush on the ``MachineExit`` unwind path."""
    csrs = cpu.csrs
    csrs.instret += retired
    csrs.cycle += cycles
    cpu.bus.tick(tick_cycles)
    cpu.pc = pc
    cpu.next_pc = fallthrough
    cpu._current = decoded


def _batch_safe(cpu) -> bool:
    """Whether bus ticks may be coalesced across self-loop iterations.

    CLINT time is a plain cycle sum, so ``tick(n * c)`` equals ``n``
    calls of ``tick(c)``; any other tickable device might observe the
    call granularity, forcing the one-iteration-per-poll slow path.
    """
    for device in cpu.bus._tickable:
        if type(device) is not Clint:
            return False
    return True


def _horizon(cpu, budget_left, insns, taken, timer_live):
    """Iterations a pure self-loop may run between interrupt polls.

    Inside a pure (no memory access, no CSR access, no hooks) self-loop
    every interrupt source except the machine timer is frozen — stores
    can't reach the CLINT or UART and ``mie``/``mstatus`` can't change —
    so skipped polls are only observable where the timer comparand
    crosses.  The horizon stops one poll *at* that crossing: with
    ``wait`` cycles until ``mtime`` reaches ``mtimecmp`` and ``taken``
    cycles per iteration, poll ``j`` (after ``j`` iterations) is the
    first to see the interrupt at ``j == ceil(wait / taken)``, exactly
    where the per-block interpreter takes it.
    """
    n = -(-budget_left // insns)
    if timer_live:
        wait = cpu._wfi_wait()
        if wait is not None:
            if wait <= 0:
                return 1
            limit = -(-wait // taken)
            if limit < n:
                n = limit
    return n if n > 0 else 1


def _interior_ok(block) -> bool:
    """Whether ``block`` can sit in a trace with a successor after it:
    every body instruction is template-covered and the block ends in a
    pure fallthrough or a direct jal (whose link write the trace emits
    at the member boundary)."""
    ops = block.ops
    if block.chain_pc is None:
        return False
    if ops[-1][1] is sem.exec_jal:
        return all(op[1] in EMITTERS for op in ops[:-1])
    return all(op[1] in EMITTERS for op in ops)


def _terminal_ok(block) -> bool:
    """Whether ``block`` can terminate a trace with a conditional branch."""
    ops = block.ops
    return (ops[-1][1] in BRANCH_CONDS
            and all(op[1] in EMITTERS for op in ops[:-1]))


class _Src:
    """Indentation-aware source accumulator."""

    def __init__(self) -> None:
        self.lines: List[str] = []

    def add(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def extend(self, indent: int, lines: List[str]) -> None:
        pad = "    " * indent
        for line in lines:
            self.lines.append(pad + line)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


class BlockCompiler:
    """Compiles blocks against one snapshot of the hook table and
    register-file shape; the backend rebuilds it whenever either
    changes (keyed by the specialization token)."""

    def __init__(self, cpu, direct_ok: bool) -> None:
        self.cpu = cpu
        hooks = cpu.hooks
        self.hb = tuple(hooks.block_exec)
        self.hi = tuple(hooks.insn_exec)
        self.hm = tuple(hooks.mem_access)
        #: Direct raw-register shape is only sound when nothing needs to
        #: observe individual accesses or instruction boundaries.
        self.direct = direct_ok and not self.hi and not self.hm
        # Capture the CPU's RAM fast-path window so direct-mode memory
        # templates can fold the bounds in as constants.  Generated code
        # re-validates at entry (``_ramok`` binding): the captured buffer
        # must still be the CPU's current window, otherwise every access
        # takes the bus-dispatch fallback — so a fault wrapper swapped in
        # front of RAM mid-campaign is honoured without recompilation.
        if cpu._ram_version != cpu.bus.version:
            cpu._refresh_ram_window()
        self.mem = cpu._ram_data
        self.dirty = cpu._ram_dirty
        if self.mem is not None:
            self.win = (cpu._ram_base, cpu._ram_end, cpu._ram_shift)
        else:
            self.win = None

    # ------------------------------------------------------------------

    def compile(self, block):
        """Return the compiled step function for ``block``."""
        if not block.ops:
            raise CompileError("empty block")
        if not self.direct:
            src = self._emit_method(block)
        elif self._loops_to_self(block):
            src = self._emit_loop([block])
        else:
            src = self._emit_direct(block)
        return self._build(src, f"<jit:{block.start_pc:#x}>", [block])

    def compile_trace(self, blocks):
        """Compile a chain of blocks into one specialized trace function.

        ``blocks`` is the member list from the backend's hot-chain walk:
        every member but the last ends in a pure fallthrough or a direct
        jal (its link write is emitted at the member boundary); the last
        member either ends in a conditional branch — rendered as a
        native loop when it targets the head (the common hot-loop form)
        or as a pair of exits otherwise — or is itself interior-shaped
        with a ``chain_pc`` leaving the trace.
        """
        if not self.direct or self.hb:
            raise CompileError(
                "trace shape requires direct mode without block hooks")
        if len(blocks) < 2 or len(blocks) > TRACE_MAX_BLOCKS:
            raise CompileError(f"unsupported trace length {len(blocks)}")
        return self._build(self._emit_loop(blocks),
                           f"<jit-trace:{blocks[0].start_pc:#x}>", blocks)

    def _build(self, src: str, filename: str, blocks):
        """``exec`` ``src`` in a namespace binding member ``m`` as
        ``b_{m}`` and instruction ``k`` (numbered across members) as
        ``d_{k}``/``x_{k}``; returns the ``_tb`` function it defines."""
        namespace = {
            "Trap": Trap, "MachineExit": MachineExit,
            "BusError": BusError, "_trap_exit": _trap_exit,
            "_exit_flush": _exit_flush, "_batch_safe": _batch_safe,
            "_horizon": _horizon, "HB": self.hb, "HI": self.hi,
            "_u4": UNPACK_WORD, "_u2": UNPACK_HALF,
            "_p4": PACK_WORD, "_p2": PACK_HALF,
            "_MEM": self.mem, "_DIRTY": self.dirty,
            "__builtins__": {"abs": abs},
        }
        offset = 0
        for m, block in enumerate(blocks):
            namespace[f"b_{m}"] = block
            for i, op in enumerate(block.ops):
                namespace[f"d_{offset + i}"] = op[0]
                namespace[f"x_{offset + i}"] = op[1]
            offset += len(block.ops)
        exec(compile(src, filename, "exec"), namespace)
        fn = namespace["_tb"]
        fn.__jit_source__ = src  # debugging / test introspection
        return fn

    def _loops_to_self(self, block) -> bool:
        """A trace-terminal block branching to its own start: compiled
        as a one-member loop."""
        if self.hb:  # block hooks must fire per run-loop visible step
            return False
        last = block.ops[-1]
        return (_terminal_ok(block)
                and (last[2] + last[0].imm) & MASK == block.start_pc)

    # -- shared rendering ----------------------------------------------

    def _bindings(self, body_text: str) -> List[str]:
        lines = []
        if self.direct:
            lines.append("R = cpu.regs._regs")
            if "bload(" in body_text:
                lines.append("bload = cpu.bus.load")
            if "bstore(" in body_text:
                lines.append("bstore = cpu.bus.store")
            if "_ramok" in body_text:
                # The fast path is armed only while the CPU's current
                # window buffer is the one this code was specialized
                # against; a bus mutation (fault wrapper, remap) makes
                # every access take the bus fallback until recompiled.
                lines += ["if cpu._ram_version != cpu.bus.version:",
                          "    cpu._refresh_ram_window()",
                          "_mem = _MEM",
                          "_ramok = cpu._ram_data is _MEM"]
            if "_dirty.add" in body_text:
                lines.append("_dirty = _DIRTY")
        else:
            if "_rd(" in body_text:
                lines.append("_rd = cpu.regs.read")
            if "_wr(" in body_text:
                lines.append("_wr = cpu.regs.write")
        return lines

    def _flush_lines(self, retired, cycles, pc_expr) -> List[str]:
        return [f"_c = cpu.csrs",
                f"_c.instret += {retired}",
                f"_c.cycle += {cycles}",
                f"cpu.bus.tick({cycles})",
                f"cpu.pc = {pc_expr}",
                f"cpu.next_pc = {pc_expr}"]

    def _prologue(self, body_text: str) -> _Src:
        """Entry of a direct- or method-shape function: count the
        execution, fire the block hooks, bind what the body uses."""
        src = _Src()
        src.add(0, "def _tb(cpu, remaining):")
        src.add(1, "b_0.exec_count += 1")
        if self.hb:
            src.add(1, "for _h in HB:")
            src.add(2, "_h(cpu, b_0)")
        src.extend(1, self._bindings(body_text))
        return src

    # -- direct shape ---------------------------------------------------

    def _emit_direct_insn(self, src: _Src, ctx: Ctx, i: int,
                          indent: int) -> None:
        """One body instruction: a template expansion or the generic
        execute-function fallback with its redirect check."""
        execute = ctx.ops[i][1]
        emitter = EMITTERS.get(execute)
        if emitter is not None:
            src.extend(indent, emitter(ctx, i))
            return
        ft = ctx.ft_at(i)
        src.add(indent, f"cpu.pc = {ctx.pc_at(i):#x}")
        src.add(indent, f"cpu._current = d_{i}")
        src.add(indent, f"cpu.next_pc = {ft:#x}")
        src.add(indent, "try:")
        src.add(indent + 1, f"x_{i}(cpu, d_{i})")
        src.add(indent, "except Trap as _t:")
        src.add(indent + 1, ctx.trap_exit(i, "_t.cause", "_t.tval"))
        src.add(indent, "except MachineExit:")
        src.add(indent + 1, ctx.exit_flush(i))
        src.add(indent + 1, "raise")
        src.add(indent, "_np = cpu.next_pc")
        src.add(indent, f"if _np != {ft:#x}:")
        redirect_cycles = ctx.prefix[i] + ctx.ops[i][5]
        # cpu.next_pc already holds _np; only pc needs the redirect.
        src.extend(indent + 1,
                   self._flush_lines(i + 1, redirect_cycles, "_np")[:-1])
        src.add(indent + 1, f"return {i + 1}")

    def _emit_direct(self, block) -> str:
        ctx = Ctx(block, direct=True, win=self.win)
        ops = block.ops
        n = len(ops)
        last_d, last_exec = ops[-1][0], ops[-1][1]
        last_pc, last_ft, last_base, last_taken = \
            ops[-1][2], ops[-1][3], ops[-1][4], ops[-1][5]
        control_final = (last_exec in BRANCH_CONDS
                         or last_exec is sem.exec_jal
                         or last_exec is sem.exec_jalr)
        body = _Src()
        body_end = n - 1 if control_final else n
        for i in range(body_end):
            self._emit_direct_insn(body, ctx, i, 1)

        base_total = ctx.prefix[n - 1] + last_base
        taken_total = ctx.prefix[n - 1] + last_taken
        if last_exec in BRANCH_CONDS:
            target = (last_pc + last_d.imm) & MASK
            taken_cycles = taken_total if target != last_ft else base_total
            body.add(1, f"if {BRANCH_CONDS[last_exec](ctx, last_d)}:")
            body.extend(2, self._flush_lines(n, taken_cycles, f"{target:#x}"))
            body.add(2, f"return {n}")
            body.extend(1, self._flush_lines(n, base_total, f"{last_ft:#x}"))
        elif last_exec is sem.exec_jal:
            target = (last_pc + last_d.imm) & MASK
            cycles = taken_total if target != last_ft else base_total
            body.extend(1, ctx.w(last_d.rd, f"{last_ft:#x}", canonical=True))
            body.extend(1, self._flush_lines(n, cycles, f"{target:#x}"))
        elif last_exec is sem.exec_jalr:
            body.add(1, f"_t = ({ctx.r(last_d.rs1)} + {last_d.imm})"
                        " & 0xFFFFFFFE")
            body.extend(1, ctx.w(last_d.rd, f"{last_ft:#x}", canonical=True))
            body.add(1, "_c = cpu.csrs")
            body.add(1, f"_c.instret += {n}")
            body.add(1, f"if _t != {last_ft:#x}:")
            body.add(2, f"_c.cycle += {taken_total}")
            body.add(2, f"cpu.bus.tick({taken_total})")
            body.add(1, "else:")
            body.add(2, f"_c.cycle += {base_total}")
            body.add(2, f"cpu.bus.tick({base_total})")
            body.add(1, "cpu.pc = _t")
            body.add(1, "cpu.next_pc = _t")
        else:
            # Plain or fallback final: the body already handled any
            # redirect; the straight exit lands on the fallthrough.
            body.extend(1, self._flush_lines(n, ctx.prefix[n],
                                             f"{block.end_pc:#x}"))
        body.add(1, f"return {n}")
        src = self._prologue("\n".join(body.lines))
        src.lines.extend(body.lines)
        return src.text()

    # -- loop shape: self-loops and multi-block traces -----------------

    @staticmethod
    def _account(src: _Src, indent: int, retired, cycles) -> None:
        src.add(indent, f"ret += {retired}")
        src.add(indent, f"cyc += {cycles}")
        src.add(indent, f"_tick({cycles})")

    def _loop_exit(self, src: _Src, indent: int, pc: int) -> None:
        """Flush accounting (cycles are already ticked), park the pc on
        ``pc``, and return."""
        src.add(indent, "_c.instret += ret")
        src.add(indent, "_c.cycle += cyc")
        src.add(indent, f"cpu.pc = {pc:#x}")
        src.add(indent, f"cpu.next_pc = {pc:#x}")
        src.add(indent, "return ret")

    def _emit_member(self, src: _Src, indent: int, ctx: Ctx, m: int,
                     block) -> None:
        """One interior member's body plus its retire/cycle/tick
        accounting.

        A trailing direct jal is not a template; its link write and
        taken-cycle cost are rendered here so the member completes
        exactly as the interpreter's redirect exit would.
        """
        ops = block.ops
        n = len(ops)
        src.add(indent, f"b_{m}.exec_count += 1")
        ends_jal = ops[-1][1] is sem.exec_jal
        body_n = n - 1 if ends_jal else n
        for i in range(body_n):
            src.extend(indent, EMITTERS[ops[i][1]](ctx, i))
        if ends_jal:
            d = ops[-1][0]
            src.extend(indent, ctx.w(d.rd, f"{ops[-1][3]:#x}",
                                     canonical=True))
            target = (ops[-1][2] + d.imm) & MASK
            cycles = ctx.prefix[n - 1] + (
                ops[-1][5] if target != ops[-1][3] else ops[-1][4])
        else:
            cycles = ctx.prefix[n]
        self._account(src, indent, n, cycles)

    def _emit_checks(self, src: _Src, indent: int, pc: int) -> None:
        """Budget check then interrupt poll (with the raw-``mip`` shadow
        write), the run loop's boundary order, exiting to ``pc`` (the
        next member's start) so the run loop can take over."""
        src.add(indent, "if ret >= remaining:")
        self._loop_exit(src, indent + 1, pc)
        src.add(indent, "_mip = _poll()")
        src.add(indent, f"_rw({_MIP:#x}, _mip)")
        src.add(indent, f"if _mip and (_rr({_MSTATUS:#x}) & "
                        f"{_MSTATUS_MIE:#x}) and (_mip & _rr({_MIE:#x})):")
        self._loop_exit(src, indent + 1, pc)

    def _emit_loop(self, blocks) -> str:
        """The loop shape over ``blocks`` (one member for a self-loop).

        Every member boundary keeps the interpreter's exact-parity
        contract: retire/cycle accounting and a bus tick for the
        completed member, then :meth:`_emit_checks`.  The one exception
        is a pure-ALU self-loop (no memory access), which batches
        iterations between polls — see :func:`_horizon`.  With no memory
        or CSR access in the body, nothing inside the loop can arm, mask,
        or observe an interrupt source, so polls (and the ``mip`` shadow
        writes they perform) between horizon points are unobservable and
        elided; the shadow is refreshed at the next poll, so it may lag
        by one batch across a run boundary (architectural ``mip`` reads
        always re-poll the devices).  Batching a multi-member loop would
        break the block-granular budget and timer parity, so it never
        does.
        """
        head = blocks[0]
        ctxs = []
        offset = 0
        for block in blocks:
            ctxs.append(Ctx(block, direct=True, running=True, base=offset,
                            win=self.win))
            offset += len(block.ops)
        m = len(blocks) - 1
        last_ops = blocks[m].ops
        last_exec = last_ops[-1][1]
        branch_final = last_exec in BRANCH_CONDS
        looped = False
        if branch_final:
            last_d = last_ops[-1][0]
            target = (last_ops[-1][2] + last_d.imm) & MASK
            looped = target == head.start_pc
        indent = 2 if looped else 1

        body = _Src()
        for k, block in enumerate(blocks[:-1]):
            self._emit_member(body, indent, ctxs[k], k, block)
            self._emit_checks(body, indent, block.chain_pc)
        if not branch_final:
            # Straight trace: the final member exits to its chain_pc with
            # no boundary checks — the run loop polls before the next
            # step exactly as it would after an interpreted block.
            self._emit_member(body, indent, ctxs[m], m, blocks[m])
            self._loop_exit(body, indent, blocks[m].chain_pc)
            src = self._prologue_loop("\n".join(body.lines))
            src.lines.extend(body.lines)
            return src.text()

        ctx = ctxs[m]
        n = len(last_ops)
        member = _Src()
        for i in range(n - 1):
            member.extend(0, EMITTERS[last_ops[i][1]](ctx, i))
        member_text = "\n".join(member.lines)
        cond = BRANCH_CONDS[last_exec](ctx, last_d)
        last_ft = last_ops[-1][3]
        base_total = ctx.prefix[n - 1] + last_ops[-1][4]
        taken_total = ctx.prefix[n - 1] + last_ops[-1][5]
        taken = taken_total if target != last_ft else base_total
        batched = (looped and m == 0 and "bload(" not in member_text
                   and "bstore(" not in member_text)
        pre = []
        if batched:
            pre = [f"_timer = (_rr({_MSTATUS:#x}) & {_MSTATUS_MIE:#x}) "
                   f"and (_rr({_MIE:#x}) & 0x80)",
                   "_safe = _batch_safe(cpu)"]
            body.add(2, f"_n = _horizon(cpu, remaining - ret, {n}, "
                        f"{taken}, _timer) if _safe else 1")
            body.add(2, "_it = 0")
            body.add(2, "while _it < _n:")
            body.add(3, "_it += 1")
            body.extend(3, member.lines)
            body.add(3, f"if {cond}:")
            body.add(4, "continue")
            # Branch fell through: account _it - 1 taken iterations plus
            # this not-taken one, exactly like the interpreter's exit.
            body.add(3, "b_0.exec_count += _it")
            self._account(body, 3, f"_it * {n}",
                          f"(_it - 1) * {taken} + {base_total}")
            self._loop_exit(body, 3, last_ft)
            body.add(2, "b_0.exec_count += _n")
            self._account(body, 2, f"_n * {n}", f"_n * {taken}")
            self._emit_checks(body, 2, head.start_pc)
        else:
            body.add(indent, f"b_{m}.exec_count += 1")
            body.extend(indent, member.lines)
            body.add(indent, f"if {cond}:")
            self._account(body, indent + 1, n, taken)
            if looped:
                self._emit_checks(body, indent + 1, head.start_pc)
                body.add(indent + 1, "continue")
            else:
                self._loop_exit(body, indent + 1, target)
            self._account(body, indent, n, base_total)
            self._loop_exit(body, indent, last_ft)

        src = self._prologue_loop("\n".join(body.lines))
        src.extend(1, pre)
        if looped:
            src.add(1, "while True:")
        src.lines.extend(body.lines)
        return src.text()

    def _prologue_loop(self, body_text: str) -> _Src:
        """Entry of a loop-shape function (members count their own
        executions; block hooks rule the shape out)."""
        src = _Src()
        src.add(0, "def _tb(cpu, remaining):")
        src.extend(1, self._bindings(body_text))
        src.add(1, "_c = cpu.csrs")
        src.add(1, "_tick = cpu.bus.tick")
        src.add(1, "_poll = cpu._interrupt_poll")
        src.add(1, "_rr = _c.raw_read")
        src.add(1, "_rw = _c.raw_write")
        src.add(1, "ret = 0")
        src.add(1, "cyc = 0")
        return src

    # -- method (bookkeeping) shape -------------------------------------

    def _emit_method(self, block) -> str:
        ctx = Ctx(block, direct=False)
        ops = block.ops
        n = len(ops)
        body = _Src()
        for i in range(n):
            d, execute, pc, ft, base, taken = ops[i]
            body.add(2, f"cpu.pc = {pc:#x}")
            body.add(2, f"cpu._current = d_{i}")
            body.add(2, f"cpu.next_pc = {ft:#x}")
            if self.hi:
                body.add(2, "for _h in HI:")
                body.add(3, f"_h(cpu, d_{i}, {pc:#x})")
            emitter = EMITTERS.get(execute) or CONTROL_EMITTERS.get(execute)
            body.add(2, "try:")
            if emitter is not None:
                body.extend(3, emitter(ctx, i))
            else:
                body.add(3, f"x_{i}(cpu, d_{i})")
            body.add(2, "except Trap as _t:")
            body.add(3, f"cyc += {base}")
            body.add(3, "_pend = _t")
            body.add(3, "break")
            body.add(2, "except MachineExit:")
            body.add(3, f"cyc += {base}")
            body.add(3, "raise")
            body.add(2, "ret += 1")
            body.add(2, "_np = cpu.next_pc")
            body.add(2, "cpu.pc = _np")
            body.add(2, f"if _np != {ft:#x}:")
            body.add(3, f"cyc += {taken}")
            body.add(3, "break")
            body.add(2, f"cyc += {base}")
        body.add(2, "break")

        src = self._prologue("\n".join(body.lines))
        src.add(1, "ret = 0")
        src.add(1, "cyc = 0")
        src.add(1, "_pend = None")
        src.add(1, "try:")
        src.add(2, "while True:")
        # body lines are already indented for the while loop; shift one
        # more level for the enclosing try.
        src.lines.extend("    " + line for line in body.lines)
        src.add(1, "finally:")
        src.add(2, "_c = cpu.csrs")
        src.add(2, "_c.instret += ret")
        src.add(2, "_c.cycle += cyc")
        src.add(2, "cpu.bus.tick(cyc)")
        src.add(1, "if _pend is not None:")
        src.add(2, "cpu._take_trap(_pend.cause, _pend.tval)")
        src.add(1, "return ret")
        return src.text()

"""The ``compiled`` execution backend: hot-block tiering over the JIT.

Blocks start life interpreted; once a block's ``exec_count`` crosses the
tier threshold it is compiled by :class:`~repro.vp.jit.compiler.BlockCompiler`
and the compiled function is cached on the block together with the
specialization token it was generated for.  The token captures
everything the generated code folded in — the hook-table version and the
register-file shape — so any change recompiles instead of executing
stale assumptions.

Above the compiled tier sits **trace compilation**: a compiled block
that keeps re-executing with a statically known successor (a hot chain
edge: the block's ``chain_pc``) becomes the head of a multi-block trace.  The backend walks the chain through the
TB cache, collects up to :data:`~repro.vp.jit.compiler.TRACE_MAX_BLOCKS`
template-covered members, and asks the compiler for one specialized
function with interior side exits.  Traces live on their head block and
are keyed on the same specialization token; a TB flush (fence.i, SMC,
clear-on-full) discards the member blocks wholesale, so stale trace
code can never run.

Fallback rules (documented in ``docs/performance.md``): an instruction
cache or a disabled translation-block cache turns compilation off
entirely and every block stays interpreted; a codegen failure blacklists
just that block (or trace head) by tagging it with the token it failed
under, so a TB flush or a token change lifts the mark with the block.  The tier split is observable through
:class:`JitStats` (``repro profile``'s tier report and the
``emulator_compiled`` bench section read it).
"""

from __future__ import annotations

from typing import List, Optional

from ...isa.registers import RegisterFile
from ..backends import ExecutionBackend
from .compiler import (TRACE_MAX_BLOCKS, BlockCompiler, CompileError,
                       _interior_ok, _terminal_ok)

__all__ = ["CompiledBackend", "JitStats", "DEFAULT_THRESHOLD",
           "DEFAULT_TRACE_THRESHOLD"]

#: Executions before a block is promoted to the compiled tier.  Small
#: enough that a hot loop compiles almost immediately, large enough that
#: translate-once/run-once code never pays the codegen cost.
DEFAULT_THRESHOLD = 8

#: Compiled-with-hot-chain-edge executions before a block is promoted to
#: a trace head.  Counted from the compiled promotion onward, so a block
#: must prove itself hot twice before the (larger) trace codegen runs.
DEFAULT_TRACE_THRESHOLD = 16


class JitStats:
    """Tier observability counters maintained by :class:`CompiledBackend`."""

    __slots__ = ("blocks_compiled", "compiled_retired", "interp_retired",
                 "compile_failures", "traces_compiled", "trace_retired",
                 "trace_failures")

    def __init__(self) -> None:
        self.blocks_compiled = 0
        #: Instructions retired by compiled functions / the interp tier.
        self.compiled_retired = 0
        self.interp_retired = 0
        self.compile_failures = 0
        #: Multi-block traces built / instructions they retired / chain
        #: walks that found an uncompilable shape.
        self.traces_compiled = 0
        self.trace_retired = 0
        self.trace_failures = 0

    def as_dict(self) -> dict:
        return {"blocks_compiled": self.blocks_compiled,
                "compiled_instructions": self.compiled_retired,
                "interp_instructions": self.interp_retired,
                "compile_failures": self.compile_failures,
                "traces_compiled": self.traces_compiled,
                "trace_instructions": self.trace_retired,
                "trace_failures": self.trace_failures}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"JitStats({self.as_dict()})"


class CompiledBackend(ExecutionBackend):
    """Tiered execution: interpret cold blocks, JIT-compile hot ones,
    fuse hot chains into traces."""

    name = "compiled"

    def __init__(self, cpu, threshold: int = DEFAULT_THRESHOLD,
                 trace_threshold: int = DEFAULT_TRACE_THRESHOLD) -> None:
        super().__init__(cpu)
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if trace_threshold < 1:
            raise ValueError(
                f"trace_threshold must be >= 1, got {trace_threshold}")
        self.threshold = threshold
        self.trace_threshold = trace_threshold
        self.stats = JitStats()
        self._token: Optional[tuple] = None
        self._compiler: Optional[BlockCompiler] = None
        self._compile_ok = False
        self._trace_ok = False

    # ------------------------------------------------------------------

    def _refresh(self) -> None:
        """Recompute the specialization token (run start / hook change)."""
        cpu = self.cpu
        regs = cpu.regs
        direct_ok = type(regs) is RegisterFile and not regs.trace
        # An icache charges per-fetch penalties the generated code does
        # not model, and a disabled block cache never re-executes the
        # same TranslationBlock object — both force the interp tier.
        self._compile_ok = cpu.icache is None and cpu.block_cache_enabled
        token = (cpu.hooks.version, direct_ok)
        if token != self._token:
            self._token = token
            self._compiler = BlockCompiler(cpu, direct_ok=direct_ok)
        # Traces are direct-shape only (no hooks of any kind: interior
        # side exits cannot replay per-block hook ordering).
        self._trace_ok = (self._compile_ok and self._compiler.direct
                          and not self._compiler.hb)

    def _step(self, remaining) -> int:
        cpu = self.cpu
        block = cpu._fetch_block()
        if block is None:
            return 0
        token = self._token
        if block.compiled_version == token:
            fn = block.compiled
            if fn is not None:  # None: codegen failed for this token
                if block.trace_token == token:
                    trace = block.trace
                    if trace is not None:
                        retired = trace(cpu, remaining)
                        self.stats.trace_retired += retired
                        return retired
                elif self._trace_ok and block.chain_pc is not None:
                    block.trace_heat += 1
                    if block.trace_heat >= self.trace_threshold:
                        trace = self._compile_trace(block)
                        if trace is not None:
                            retired = trace(cpu, remaining)
                            self.stats.trace_retired += retired
                            return retired
                retired = fn(cpu, remaining)
                self.stats.compiled_retired += retired
                return retired
        elif self._compile_ok and block.exec_count + 1 >= self.threshold:
            fn = self._compile(block)
            if fn is not None:
                retired = fn(cpu, remaining)
                self.stats.compiled_retired += retired
                return retired
        retired = cpu._execute_block(block)
        self.stats.interp_retired += retired
        return retired

    def _compile(self, block):
        block.compiled_version = self._token
        try:
            block.compiled = self._compiler.compile(block)
        except (CompileError, SyntaxError, ValueError):
            block.compiled = None
            self.stats.compile_failures += 1
            return None
        self.stats.blocks_compiled += 1
        return block.compiled

    # -- trace formation -----------------------------------------------

    def _trace_members(self, head) -> Optional[List]:
        """Walk hot chain edges from ``head`` to collect trace members.

        Returns the member list, or ``None`` for a *soft* miss — a
        successor not yet in the TB cache (the walk retries once it has
        been translated).  Raises :class:`CompileError` for structurally
        untraceable shapes, which blacklists the head.
        """
        if not _interior_ok(head):
            raise CompileError("trace head is not interior-shaped")
        cache = self.cpu._tb_cache
        members = [head]
        seen = {head.start_pc}
        pc = head.chain_pc
        while len(members) < TRACE_MAX_BLOCKS:
            nxt = cache.get(pc)
            if nxt is None:
                return None  # successor not translated yet; retry later
            if nxt.start_pc in seen:
                break  # chain folds back without a branch: stop here
            if _terminal_ok(nxt):
                members.append(nxt)
                return members
            if not _interior_ok(nxt):
                break  # jalr/system/untemplated end: trace stops before it
            members.append(nxt)
            seen.add(nxt.start_pc)
            pc = nxt.chain_pc
        if len(members) < 2:
            raise CompileError("no traceable successor")
        return members

    def _compile_trace(self, head):
        try:
            members = self._trace_members(head)
            if members is None:
                # Not a failure — reset the heat so the edge re-proves
                # itself once the successor block exists.
                head.trace_heat = 0
                return None
            fn = self._compiler.compile_trace(members)
        except (CompileError, SyntaxError, ValueError):
            self.stats.trace_failures += 1
            head.trace = None
            head.trace_token = self._token
            return None
        head.trace = fn
        head.trace_token = self._token
        for member in members:
            member.trace_member = True
        self.stats.traces_compiled += 1
        return fn

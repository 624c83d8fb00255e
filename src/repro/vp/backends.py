"""Selectable execution backends for :meth:`repro.vp.cpu.Cpu.run`.

An :class:`ExecutionBackend` owns the run loop — budget accounting,
livelock detection, WFI fast-forward, :class:`~repro.vp.cpu.StopRun`
handling — and steps one translation block at a time.  Two backends:

* ``interp``    — the default: every block through
  :meth:`~repro.vp.cpu.Cpu.step_block`, the one interpreted block body,
* ``compiled``  — the template JIT tier (:mod:`repro.vp.jit`): interpret
  a block until its ``exec_count`` crosses a threshold, then execute a
  specialized compiled function cached on the block.

Both produce bit-identical architectural results; the backend choice
only moves the speed/observability trade-off.  ``create_backend`` is the
single factory the machine layer, CLI, and tests go through, and
:data:`DEFAULT_BACKEND` / :data:`BACKEND_NAMES` are the one source every
config default and ``--backend`` choice list reads.
"""

from __future__ import annotations

from typing import Optional

from ..isa import csr as csrdef
from .cpu import (LIVELOCK_LIMIT, STOP_LIVELOCK, STOP_MAX_INSNS,
                  STOP_REQUESTED, STOP_WFI, Cpu, RunResult, StopRun)

__all__ = ["ExecutionBackend", "create_backend", "BACKEND_NAMES",
           "DEFAULT_BACKEND"]


class ExecutionBackend:
    """The ``interp`` backend, and the run loop every backend shares.

    :meth:`_step` executes one translation block (or takes one
    interrupt/trap) and returns the number of instructions retired;
    :meth:`_refresh` runs at run start and whenever the hook table
    version changes mid-run.  The compiled tier overrides both.
    ``remaining`` is the outstanding instruction budget — the compiled
    tier's loops use it to stay within one block of the budget, matching
    the interpreter's block-boundary overshoot contract.
    """

    name = "interp"

    def __init__(self, cpu: Cpu) -> None:
        self.cpu = cpu

    def _refresh(self) -> None:
        pass

    def _step(self, remaining) -> int:
        return self.cpu.step_block()

    def run(self, max_instructions: Optional[int] = None) -> RunResult:
        cpu = self.cpu
        executed = 0
        budget = (max_instructions if max_instructions is not None
                  else float("inf"))
        zero_steps = 0
        hooks = cpu.hooks
        hook_version = hooks.version
        self._refresh()
        start_instret = cpu.csrs.instret
        try:
            while executed < budget:
                if hooks.version != hook_version:  # plugin added/removed
                    hook_version = hooks.version
                    self._refresh()
                retired = self._step(budget - executed)
                executed += retired
                if retired:
                    zero_steps = 0
                else:
                    zero_steps += 1
                    if zero_steps >= LIVELOCK_LIMIT:
                        return RunResult(STOP_LIVELOCK, executed,
                                         cpu.csrs.cycle,
                                         trap_cause=cpu.csrs.raw_read(
                                             csrdef.MCAUSE),
                                         trap_pc=cpu.pc)
                if cpu._wfi_pending:
                    cpu._wfi_pending = False
                    skip = cpu._wfi_wait()
                    if skip is None:
                        return RunResult(STOP_WFI, executed, cpu.csrs.cycle)
                    if skip:
                        cpu.csrs.cycle += skip
                        cpu.bus.tick(skip)
        except StopRun:
            # The hook stopped mid-block; _execute_block's finally already
            # flushed the partial block's accounting to the CSRs, so the
            # retired count is the instret delta rather than `executed`.
            return RunResult(STOP_REQUESTED,
                             cpu.csrs.instret - start_instret,
                             cpu.csrs.cycle)
        return RunResult(STOP_MAX_INSNS, executed, cpu.csrs.cycle)


def _make_compiled(cpu: Cpu, **options) -> ExecutionBackend:
    from .jit.backend import CompiledBackend

    return CompiledBackend(cpu, **options)


_FACTORIES = {
    "interp": lambda cpu, **options: ExecutionBackend(cpu),
    "compiled": _make_compiled,
}

#: The accepted ``--backend`` choices, in documentation order.
BACKEND_NAMES = ("interp", "compiled")

#: The backend every config, job payload and CLI run uses by default.
DEFAULT_BACKEND = "interp"


def create_backend(name: str, cpu: Cpu, **options) -> ExecutionBackend:
    """Instantiate the named backend for ``cpu``.

    ``options`` are backend-specific (the compiled tier takes
    ``threshold=`` and ``trace_threshold=``); the interpreter accepts
    and ignores them so one config surface can drive any backend.
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown execution backend {name!r}; "
            f"expected one of {', '.join(BACKEND_NAMES)}") from None
    return factory(cpu, **options)

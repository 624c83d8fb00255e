"""Program construction and evaluation for the fuzzer.

Fuzz inputs are tuples of raw instruction words (16-bit compressed or
32-bit).  :class:`ProgramBuilder` wraps a word list in a fixed prologue
(scratch-arena base pointer, a few seeded registers) and epilogue (exit
ecall) so every input is a complete runnable image, and
:class:`ProgramEvaluator` runs inputs on a single reused
:class:`~repro.vp.machine.Machine` — dirty-page snapshot/restore between
runs keeps per-execution state reset at O(pages touched) instead of
re-allocating a machine per input, while guaranteeing executions are
independent (no leftover RAM from a previous input can leak into the
next, which is what makes batch results order-independent and the
parallel engine bit-identical to the sequential one).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Tuple

from ..asm import Program
from ..coverage.collector import coverage_signature
from ..coverage.report import empty_report
from ..isa.decoder import Decoder, IsaConfig
from ..isa.encoder import encode
from ..vp.backends import DEFAULT_BACKEND
from ..vp.cpu import (
    STOP_EXIT,
    STOP_LIVELOCK,
    STOP_MAX_INSNS,
    STOP_WFI,
)
from ..vp.machine import Machine, MachineConfig, RAM_BASE, STOP_UNHANDLED_TRAP
from .feedback import InsnTypePlugin, TBEdgePlugin

#: Scratch arena for fuzzed memory instructions: 1 MiB into RAM, far from
#: the code at RAM_BASE, inside the default 4 MiB RAM.
SCRATCH_BASE = RAM_BASE + 0x0010_0000

# Triage outcome classes.
OUTCOME_EXIT = "exit"                  # clean guest exit, code 0
OUTCOME_EXIT_NONZERO = "exit_nonzero"  # clean guest exit, code != 0
OUTCOME_TRAP = "trap"                  # unhandled trap (finding)
OUTCOME_HANG = "hang"                  # budget exhausted / wfi-asleep (finding)
OUTCOME_DIVERGENCE = "divergence"      # lockstep oracle mismatch (finding)

#: Outcomes the triage layer treats as findings.
FINDING_OUTCOMES = (OUTCOME_TRAP, OUTCOME_HANG, OUTCOME_DIVERGENCE)


@dataclass(frozen=True)
class EvalResult:
    """Outcome of executing one fuzz input — plain picklable data."""

    signature: FrozenSet[tuple]
    outcome: str
    stop_reason: str
    exit_code: Optional[int]
    trap_cause: Optional[int]
    instructions: int

    def to_dict(self) -> dict:
        """JSON-serializable view; :meth:`from_dict` round-trips it.

        The signature frozenset is emitted as a sorted list of
        ``[tag, value]`` pairs so the wire form is canonical — two equal
        results serialize byte-identically, which is what lets cluster
        nodes ship evaluations back over JSON without perturbing the
        coordinator's corpus trajectory.
        """
        return {
            "signature": sorted([tag, value] for tag, value
                                in self.signature),
            "outcome": self.outcome,
            "stop_reason": self.stop_reason,
            "exit_code": self.exit_code,
            "trap_cause": self.trap_cause,
            "instructions": self.instructions,
        }

    @staticmethod
    def from_dict(data: dict) -> "EvalResult":
        return EvalResult(
            signature=frozenset((tag, value) for tag, value
                                in data["signature"]),
            outcome=data["outcome"],
            stop_reason=data["stop_reason"],
            exit_code=data["exit_code"],
            trap_cause=data["trap_cause"],
            instructions=data["instructions"],
        )


def _classify(stop_reason: str, exit_code: Optional[int]) -> str:
    if stop_reason == STOP_EXIT:
        return OUTCOME_EXIT if not exit_code else OUTCOME_EXIT_NONZERO
    if stop_reason == STOP_UNHANDLED_TRAP:
        return OUTCOME_TRAP
    if stop_reason in (STOP_MAX_INSNS, STOP_WFI, STOP_LIVELOCK):
        return OUTCOME_HANG
    return OUTCOME_HANG


class ProgramBuilder:
    """Wraps instruction-word lists into runnable :class:`Program` images."""

    def __init__(self, isa: IsaConfig) -> None:
        self.isa = isa
        self.decoder = Decoder(isa)
        enc = lambda name, *ops: encode(self.decoder, name, *ops)  # noqa: E731
        self.prologue: Tuple[int, ...] = (
            enc("lui", 8, SCRATCH_BASE >> 12),   # x8 -> scratch arena
            enc("addi", 5, 0, 1),
            enc("addi", 6, 0, -1),
            enc("addi", 7, 0, 0x7F),
            enc("addi", 9, 0, 42),
        )
        self.epilogue: Tuple[int, ...] = (
            enc("addi", 10, 0, 0),               # a0 = 0
            enc("addi", 17, 0, 93),              # a7 = exit
            enc("ecall"),
        )

    @staticmethod
    def encode_words(words: Sequence[int]) -> bytes:
        """Instruction words to code bytes (2 or 4 little-endian each)."""
        blob = bytearray()
        for word in words:
            if word & 0x3 == 0x3:
                blob += word.to_bytes(4, "little")
            else:
                blob += (word & 0xFFFF).to_bytes(2, "little")
        return bytes(blob)

    def build(self, words: Sequence[int]) -> Program:
        """A complete program image: prologue + ``words`` + epilogue."""
        blob = self.encode_words(self.prologue + tuple(words) + self.epilogue)
        return Program(segments=[(RAM_BASE, blob)], entry=RAM_BASE,
                       isa_name=self.isa.name)


def words_from_program(program: Program, isa: IsaConfig,
                       decoder: Optional[Decoder] = None,
                       limit: int = 1024) -> Tuple[int, ...]:
    """Decode a program's text segment back into an instruction-word list.

    This is how existing testgen suite programs become fuzzing seeds: the
    text is walked from the entry point and every decodable word is
    collected; the walk stops at the first undecodable word (data padding)
    or after ``limit`` instructions.
    """
    decoder = decoder or Decoder(isa)
    base, blob = program.text_segment
    offset = program.entry - base
    words: List[int] = []
    while offset + 2 <= len(blob) and len(words) < limit:
        halfword = int.from_bytes(blob[offset:offset + 2], "little")
        if halfword & 0x3 == 0x3:
            if offset + 4 > len(blob):
                break
            word = int.from_bytes(blob[offset:offset + 4], "little")
            size = 4
        else:
            word = halfword
            size = 2
        if decoder.try_decode(word) is None:
            break
        words.append(word)
        offset += size
    return tuple(words)


class ProgramEvaluator:
    """Runs fuzz inputs on one reused machine and reports their coverage.

    The machine is snapshotted pristine at construction; every
    :meth:`evaluate` restores that baseline (O(dirty pages)), loads the
    input, runs it under the instruction budget, and returns the combined
    :func:`~repro.coverage.coverage_signature` (instruction types +
    registers + TB edges) plus the triage classification.
    """

    def __init__(self, isa: IsaConfig, max_instructions: int = 5000,
                 backend: str = DEFAULT_BACKEND) -> None:
        self.isa = isa
        self.max_instructions = max_instructions
        self.backend = backend
        self.builder = ProgramBuilder(isa)
        self.machine = Machine(MachineConfig(isa=isa, trace_registers=True,
                                             backend=backend))
        self._insns = InsnTypePlugin()
        self._edges = TBEdgePlugin()
        self.machine.add_plugin(self._insns)
        self.machine.add_plugin(self._edges)
        self._baseline = self.machine.snapshot()
        #: Reused report shell: only its hit-sets are rewritten per run.
        self._report = empty_report(isa)
        self.executions = 0

    def evaluate(self, words: Sequence[int]) -> EvalResult:
        """Execute one input and return its coverage + classification."""
        machine = self.machine
        machine.restore(self._baseline)
        machine.load(self.builder.build(words))
        machine.cpu.regs.clear_trace()
        machine.cpu.fregs.clear_trace()
        machine.cpu.csrs.clear_trace()
        self._insns.reset()
        self._edges.reset()
        result = machine.run(max_instructions=self.max_instructions)
        report = self._report
        report.insn_types = self._insns.insn_types
        report.gprs_read = set(machine.cpu.regs.reads)
        report.gprs_written = set(machine.cpu.regs.writes)
        report.fprs_read = set(machine.cpu.fregs.reads)
        report.fprs_written = set(machine.cpu.fregs.writes)
        report.csrs_accessed = (set(machine.cpu.csrs.reads)
                                | set(machine.cpu.csrs.writes))
        signature = coverage_signature(report, self._edges.edges)
        self.executions += 1
        return EvalResult(
            signature=signature,
            outcome=_classify(result.stop_reason, result.exit_code),
            stop_reason=result.stop_reason,
            exit_code=result.exit_code,
            trap_cause=result.trap_cause,
            instructions=result.instructions,
        )

    def check_divergence(self, words: Sequence[int]) -> Optional[str]:
        """Differential oracle: block cache on vs. off, lockstep-compared.

        Returns the divergence detail string, or ``None`` when both
        machines agree — the software analogue of the dual-core lockstep
        check, reusing :func:`repro.vp.lockstep.run_lockstep`.
        """
        from ..vp.lockstep import run_lockstep

        program = self.builder.build(words)
        primary = Machine(MachineConfig(isa=self.isa, backend=self.backend))
        secondary = Machine(MachineConfig(
            isa=self.isa, block_cache_enabled=False))
        outcome = run_lockstep(primary, secondary, program,
                               max_instructions=self.max_instructions,
                               raise_on_divergence=False)
        if outcome.diverged:
            return outcome.divergence.detail
        return None

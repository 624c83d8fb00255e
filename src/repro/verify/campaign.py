"""Differential verification campaigns: corpus x configuration matrix.

A :class:`DiffCampaign` runs every program of a deterministic corpus
under every machine configuration a :class:`~repro.verify.matrix.VerifyMatrix`
names, captures a golden architectural digest per run
(:mod:`repro.verify.digest`), and compares each configured pair.  A
digest mismatch escalates automatically: the pair re-runs under
per-instruction lockstep to pinpoint the first diverging instruction,
and the witness program is minimized while its divergence signature is
preserved (:mod:`repro.verify.escalate`).

Determinism contract: a campaign is a pure function of ``(isa, config)``
— the corpus is seeded, the matrix parse is pure, per-program results
are independent, and escalation is deterministic — so ``jobs=N`` local
pools (one contiguous program range per worker on
:class:`repro.pool.Workers`, each worker handed the parent's built
corpus), the ``verify`` service kind, and cluster
``verify_shard`` ranges all reproduce the single-process report
byte-for-byte (wall-clock ``elapsed_seconds`` aside).

Corpus sources (``config.corpus``):

================ =====================================================
``suites``       the three testgen suites (arch + unit + torture), as
                 instruction-word lists — same corpus the fuzzer seeds
``torture:N``    N fresh seeded Torture programs
``fuzz:N``       a synthetic fuzz corpus: N mutants drawn from the
                 suite seeds with the fuzzer's ISA-aware mutator under
                 a seeded PRNG (the saved-corpus shape without a run)
``file:PATH``    a saved corpus: JSONL rows ``{"name", "words"}``
================ =====================================================

Every corpus program is wrapped in a counted repeat loop
(:class:`RepeatBuilder`) so hot-block tiers — the template JIT and its
trace fusion — actually engage on otherwise straight-line programs.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..fuzz.executor import ProgramBuilder, words_from_program
from ..isa.decoder import IsaConfig
from ..isa.encoder import encode
from ..pool import Workers, merge, ranges, resolve_jobs
from ..telemetry.session import NULL_TELEMETRY
from ..vp.cpu import STOP_MAX_INSNS
from ..vp.machine import Machine
from .digest import StateDigest, capture_state, compare_digests
from .escalate import escalate_divergence
from .matrix import ConfigPair, VerifyConfig, VerifyMatrix, parse_matrix
from .report import corpus_digest, render_verify, verify_report_dict

__all__ = [
    "DiffCampaign",
    "RepeatBuilder",
    "VerifyCampaignConfig",
    "VerifyResult",
    "build_corpus",
    "corpus_size_hint",
]


@dataclass(frozen=True)
class VerifyCampaignConfig:
    """Knobs for one differential verification campaign (picklable)."""

    corpus: str = "suites"          # suites | torture:N | fuzz:N | file:PATH
    matrix: str = "backends"        # see repro.verify.matrix.parse_matrix
    seed: int = 0                   # corpus PRNG seed
    max_instructions: int = 20_000  # per-run budget (both sides share it)
    repeats: int = 4                # repeat-loop iterations per program
    checkpoint_split: int = 200     # ckpt-resume: snapshot after N insns
    minimize_evals: int = 24        # lockstep re-runs per minimization
    jobs: int = 1                   # worker processes (0 = all CPUs)


class RepeatBuilder(ProgramBuilder):
    """A :class:`ProgramBuilder` that loops the body ``repeats`` times.

    Corpus programs are predominantly straight-line (Torture branches
    only jump forward), so without a loop no block ever gets hot and the
    compiled tier would never be exercised.  The wrapper brackets the
    body with a counted loop on ``x28``::

        addi x28, x0, repeats
    head:                       # body start
        <body words>
        addi x28, x28, -1
        beq  x28, x0, +8        # done -> skip the back-jump
        jal  x0, head           # JAL reach covers any body length

    A body that clobbers ``x28`` may loop a different number of times or
    hang — both deterministic, hence identical on the two sides of every
    pair (hangs stop at the shared instruction budget).
    """

    def __init__(self, isa: IsaConfig, repeats: int = 4) -> None:
        super().__init__(isa)
        self.repeats = repeats

    def build(self, words: Sequence[int]):
        if self.repeats <= 1:
            return super().build(words)
        enc = lambda name, *ops: encode(self.decoder, name, *ops)  # noqa: E731
        body_len = sum(4 if word & 0x3 == 0x3 else 2 for word in words)
        wrapped = (
            (enc("addi", 28, 0, self.repeats),)
            + tuple(words)
            + (enc("addi", 28, 28, -1),
               enc("beq", 28, 0, 8),
               enc("jal", 0, -(body_len + 8)))
        )
        return super().build(wrapped)


# ----------------------------------------------------------------------
# Corpus construction (pure functions of (isa, spec, seed))
# ----------------------------------------------------------------------

def _parse_counted(spec: str, prefix: str) -> Optional[int]:
    if not spec.startswith(prefix + ":"):
        return None
    count = spec[len(prefix) + 1:]
    if not count.isdigit() or int(count) < 1:
        raise ValueError(f"corpus {spec!r}: expected {prefix}:N with N >= 1")
    return int(count)


def corpus_size_hint(spec: str) -> Optional[int]:
    """The corpus size when it is cheap to know (``torture:N`` /
    ``fuzz:N``), else ``None`` — used to cap cluster shard counts
    without generating the corpus on the coordinator."""
    for prefix in ("torture", "fuzz"):
        count = _parse_counted(spec, prefix)
        if count is not None:
            return count
    return None


def build_corpus(isa: IsaConfig, spec: str, seed: int
                 ) -> List[Tuple[str, Tuple[int, ...]]]:
    """The deterministic ``(name, words)`` program list a spec names."""
    from ..fuzz.engine import suite_seeds

    if spec == "suites":
        return suite_seeds(isa, seed=seed)
    count = _parse_counted(spec, "torture")
    if count is not None:
        from ..testgen import TortureConfig, TortureGenerator

        generator = TortureGenerator(
            isa, TortureConfig(length=120, seed=seed))
        corpus = []
        for name, program in generator.generate_suite(count,
                                                      start_seed=seed):
            words = words_from_program(program, isa)
            if words:
                corpus.append((name, words))
        return corpus
    count = _parse_counted(spec, "fuzz")
    if count is not None:
        from ..fuzz.mutators import IsaMutator

        donors = [words for _name, words in suite_seeds(isa, seed=seed)]
        mutator = IsaMutator(isa)
        rng = random.Random(0x5EED_F00D + seed)
        return [(f"fuzz-{index:04d}",
                 mutator.mutate(donors[index % len(donors)], rng,
                                donors=donors))
                for index in range(count)]
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        corpus = []
        with open(path, "r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle):
                if not line.strip():
                    continue
                row = json.loads(line)
                words = tuple(int(word) for word in row["words"])
                if words:
                    corpus.append(
                        (str(row.get("name", f"file-{line_number:04d}")),
                         words))
        if not corpus:
            raise ValueError(f"corpus file {path!r} holds no programs")
        return corpus
    raise ValueError(
        f"unknown corpus {spec!r}; expected 'suites', 'torture:N', "
        f"'fuzz:N', or 'file:PATH'")


# ----------------------------------------------------------------------
# Per-configuration runner
# ----------------------------------------------------------------------

class ConfigRunner:
    """Runs corpus programs under one named configuration.

    One reused machine, restored to its pristine snapshot between
    programs (O(dirty pages)); a ``checkpoint`` configuration executes
    through snapshot -> roll forward -> restore -> resume, which must be
    digest-identical to a straight run (the determinism contract the
    snapshot round-trip suite pins per backend).
    """

    def __init__(self, isa: IsaConfig, config: VerifyConfig,
                 builder: ProgramBuilder, max_instructions: int,
                 checkpoint_split: int) -> None:
        self.config = config
        self.builder = builder
        self.max_instructions = max_instructions
        self.checkpoint_split = min(checkpoint_split,
                                    max(1, max_instructions // 2))
        self.machine = Machine(config.machine_config(isa))
        self._baseline = self.machine.snapshot()

    def run(self, words: Sequence[int]) -> StateDigest:
        machine = self.machine
        machine.restore(self._baseline)
        machine.load(self.builder.build(words))
        if not self.config.checkpoint:
            result = machine.run(max_instructions=self.max_instructions)
            return capture_state(machine, result,
                                 machine.ram.dirty_pages())
        # Checkpoint-restore-resume: run to the split point, snapshot,
        # roll forward to completion, roll *back*, and resume to the
        # same budget.  The cumulative written-page set is tracked
        # explicitly because snapshot/restore clear dirty tracking.
        result = machine.run(max_instructions=self.checkpoint_split)
        pages = set(machine.ram.dirty_pages())
        if result.stop_reason == STOP_MAX_INSNS:
            snap = machine.snapshot(parent=self._baseline)
            machine.run(max_instructions=self.max_instructions,
                        resume=True)
            pages |= machine.ram.dirty_pages()
            machine.restore(snap)
            result = machine.run(max_instructions=self.max_instructions,
                                 resume=True)
            pages |= machine.ram.dirty_pages()
        return capture_state(machine, result, pages)


# ----------------------------------------------------------------------
# Campaign result
# ----------------------------------------------------------------------

@dataclass
class VerifyResult:
    """Outcome of one campaign (or one merged set of shard ranges)."""

    meta: Dict[str, object]
    escalations: List[Dict[str, object]]
    elapsed_seconds: float

    @property
    def divergences(self) -> int:
        return len(self.escalations)

    def to_dict(self) -> Dict[str, object]:
        return verify_report_dict(self.meta, self.escalations,
                                  self.elapsed_seconds)

    def table(self) -> str:
        return render_verify(self.to_dict())


# ----------------------------------------------------------------------
# Worker state
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class VerifySpec:
    """Everything a worker needs to rebuild the campaign — picklable.

    It carries the parent's built corpus, so a worker never regenerates
    the programs, nor re-reads a ``file:PATH`` corpus that may have
    changed since the parent computed its ``corpus_digest``.
    """

    isa_name: str
    config: VerifyCampaignConfig
    corpus: Tuple[Tuple[str, Tuple[int, ...]], ...]

    def build(self) -> "DiffCampaign":
        # Counters stay off in workers: the parent counts the merged
        # ranges, so pooled and inline runs report the same totals.
        campaign = DiffCampaign(IsaConfig.from_string(self.isa_name),
                                replace(self.config, jobs=1),
                                telemetry=NULL_TELEMETRY)
        campaign._corpus = list(self.corpus)
        return campaign


def _verify_range(campaign: "DiffCampaign", bounds: Tuple[int, int]
                  ) -> List[Dict[str, object]]:
    return campaign.run_range(*bounds)


# ----------------------------------------------------------------------
# The campaign
# ----------------------------------------------------------------------

class DiffCampaign:
    """Differential verification across a configuration matrix.

    ::

        campaign = DiffCampaign(RV32IMC_ZICSR,
                                VerifyCampaignConfig(matrix="backends"))
        result = campaign.run()
        assert result.divergences == 0
    """

    def __init__(self, isa: IsaConfig,
                 config: Optional[VerifyCampaignConfig] = None,
                 telemetry=None) -> None:
        from ..telemetry.session import resolve

        self.isa = isa
        self.config = config or VerifyCampaignConfig()
        self.matrix: VerifyMatrix = parse_matrix(self.config.matrix)
        self.builder = RepeatBuilder(isa, repeats=self.config.repeats)
        self.telemetry = resolve(telemetry)
        self._metrics = self.telemetry.metrics.namespace("verify")
        self._corpus: Optional[List[Tuple[str, Tuple[int, ...]]]] = None

    # -- corpus ---------------------------------------------------------

    def corpus(self) -> List[Tuple[str, Tuple[int, ...]]]:
        if self._corpus is None:
            self._corpus = build_corpus(self.isa, self.config.corpus,
                                        self.config.seed)
        return self._corpus

    def meta(self) -> Dict[str, object]:
        """The deterministic report header — shared verbatim by direct
        runs, service jobs, and the cluster's shard merge."""
        corpus = self.corpus()
        return {
            "isa": self.isa.name,
            "corpus": self.config.corpus,
            "matrix": self.matrix.spec,
            "seed": self.config.seed,
            "pairs": self.matrix.pair_names,
            "programs": len(corpus),
            "comparisons": len(corpus) * len(self.matrix.pairs),
            "corpus_digest": corpus_digest(corpus),
            "max_instructions": self.config.max_instructions,
            "repeats": self.config.repeats,
        }

    # -- execution ------------------------------------------------------

    def _runners(self) -> Dict[str, ConfigRunner]:
        return {
            config.name: ConfigRunner(
                self.isa, config, self.builder,
                self.config.max_instructions,
                self.config.checkpoint_split)
            for config in self.matrix.configs()
        }

    def run_range(self, lo: int, hi: int,
                  on_progress: Optional[Callable[[int], None]] = None
                  ) -> List[Dict[str, object]]:
        """Verify corpus programs ``[lo, hi)``; the escalation records.

        Per-program work is independent and deterministic, so any
        partition of ``range(len(corpus))`` concatenated back in index
        order reproduces the full-run escalation list exactly — the
        property local pools and cluster shards both rest on.
        """
        corpus = self.corpus()
        runners = self._runners()
        events = self.telemetry.events
        escalations: List[Dict[str, object]] = []
        for index in range(lo, min(hi, len(corpus))):
            name, words = corpus[index]
            digests: Dict[str, StateDigest] = {
                config_name: runner.run(words)
                for config_name, runner in runners.items()
            }
            self._metrics.counter("programs").inc()
            self._metrics.counter("comparisons").inc(
                len(self.matrix.pairs))
            for pair in self.matrix.pairs:
                mismatches = compare_digests(
                    digests[pair.a.name], digests[pair.b.name],
                    include_timing=pair.compare_cycles)
                if not mismatches:
                    continue
                self._metrics.counter("divergences").inc()
                if self.telemetry.enabled:
                    events.emit("verify.divergence", program=name,
                                index=index, pair=pair.name,
                                mismatches=len(mismatches))
                def digest_fn(candidate, _pair=pair):
                    return compare_digests(
                        runners[_pair.a.name].run(candidate),
                        runners[_pair.b.name].run(candidate),
                        include_timing=_pair.compare_cycles)

                record = escalate_divergence(
                    self.isa, self.builder, pair, index, name, words,
                    mismatches, digest_fn=digest_fn,
                    max_instructions=self.config.max_instructions,
                    minimize_evals=self.config.minimize_evals)
                escalations.append(record.to_dict())
                self._metrics.counter("escalations").inc()
                if self.telemetry.enabled:
                    events.emit("verify.escalated", program=name,
                                pair=pair.name, kind=record.kind,
                                signature=record.signature,
                                pc=record.pc,
                                lockstep_clean=record.lockstep_clean,
                                minimized_words=len(record.words))
            if on_progress is not None:
                on_progress(index + 1 - lo)
        return escalations

    def run(self,
            on_progress: Optional[Callable[[int], None]] = None,
            progress_interval: float = 0.2) -> VerifyResult:
        """Run the full campaign; ``jobs>1`` fans contiguous program
        ranges out to worker processes (byte-identical results)."""
        started = time.perf_counter()
        jobs = resolve_jobs(self.config.jobs)
        meta = self.meta()
        # Touch every campaign counter up front so a clean run still
        # exposes the full verify.* series (zeroes) on /metrics.
        for name in ("programs", "comparisons", "divergences",
                     "escalations"):
            self._metrics.counter(name).inc(0)
        if self.telemetry.enabled:
            self.telemetry.events.emit(
                "verify.started", corpus=self.config.corpus,
                matrix=self.matrix.spec, seed=self.config.seed,
                programs=meta["programs"], pairs=len(self.matrix.pairs))
        total = meta["programs"]
        last = [started]

        def tick(done: int) -> None:
            if on_progress is None:
                return
            now = time.perf_counter()
            if now - last[0] >= progress_interval:
                last[0] = now
                on_progress(done)

        bounds = ranges(total, jobs)
        if len(bounds) > 1:
            escalations = self._run_workers(bounds, tick)
        else:
            escalations = self.run_range(0, total, on_progress=tick)
        elapsed = time.perf_counter() - started
        result = VerifyResult(meta=meta, escalations=escalations,
                              elapsed_seconds=elapsed)
        report = result.to_dict()
        self._metrics.gauge("findings").set(report["classes"])
        if self.telemetry.enabled:
            self.telemetry.events.emit(
                "verify.finished", programs=meta["programs"],
                comparisons=meta["comparisons"],
                divergences=result.divergences,
                findings=report["classes"],
                elapsed_seconds=round(elapsed, 6))
        return result

    def _run_workers(self, bounds: List[Tuple[int, int]],
                     tick: Callable[[int], None]
                     ) -> List[Dict[str, object]]:
        """One contiguous range per worker process, merged in order.

        ``tick`` (the job's progress/cancel check) runs while the
        parent waits; the merged ranges feed the ``verify.*`` counters
        the workers leave untouched.
        """
        done = [0]
        parts = []
        spec = VerifySpec(self.isa.name, self.config, tuple(self.corpus()))
        with Workers(len(bounds), spec) as workers:
            for (index,), found, _, _ in workers.map(
                    _verify_range, [((index,), bound) for index, bound
                                    in enumerate(bounds)],
                    poll=lambda: tick(done[0])):
                lo, hi = bounds[index]
                done[0] += hi - lo
                parts.append((index, found))
        escalations = [record for found in merge(parts, len(bounds))
                       for record in found]
        programs = bounds[-1][1] - bounds[0][0]
        self._metrics.counter("programs").inc(programs)
        self._metrics.counter("comparisons").inc(
            programs * len(self.matrix.pairs))
        self._metrics.counter("divergences").inc(len(escalations))
        self._metrics.counter("escalations").inc(len(escalations))
        return escalations

"""The coverage-guided fuzzing engine: scheduler, batches, parallelism.

An AFL-style greybox loop closed over the repo's own layers: inputs are
instruction-word programs run on the VP (:mod:`.executor`), the feedback
signal is the paper's coverage metric plus TB edges (:mod:`.feedback`),
mutations go through the ISA encoder/decoder (:mod:`.mutators`), and the
corpus keeps one minimized input per coverage signature (:mod:`.corpus`).

**Determinism.** A run is a pure function of ``(seed corpus, FuzzConfig
seed, iterations)``: all randomness flows through one seeded PRNG, and
mutants are drawn in fixed-size batches *before* any of the batch's
results are folded back into the corpus.  Executions are independent
(the evaluator restores a pristine snapshot between runs), so a batch
can be executed sequentially or fanned out to
:class:`repro.pool.Workers` (two chunks per worker per batch, merged
back into submission order).  The batch's results then fold back in
three steps: observe and triage in order, minimize every newly admitted
input (one input per pool chunk, so idle workers take the next one), and
admit the minimized inputs in order.  The corpus trajectory is
bit-identical either way: same ``seed`` ⇒ same final corpus for any
``jobs``.  (A wall-clock ``time_budget`` stops between batches and
therefore trades this invariance for bounded runtime — iteration-bounded
runs are the reproducible ones.)
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..coverage.report import empty_report
from ..isa.decoder import Decoder, IsaConfig, RV32IMC_ZICSR
from ..pool import Workers, merge, ranges, resolve_jobs
from ..telemetry.session import resolve as _resolve_telemetry
from ..vp.backends import DEFAULT_BACKEND
from .corpus import Corpus, CorpusEntry
from .executor import (
    EvalResult,
    FINDING_OUTCOMES,
    OUTCOME_DIVERGENCE,
    ProgramEvaluator,
    words_from_program,
)
from .feedback import FeedbackMap
from .mutators import MAX_BODY_WORDS, IsaMutator
from .triage import TriageReport

__all__ = [
    "FuzzConfig",
    "FuzzEngine",
    "FuzzResult",
    "suite_seeds",
    "trivial_seed",
]


@dataclass
class FuzzConfig:
    """Knobs for one fuzzing session."""

    iterations: int = 2000          # mutant executions (seeds/minimize extra)
    seed: int = 0                   # master PRNG seed
    jobs: int = 1                   # worker processes (0 = all CPUs)
    batch_size: int = 32            # mutants drawn before results fold back
    max_instructions: int = 5000    # per-execution budget (exhaustion = hang)
    max_body_words: int = MAX_BODY_WORDS
    minimize: bool = True           # trim corpus adds to minimal inputs
    minimize_evals: int = 24        # extra executions per minimization
    lockstep: bool = False          # differential oracle on corpus adds
    time_budget: Optional[float] = None  # wall-clock stop (breaks jobs parity)
    backend: str = DEFAULT_BACKEND  # execution backend for evaluators


# ----------------------------------------------------------------------
# Seed corpora
# ----------------------------------------------------------------------

def trivial_seed(isa: IsaConfig = RV32IMC_ZICSR
                 ) -> List[Tuple[str, Tuple[int, ...]]]:
    """The minimal seed corpus: one ``addi`` instruction."""
    from ..isa.encoder import encode

    decoder = Decoder(isa)
    return [("trivial", (encode(decoder, "addi", 5, 5, 1),))]


def suite_seeds(isa: IsaConfig = RV32IMC_ZICSR, seed: int = 0,
                torture_programs: int = 2,
                ) -> List[Tuple[str, Tuple[int, ...]]]:
    """Seeds from the three existing testgen suites.

    The architectural and unit suites contribute their directed programs;
    the Torture generator contributes ``torture_programs`` random ones
    derived from the master ``seed`` — so the whole seed corpus, like the
    rest of the session, is a pure function of the seed.
    """
    from ..testgen import (ArchSuiteGenerator, TortureConfig,
                           TortureGenerator, UnitSuiteGenerator)

    decoder = Decoder(isa)
    programs: List[Tuple[str, object]] = []
    programs.extend(ArchSuiteGenerator(isa).generate())
    programs.extend(UnitSuiteGenerator(isa, seed=seed).generate())
    torture = TortureGenerator(isa, TortureConfig(length=120, seed=seed))
    programs.extend(torture.generate_suite(torture_programs,
                                           start_seed=seed))
    seeds = []
    for name, program in programs:
        words = words_from_program(program, isa, decoder=decoder)
        if words:
            seeds.append((name, words))
    return seeds


# ----------------------------------------------------------------------
# Worker state
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FuzzSpec:
    """Everything a worker needs to build its evaluator — picklable."""

    isa_name: str
    max_instructions: int
    backend: str = DEFAULT_BACKEND

    def build(self) -> ProgramEvaluator:
        return ProgramEvaluator(IsaConfig.from_string(self.isa_name),
                                max_instructions=self.max_instructions,
                                backend=self.backend)


def _evaluate(evaluator: ProgramEvaluator,
              inputs: List[Tuple[int, ...]]) -> List[EvalResult]:
    return [evaluator.evaluate(words) for words in inputs]


def _minimize(evaluator: ProgramEvaluator, words: Tuple[int, ...],
              signature: frozenset, instructions: int, budget: int
              ) -> Tuple[Tuple[int, ...], int, int]:
    """Greedy chunked trim preserving the exact coverage signature.

    Returns ``(words, instructions, evals)``: the shortest input found
    within ``budget`` executions, its instruction count, and the
    executions spent.  A pure function of its arguments, because the
    evaluator restores a pristine snapshot before every run.
    """
    best = list(words)
    best_insns = instructions
    evals = 0
    chunk = max(1, len(best) // 2)
    while chunk >= 1 and evals < budget:
        index = 0
        while index < len(best) and evals < budget and len(best) > 1:
            candidate = best[:index] + best[index + chunk:]
            if not candidate:
                break
            result = evaluator.evaluate(candidate)
            evals += 1
            if result.signature == signature:
                best = candidate
                best_insns = result.instructions
            else:
                index += chunk
        chunk //= 2
    return tuple(best), best_insns, evals


def _minimize_chunk(evaluator: ProgramEvaluator, item: tuple
                    ) -> Tuple[Tuple[int, ...], int, int]:
    return _minimize(evaluator, *item)


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------

@dataclass
class FuzzResult:
    """Summary of one fuzzing session."""

    seed: int
    iterations: int                  # mutant executions actually performed
    executions: int                  # total VP runs (seeds + mutants + trim)
    elapsed_seconds: float
    corpus_size: int
    coverage_elements: int
    counts_by_tag: Dict[str, int]
    insn_coverage: float
    gpr_coverage: float
    csr_coverage: float
    signatures: List[frozenset]      # corpus signatures, admission order
    triage: TriageReport
    jobs: int = 1

    @property
    def execs_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.executions / self.elapsed_seconds

    def signature_digests(self) -> List[str]:
        """Stable short digests of the corpus signatures (for parity
        checks and JSON transport — set contents hashed in sorted order)."""
        digests = []
        for signature in self.signatures:
            payload = repr(sorted(signature)).encode()
            digests.append(hashlib.sha256(payload).hexdigest()[:16])
        return digests

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "iterations": self.iterations,
            "executions": self.executions,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "execs_per_second": round(self.execs_per_second, 2),
            "jobs": self.jobs,
            "corpus_size": self.corpus_size,
            "coverage_elements": self.coverage_elements,
            "counts_by_tag": self.counts_by_tag,
            "insn_coverage": round(self.insn_coverage, 6),
            "gpr_coverage": round(self.gpr_coverage, 6),
            "csr_coverage": round(self.csr_coverage, 6),
            "corpus_signatures": self.signature_digests(),
            "triage": self.triage.to_dict(),
        }

    def summary(self) -> str:
        tags = ", ".join(f"{tag} {count}" for tag, count
                         in self.counts_by_tag.items())
        lines = [
            f"fuzz: {self.iterations} mutants / {self.executions} execs "
            f"in {self.elapsed_seconds:.2f}s "
            f"({self.execs_per_second:.0f}/s, jobs={self.jobs}, "
            f"seed={self.seed})",
            f"corpus: {self.corpus_size} inputs, "
            f"{self.coverage_elements} coverage elements ({tags})",
            f"coverage: insn {self.insn_coverage:.1%}  "
            f"gpr {self.gpr_coverage:.1%}  csr {self.csr_coverage:.1%}",
            f"findings: {len(self.triage)} distinct "
            f"{self.triage.counts() or '{}'}",
        ]
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------

class FuzzEngine:
    """One fuzzing session over one ISA configuration."""

    def __init__(self, isa: IsaConfig = RV32IMC_ZICSR,
                 config: Optional[FuzzConfig] = None,
                 telemetry=None) -> None:
        self.isa = isa
        self.config = config or FuzzConfig()
        self.telemetry = _resolve_telemetry(telemetry)
        self.metrics = self.telemetry.metrics.namespace("fuzz")
        self.feedback = FeedbackMap()
        self.corpus = Corpus(self.feedback)
        self.mutator = IsaMutator(isa,
                                  max_body_words=self.config.max_body_words)
        self.evaluator = ProgramEvaluator(
            isa, max_instructions=self.config.max_instructions,
            backend=self.config.backend)
        self.triage = TriageReport()
        self.rng = random.Random(self.config.seed)
        self.executions = 0       # every VP run (seeds, mutants, trimming)
        self.mutant_execs = 0     # mutant runs only (the iteration budget)
        self._universe = empty_report(isa)
        self._pool = None

    # -- evaluation --------------------------------------------------------

    def _evaluate_batch(self, batch: List[Tuple[int, ...]]
                        ) -> List[EvalResult]:
        """Evaluate a batch, in order; uses the pool when available.

        Executions are pure, so fan-out changes wall-clock only — results
        are reassembled into submission order before any corpus update.
        """
        self.executions += len(batch)
        if self._pool is None or len(batch) <= 1:
            return _evaluate(self.evaluator, batch)
        chunks = [(tuple(range(lo, hi)), batch[lo:hi])
                  for lo, hi in ranges(len(batch), self._jobs * 2)]
        parts = self._pool.map(_evaluate, chunks)
        return merge((index, result) for indices, results, _, _ in parts
                     for index, result in zip(indices, results))

    def _start_workers(self) -> None:
        self._jobs = resolve_jobs(self.config.jobs)
        if self._jobs > 1:
            self._pool = Workers(self._jobs, FuzzSpec(
                isa_name=self.isa.name,
                max_instructions=self.config.max_instructions,
                backend=self.config.backend))

    def _stop_workers(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    # -- batch fold --------------------------------------------------------

    def _fold(self, batch: List[Tuple[int, ...]], results: List[EvalResult],
              names: Optional[Sequence[str]] = None) -> None:
        """Fold one evaluated batch into feedback, triage and the corpus.

        ``names`` marks the seed round: seeds are named and do not count
        against the iteration budget.  Three steps, so the batch's
        minimizations can run side by side: (1) in order, observe and
        triage each result, and build a corpus entry for each input with
        new coverage, noting the coverage size at that moment; (2)
        minimize the entries' words (:meth:`_minimize_all`); (3) in
        order, admit the entries.  The result
        equals an item-by-item fold: ``observe`` reads only
        ``feedback.seen``, ``corpus.add`` writes only the entries and
        ``feedback.corpus_freq``, and each minimization is a pure
        function of its input.
        """
        admitted = []  # (entry, coverage size at its admission)
        for index, (words, result) in enumerate(zip(batch, results)):
            if names is None:
                self.mutant_execs += 1
            new = self.feedback.observe(result.signature)
            if result.outcome in FINDING_OUTCOMES \
                    and result.outcome != OUTCOME_DIVERGENCE:
                if self.triage.record(words, result, self.mutant_execs):
                    self.metrics.counter(f"findings.{result.outcome}").inc()
            if new:
                entry = CorpusEntry(
                    words=words, signature=result.signature,
                    new_elements=new, instructions=result.instructions,
                    found_at=self.mutant_execs,
                    name=names[index] if names else "")
                admitted.append((entry, len(self.feedback)))
        trim = [entry for entry, _ in admitted
                if self.config.minimize and len(entry.words) > 1]
        for entry, (words, instructions, evals) in zip(
                trim, self._minimize_all(trim)):
            entry.words, entry.instructions = words, instructions
            self.executions += evals
        for entry, coverage in admitted:
            if not self.corpus.add(entry):
                continue
            self.metrics.counter("corpus_adds").inc()
            if self.config.lockstep:
                detail = self.evaluator.check_divergence(entry.words)
                if detail is not None:
                    if self.triage.record_divergence(
                            entry.words, detail, entry.instructions,
                            entry.found_at):
                        self.metrics.counter("findings.divergence").inc()
            if self.telemetry.enabled:
                self.telemetry.events.emit(
                    "fuzz.coverage",
                    execs=entry.found_at,
                    corpus_size=len(self.corpus),
                    coverage_elements=coverage,
                    new_elements=len(entry.new_elements),
                    input_words=len(entry.words),
                )

    def _minimize_all(self, entries: List[CorpusEntry]
                      ) -> List[Tuple[Tuple[int, ...], int, int]]:
        """:func:`_minimize` each entry, results in order: one entry per
        pool chunk, so an idle worker takes the next one, or in a loop
        here when there is no pool."""
        inputs = [(entry.words, entry.signature, entry.instructions,
                   self.config.minimize_evals) for entry in entries]
        if self._pool is None or not inputs:
            return [_minimize(self.evaluator, *item) for item in inputs]
        parts = self._pool.map(_minimize_chunk,
                               [((index,), item)
                                for index, item in enumerate(inputs)])
        return merge((index, trim) for (index,), trim, _, _ in parts)

    # -- main loop ---------------------------------------------------------

    def run(self, seeds: Optional[Sequence[Tuple[str, Tuple[int, ...]]]]
            = None,
            on_progress: Optional[Callable[[Dict], None]] = None,
            progress_interval: float = 1.0) -> FuzzResult:
        """Fuzz for ``config.iterations`` mutant executions.

        ``seeds`` is a list of ``(name, words)`` pairs (default: the
        trivial one-instruction corpus).  Returns a :class:`FuzzResult`;
        the engine object keeps the final corpus/feedback/triage state
        for inspection.
        """
        config = self.config
        seeds = list(seeds) if seeds is not None else trivial_seed(self.isa)
        if not seeds:
            raise ValueError("fuzzing needs at least one seed input")
        started = time.perf_counter()
        deadline = (started + config.time_budget
                    if config.time_budget is not None else None)
        self._start_workers()
        if self.telemetry.enabled:
            self.telemetry.events.emit(
                "fuzz.started", isa=self.isa.name, seed=config.seed,
                iterations=config.iterations, jobs=self._jobs,
                seeds=len(seeds), batch_size=config.batch_size)
        last_report = started
        try:
            # Seed round: evaluate and admit in order (dedup by signature).
            names = [name for name, _ in seeds]
            batch = [words for _, words in seeds]
            self._fold(batch, self._evaluate_batch(batch), names)
            # Mutation rounds.
            while self.mutant_execs < config.iterations:
                if deadline is not None \
                        and time.perf_counter() >= deadline:
                    break
                batch_size = min(config.batch_size,
                                 config.iterations - self.mutant_execs)
                donors = self.corpus.donor_words()
                batch = []
                for _ in range(batch_size):
                    parent = self.corpus.schedule(self.rng)
                    batch.append(self.mutator.mutate(parent.words, self.rng,
                                                     donors))
                self._fold(batch, self._evaluate_batch(batch))
                now = time.perf_counter()
                if (self.telemetry.enabled or on_progress is not None) \
                        and now - last_report >= progress_interval:
                    progress = self._progress(now - started)
                    if self.telemetry.enabled:
                        self.telemetry.events.emit("fuzz.progress",
                                                   **progress)
                    if on_progress is not None:
                        on_progress(progress)
                    last_report = now
        finally:
            self._stop_workers()
        elapsed = time.perf_counter() - started
        return self._finish(elapsed, on_progress)

    def _progress(self, elapsed: float) -> Dict:
        rate = self.executions / elapsed if elapsed > 0 else 0.0
        return {
            "execs": self.mutant_execs,
            "total": self.config.iterations,
            "corpus_size": len(self.corpus),
            "coverage_elements": len(self.feedback),
            "findings": len(self.triage),
            "execs_per_second": round(rate, 1),
        }

    def _union_report(self):
        """The union coverage report of everything the session covered."""
        union = self._universe
        union.insn_types = {value for tag, value in self.feedback.seen
                            if tag == "insn"}
        union.gprs_read = {value for tag, value in self.feedback.seen
                           if tag == "gpr"}
        union.fprs_read = {value for tag, value in self.feedback.seen
                           if tag == "fpr"}
        union.csrs_accessed = {value for tag, value in self.feedback.seen
                               if tag == "csr"}
        return union

    def _finish(self, elapsed: float,
                on_progress: Optional[Callable[[Dict], None]]) -> FuzzResult:
        union = self._union_report()
        result = FuzzResult(
            seed=self.config.seed,
            iterations=self.mutant_execs,
            executions=self.executions,
            elapsed_seconds=elapsed,
            corpus_size=len(self.corpus),
            coverage_elements=len(self.feedback),
            counts_by_tag=self.feedback.counts_by_tag(),
            insn_coverage=union.insn_coverage,
            gpr_coverage=union.gpr_coverage,
            csr_coverage=union.csr_coverage,
            signatures=self.corpus.signatures(),
            triage=self.triage,
            jobs=self._jobs,
        )
        if on_progress is not None:
            on_progress(self._progress(elapsed))
        self.metrics.counter("execs").inc(self.executions)
        self.metrics.counter("mutant_execs").inc(self.mutant_execs)
        self.metrics.gauge("corpus_size").set(result.corpus_size)
        self.metrics.gauge("coverage_elements").set(result.coverage_elements)
        self.metrics.gauge("execs_per_second").set(
            round(result.execs_per_second, 2))
        if self.telemetry.enabled:
            self.telemetry.events.emit(
                "fuzz.finished",
                executions=result.executions,
                iterations=result.iterations,
                corpus_size=result.corpus_size,
                coverage_elements=result.coverage_elements,
                findings=len(self.triage),
                elapsed_seconds=round(elapsed, 3),
                execs_per_second=round(result.execs_per_second, 2),
                jobs=self._jobs,
            )
        return result

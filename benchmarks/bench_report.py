"""Emulator performance report: MIPS, campaign throughput, QTA overhead.

Writes ``BENCH_emulator.json`` (repo root by default) with the headline
numbers the performance work is judged by:

* ``mips`` — interpreter speed on the F1 compute workload (cache on,
  no plugins), plus the speedup over the recorded pre-specialization
  baseline;
* ``emulator_compiled`` — the same F1 workload under each execution
  backend (``interp`` / ``compiled``) with the compiled tier's speedup
  over the interpreter; RunResult parity across backends is
  asserted first, and the report fails loudly if the compiled backend
  silently fell back to the interpreter tier;
* ``emulator_memory`` — the F5 memory-heavy workload (a multi-block
  load/store loop) under each backend, with per-backend RAM fast-path
  hit rates, the compiled tier's trace-compilation counters, and its
  speedup over the recorded pre-fast-path compiled-tier baseline;
  RunResult *and* dirty-page parity across backends is asserted first;
* ``campaign`` — fault-campaign throughput (mutants/s) sequential and
  with a worker pool, plus the parallel speedup;
* ``campaign_checkpoint`` — throughput of a transient-heavy campaign
  (the F2 workload) with and without the warm-checkpoint engine, plus
  ``campaign_checkpoint_speedup`` — classification is asserted
  byte-identical before the speedup is recorded;
* ``fuzz_campaign`` — coverage-guided fuzzing throughput (execs/s) plus
  the coverage the session reached from the trivial seed, sequential and
  with a worker pool — corpus signatures are asserted identical before
  the parallel number is recorded;
* ``cluster_scaling`` — cluster-fabric throughput (jobs/s) with one vs
  two ``repro node`` worker subprocesses attached to an in-process
  coordinator — per-job results are asserted identical across the two
  cluster shapes before the scaling factor is recorded (``null`` plus a
  note on single-CPU hosts, where no scaling is observable);
* ``differential_matrix`` — differential-verification throughput
  (programs/sec per configuration pair) over a seeded torture corpus,
  with per-pair escalation counts that must all be zero — the report
  fails loudly if any configuration pair disagrees on this host;
* ``qta_overhead_factor`` — slowdown when the QTA timing plugin rides
  along, which must stay a small bounded factor;
* ``telemetry_overhead`` — cost of disabled telemetry and of the idle
  (default, exec-count-harvesting) profiler on the F1 hot path, each
  asserted under 2% so observability never silently regresses the
  interpreter speed work.

Usage::

    python benchmarks/bench_report.py            # full report
    python benchmarks/bench_report.py --smoke    # fast subset (CI)
    make bench-report

Numbers are machine-dependent; the JSON carries the host's cpu count so
parallel results can be read in context (a 1-core container shows no
pool speedup by construction).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import pathlib
import platform
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.asm import assemble  # noqa: E402
from repro.coverage import measure_coverage  # noqa: E402
from repro.faultsim import FaultCampaign, MutantBudget, generate_mutants  # noqa: E402
from repro.isa import RV32IMC_ZICSR  # noqa: E402
from repro.vp import BACKEND_NAMES, Machine, MachineConfig  # noqa: E402

#: Interpreter speed on this workload before the hot-path specialization
#: work (fused op tuples, fast-path step selection, block chaining),
#: measured on the reference container.  Machine-dependent — the recorded
#: speedup is only meaningful relative to the same host, but the factor
#: transfers roughly across similar CPUs.
BASELINE_INSNS_PER_SECOND = 1_047_855

# The F1 compute loop (~200k dynamic instructions per run).
WORKLOAD = """
_start:
    li t0, 0
    li t1, {iters}
    li a0, 0
loop:
    add a0, a0, t0
    xor a1, a0, t0
    srli a2, a1, 3
    and a3, a2, t0
    or a0, a0, a3
    slli a0, a0, 1
    srli a0, a0, 1
    addi t0, t0, 1
    blt t0, t1, loop
    li a0, 0
    li a7, 93
    ecall
"""

#: Compiled-tier speed on the F5 memory workload before the RAM fast
#: path and trace compilation landed (per-access bus dispatch, one
#: compiled function per block), measured on the reference container.
#: Machine-dependent, like :data:`BASELINE_INSNS_PER_SECOND`.
F5_COMPILED_BASELINE_INSNS_PER_SECOND = 1_902_000

# The F5 memory-heavy workload: a load/store loop long enough to split
# into multiple translation blocks, so the compiled tier must form a
# cross-block trace to cover it, and dense enough in RAM traffic that
# the fast-path window dominates the profile.
_MEMORY_BODY = "\n".join(
    f"    lw t2, {(k % 8) * 4}(s0)\n"
    "    add a0, a0, t2\n"
    "    xor t2, t2, t0\n"
    f"    sw t2, {(k % 8) * 4}(s0)"
    for k in range(10))

MEMORY_WORKLOAD = """
_start:
    la s0, scratch
    li t0, 0
    li t1, {iters}
    li a0, 0
loop:
""" + _MEMORY_BODY + """
    addi t0, t0, 1
    blt t0, t1, loop
    li a0, 0
    li a7, 93
    ecall
.data
scratch: .word 0, 0, 0, 0, 0, 0, 0, 0
"""

CAMPAIGN_PROGRAM = """
_start:
    li a1, 6
    li a2, 7
    mul a0, a1, a2
    la t0, scratch
    sw a0, 0(t0)
    lw a4, 0(t0)
    li t1, 0
    li t2, 200
loop:
    addi t1, t1, 1
    blt t1, t2, loop
    li a3, 42
    beq a4, a3, good
    li a0, 1
    j out
good:
    li a0, 0
out:
    li a7, 93
    ecall
.data
scratch: .word 0
"""

# The F2 transient-heavy workload: a long arithmetic loop whose golden
# run is large enough that run-to-trigger prefixes dominate mutant cost
# — exactly what warm checkpoints amortize.
CHECKPOINT_PROGRAM = """
_start:
    li a0, 0
    li s0, 0
    li s1, {iters}
outer:
    addi t0, s0, 17
    xor t1, t0, a0
    slli t2, t1, 2
    srli t3, t2, 1
    add a0, a0, t3
    andi a0, a0, 2047
    addi s0, s0, 1
    blt s0, s1, outer
    andi a0, a0, 0xFF
    li a7, 93
    ecall
"""


def measure_mips(iters: int, repeats: int):
    """Best-of-N interpreter speed (cache on, no plugins)."""
    program = assemble(WORKLOAD.format(iters=iters), isa=RV32IMC_ZICSR)
    best = 0.0
    insns = 0
    for _ in range(repeats):
        machine = Machine(MachineConfig(isa=RV32IMC_ZICSR))
        machine.load(program)
        start = time.perf_counter()
        result = machine.run(max_instructions=50_000_000)
        elapsed = time.perf_counter() - start
        assert result.stop_reason == "exit", result.stop_reason
        insns = result.instructions
        best = max(best, result.instructions / elapsed)
    return best, insns


def measure_backend_mips(iters: int, repeats: int):
    """Per-backend speed on F1: interp vs compiled.

    Both runs must produce the same RunResult (stop reason, exit
    code, instruction and cycle counts) — parity is asserted before any
    throughput is recorded.  The compiled run additionally must show the
    JIT actually engaged (blocks compiled, instructions retired in the
    compiled tier); a silent fall-back to the interpreter would otherwise
    masquerade as a JIT measurement.
    """
    program = assemble(WORKLOAD.format(iters=iters), isa=RV32IMC_ZICSR)
    entries = {}
    outcomes = {}
    for backend in BACKEND_NAMES:
        best = 0.0
        stats = None
        for _ in range(repeats):
            machine = Machine(MachineConfig(isa=RV32IMC_ZICSR,
                                            backend=backend))
            machine.load(program)
            start = time.perf_counter()
            result = machine.run(max_instructions=50_000_000)
            elapsed = time.perf_counter() - start
            assert result.stop_reason == "exit", result.stop_reason
            best = max(best, result.instructions / elapsed)
            stats = machine.jit_stats()
            outcomes[backend] = (result.stop_reason, result.exit_code,
                                 result.instructions, result.cycles)
        entries[backend] = {"mips": round(best / 1e6, 3),
                            "insns_per_second": round(best, 0)}
        if backend == "compiled":
            if not stats or stats["blocks_compiled"] == 0 \
                    or stats["compiled_instructions"] == 0:
                raise RuntimeError(
                    "compiled backend silently fell back to the "
                    f"interpreter tier on F1 (stats: {stats})")
            entries[backend]["jit"] = stats
    if len(set(outcomes.values())) != 1:
        raise RuntimeError(f"backend results diverged on F1: {outcomes}")
    entries["compiled_speedup_vs_interp"] = round(
        entries["compiled"]["insns_per_second"]
        / entries["interp"]["insns_per_second"], 3)
    return entries


def measure_memory_mips(iters: int, repeats: int):
    """Per-backend speed on F5: the memory fast path + trace tier.

    Beyond the F1-style RunResult parity, the dirty-page sets must match
    across backends (the fast path updates them inline) and the compiled
    run must show both optimizations actually engaged: at least one
    multi-block trace compiled with instructions retired in it, and a
    non-zero RAM fast-path hit rate on every backend.
    """
    program = assemble(MEMORY_WORKLOAD.format(iters=iters),
                       isa=RV32IMC_ZICSR)
    entries = {}
    outcomes = {}
    for backend in BACKEND_NAMES:
        best = 0.0
        jit = mem = None
        for _ in range(repeats):
            machine = Machine(MachineConfig(isa=RV32IMC_ZICSR,
                                            backend=backend))
            machine.load(program)
            start = time.perf_counter()
            result = machine.run(max_instructions=50_000_000)
            elapsed = time.perf_counter() - start
            assert result.stop_reason == "exit", result.stop_reason
            best = max(best, result.instructions / elapsed)
            jit = machine.jit_stats()
            mem = machine.mem_stats()
            outcomes[backend] = (result.stop_reason, result.exit_code,
                                 result.instructions, result.cycles,
                                 tuple(sorted(machine.ram.dirty_pages())))
        if mem["fastpath_hit_rate"] <= 0:
            raise RuntimeError(
                f"RAM fast path never engaged under {backend} on F5 "
                f"(mem: {mem})")
        entries[backend] = {"mips": round(best / 1e6, 3),
                            "insns_per_second": round(best, 0),
                            "mem": mem}
        if backend == "compiled":
            if not jit or jit["traces_compiled"] == 0 \
                    or jit["trace_instructions"] == 0:
                raise RuntimeError(
                    "compiled backend never reached the trace tier on F5 "
                    f"(stats: {jit})")
            entries[backend]["jit"] = jit
    if len(set(outcomes.values())) != 1:
        raise RuntimeError(f"backend results diverged on F5: {outcomes}")
    compiled_rate = entries["compiled"]["insns_per_second"]
    entries["compiled_speedup_vs_interp"] = round(
        compiled_rate / entries["interp"]["insns_per_second"], 3)
    entries["compiled_baseline_insns_per_second"] = \
        F5_COMPILED_BASELINE_INSNS_PER_SECOND
    entries["compiled_speedup_vs_baseline"] = round(
        compiled_rate / F5_COMPILED_BASELINE_INSNS_PER_SECOND, 3)
    return entries


def measure_qta_overhead(iters: int):
    """Slowdown factor of the QTA timing plugin on the same workload."""
    from repro.wcet import QtaPlugin, preprocess, run_ait_analysis

    program = assemble(WORKLOAD.format(iters=iters), isa=RV32IMC_ZICSR)

    def run(with_qta: bool) -> float:
        machine = Machine(MachineConfig(isa=RV32IMC_ZICSR))
        machine.load(program)
        if with_qta:
            report = run_ait_analysis(program)
            machine.add_plugin(QtaPlugin(preprocess(report), strict=False))
        start = time.perf_counter()
        result = machine.run(max_instructions=50_000_000)
        elapsed = time.perf_counter() - start
        assert result.stop_reason == "exit", result.stop_reason
        return result.instructions / elapsed

    plain = run(with_qta=False)
    with_plugin = run(with_qta=True)
    return plain / with_plugin


#: Observability on the F1 hot path must cost less than this fraction.
TELEMETRY_OVERHEAD_LIMIT = 0.02


def measure_telemetry_overhead(iters: int, repeats: int):
    """Overhead of observability riding along on the F1 workload.

    Three configurations — no instrumentation, telemetry attached but
    disabled (the null session), and the default profiler (which
    harvests ``TranslationBlock.exec_count`` instead of hooking block
    execution) — measured interleaved, best-of-N each, so drift on the
    host biases no single configuration.  Both instrumented overheads
    are asserted under :data:`TELEMETRY_OVERHEAD_LIMIT`.

    ``iters`` is floored so each run takes long enough that the one-off
    attach cost (plugin registration flushes the block cache) cannot
    masquerade as per-instruction overhead.
    """
    from repro.observe import SamplingProfiler
    from repro.telemetry import NULL_TELEMETRY

    iters = max(iters, 20_000)
    program = assemble(WORKLOAD.format(iters=iters), isa=RV32IMC_ZICSR)

    instructions = 0

    def one(setup) -> float:
        nonlocal instructions
        machine = Machine(MachineConfig(isa=RV32IMC_ZICSR))
        machine.load(program)
        setup(machine)
        start = time.perf_counter()
        result = machine.run(max_instructions=50_000_000)
        elapsed = time.perf_counter() - start
        assert result.stop_reason == "exit", result.stop_reason
        instructions = result.instructions
        return elapsed

    configs = {
        "plain": lambda machine: None,
        "telemetry_disabled":
            lambda machine: setattr(machine, "telemetry", NULL_TELEMETRY),
        "idle_profiler":
            lambda machine: machine.add_plugin(SamplingProfiler()),
    }
    best = {name: float("inf") for name in configs}
    for _ in range(max(5, repeats)):
        for name, setup in configs.items():
            best[name] = min(best[name], one(setup))
    overheads = {name: best[name] / best["plain"] - 1.0
                 for name in configs if name != "plain"}
    for name, overhead in overheads.items():
        assert overhead < TELEMETRY_OVERHEAD_LIMIT, (
            f"{name} costs {overhead:.2%} on the F1 hot path "
            f"(limit {TELEMETRY_OVERHEAD_LIMIT:.0%})")
    return {
        "limit": TELEMETRY_OVERHEAD_LIMIT,
        "telemetry_disabled_overhead": round(
            overheads["telemetry_disabled"], 4),
        "idle_profiler_overhead": round(
            overheads["idle_profiler"], 4),
        "plain_mips": round(instructions / best["plain"] / 1e6, 3),
    }


def campaign_faults(campaign: FaultCampaign, mutants: int):
    golden = campaign.golden()
    coverage = measure_coverage(campaign.program, isa=RV32IMC_ZICSR)
    per = max(1, mutants // 5)
    budget = MutantBudget(code=per, gpr_transient=per, gpr_stuck=per,
                          memory_transient=per, memory_stuck=per)
    return generate_mutants(campaign.program, coverage, budget,
                            golden_instructions=golden.instructions,
                            seed=0)


def measure_campaign(mutants: int, jobs: int):
    """Sequential vs pooled campaign throughput over the same mutants."""
    program = assemble(CAMPAIGN_PROGRAM, isa=RV32IMC_ZICSR)

    def run(n_jobs: int):
        campaign = FaultCampaign(program, isa=RV32IMC_ZICSR)
        faults = campaign_faults(campaign, mutants)
        start = time.perf_counter()
        result = campaign.run(faults, jobs=n_jobs)
        elapsed = time.perf_counter() - start
        return result, elapsed

    sequential, seq_elapsed = run(1)
    if multiprocessing.cpu_count() == 1:
        # A 1-core host cannot show a pool speedup by construction;
        # recording a sub-1.0 "speedup" would just be misleading.
        return {
            "mutants": sequential.total,
            "sequential_mutants_per_second": round(
                sequential.total / seq_elapsed, 2),
            "parallel_jobs": jobs,
            "parallel_mutants_per_second": None,
            "parallel_speedup": None,
            "note": "single-CPU host: pool measurement skipped "
                    "(no parallel speedup is observable by construction)",
            "outcome_counts": sequential.counts,
        }
    parallel, par_elapsed = run(jobs)
    assert [r.outcome for r in parallel.results] == \
        [r.outcome for r in sequential.results], \
        "parallel campaign diverged from sequential classification"
    return {
        "mutants": sequential.total,
        "sequential_mutants_per_second": round(
            sequential.total / seq_elapsed, 2),
        "parallel_jobs": jobs,
        "parallel_mutants_per_second": round(
            parallel.total / par_elapsed, 2),
        "parallel_speedup": round(seq_elapsed / par_elapsed, 3),
        "outcome_counts": sequential.counts,
    }


def measure_checkpoint_campaign(mutants: int, iters: int):
    """Transient-heavy campaign with vs without the checkpoint engine.

    Both runs classify the same mutants; their results (with wall time
    zeroed) must serialize byte-identically before the speedup counts.
    """
    program = assemble(CHECKPOINT_PROGRAM.format(iters=iters),
                       isa=RV32IMC_ZICSR)
    budget = MutantBudget(code=0, gpr_transient=mutants, gpr_stuck=0,
                          memory_transient=0, memory_stuck=0)

    def run(checkpoints: bool):
        campaign = FaultCampaign(program, isa=RV32IMC_ZICSR,
                                 checkpoints=checkpoints)
        golden = campaign.golden()
        faults = generate_mutants(program, budget=budget,
                                  golden_instructions=golden.instructions,
                                  seed=1)
        start = time.perf_counter()
        result = campaign.run(faults)
        elapsed = time.perf_counter() - start
        return campaign, result, elapsed

    _, baseline, base_elapsed = run(False)
    accelerated_campaign, accelerated, ckpt_elapsed = run(True)
    baseline.elapsed_seconds = 0.0
    accelerated.elapsed_seconds = 0.0
    assert accelerated.to_json() == baseline.to_json(), \
        "checkpointed campaign diverged from baseline classification"
    return {
        "mutants": baseline.total,
        "golden_instructions":
            accelerated_campaign.golden().instructions,
        "baseline_mutants_per_second": round(
            baseline.total / base_elapsed, 2),
        "checkpoint_mutants_per_second": round(
            accelerated.total / ckpt_elapsed, 2),
        "campaign_checkpoint_speedup": round(
            base_elapsed / ckpt_elapsed, 3),
        "checkpoint_stats": accelerated_campaign.checkpoint_stats(),
        "outcome_counts": baseline.counts,
    }


def measure_fuzz_campaign(iterations: int, jobs: int):
    """Fuzzing throughput and coverage growth, sequential vs pooled.

    The parallel run must reproduce the sequential corpus exactly (same
    master seed ⇒ same signatures, by design) — asserted before its
    throughput is recorded.
    """
    from repro.fuzz import FuzzConfig, FuzzEngine, trivial_seed

    def run(n_jobs: int):
        engine = FuzzEngine(RV32IMC_ZICSR, FuzzConfig(
            iterations=iterations, seed=0, jobs=n_jobs, minimize_evals=8))
        result = engine.run(trivial_seed(RV32IMC_ZICSR))
        return result

    sequential = run(1)
    seed_elements = len(next(iter(sequential.signatures)))
    entry = {
        "iterations": sequential.iterations,
        "executions": sequential.executions,
        "sequential_execs_per_second": round(
            sequential.execs_per_second, 2),
        "corpus_size": sequential.corpus_size,
        "coverage_elements": sequential.coverage_elements,
        "seed_coverage_elements": seed_elements,
        "insn_coverage": round(sequential.insn_coverage, 4),
        "distinct_findings": len(sequential.triage),
        "parallel_jobs": jobs,
        "parallel_execs_per_second": None,
        "parallel_speedup": None,
    }
    if multiprocessing.cpu_count() == 1:
        entry["note"] = ("single-CPU host: pool measurement skipped "
                         "(no parallel speedup is observable by "
                         "construction)")
        return entry
    parallel = run(jobs)
    assert parallel.signature_digests() == sequential.signature_digests(), \
        "parallel fuzzing diverged from the sequential corpus"
    entry["parallel_execs_per_second"] = round(
        parallel.execs_per_second, 2)
    entry["parallel_speedup"] = round(
        sequential.elapsed_seconds / parallel.elapsed_seconds, 3)
    return entry


def measure_cluster_scaling(job_count: int, mutants: int):
    """Cluster jobs/sec with 1 vs 2 worker-node subprocesses.

    Worker nodes are real ``repro node`` subprocesses (each with its own
    interpreter, so the scaling is not GIL-bound) attached to an
    in-process coordinator.  Every job is the same seeded campaign, and
    the per-job results from both cluster shapes must match exactly
    before the scaling factor is recorded — the fabric's determinism
    contract, re-checked where throughput is measured.
    """
    import os
    import subprocess

    from repro.cluster import ClusterCoordinator
    from repro.serve.client import ServiceClient

    payload = {"source": CAMPAIGN_PROGRAM, "mutants": mutants, "seed": 3}
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")

    def canon(result):
        view = json.loads(json.dumps(result))
        view.pop("elapsed_seconds", None)
        if isinstance(view.get("campaign"), dict):
            view["campaign"].pop("elapsed_seconds", None)
        return json.dumps(view, sort_keys=True)

    def run(node_count: int):
        coord = ClusterCoordinator(port=0).start()
        nodes = []
        try:
            env = dict(os.environ)
            env["PYTHONPATH"] = src + (
                os.pathsep + env["PYTHONPATH"]
                if env.get("PYTHONPATH") else "")
            nodes = [subprocess.Popen(
                [sys.executable, "-m", "repro", "node",
                 "--coordinator", coord.url,
                 "--name", f"bench-{i}", "--poll-interval", "0.02"],
                env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL) for i in range(node_count)]
            deadline = time.monotonic() + 120
            while len(coord.nodes) < node_count:
                assert time.monotonic() < deadline, \
                    "bench worker nodes never attached"
                time.sleep(0.05)
            client = ServiceClient(coord.url, timeout=10)
            start = time.perf_counter()
            submitted = [client.submit("fault_campaign", dict(payload))
                         for _ in range(job_count)]
            results = [client.wait(job["id"], timeout=600)
                       for job in submitted]
            elapsed = time.perf_counter() - start
            for done in results:
                assert done["state"] == "succeeded", done.get("error")
            return [canon(done["result"]) for done in results], elapsed
        finally:
            for proc in nodes:
                if proc.poll() is None:
                    proc.terminate()
            for proc in nodes:
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
            coord.shutdown(drain=False)

    one_results, one_elapsed = run(1)
    entry = {
        "jobs": job_count,
        "mutants_per_job": mutants,
        "one_node_jobs_per_second": round(job_count / one_elapsed, 3),
        "two_node_jobs_per_second": None,
        "scaling": None,
    }
    if multiprocessing.cpu_count() == 1:
        entry["note"] = ("single-CPU host: two-node measurement skipped "
                         "(no scaling is observable by construction)")
        return entry
    two_results, two_elapsed = run(2)
    assert two_results == one_results, \
        "two-node cluster diverged from the one-node results"
    entry["two_node_jobs_per_second"] = round(job_count / two_elapsed, 3)
    entry["scaling"] = round(one_elapsed / two_elapsed, 3)
    return entry


def measure_differential_matrix(programs: int, smoke: bool):
    """Differential-verification throughput: programs/sec per pair.

    Runs one seeded campaign per matrix pair over a torture corpus and
    records comparison throughput plus the escalation count — which must
    be zero: a bench host measuring a diverging emulator is reporting
    the speed of broken code, so any divergence fails the report loudly.
    """
    from repro.verify import DiffCampaign, VerifyCampaignConfig

    pair_specs = ["interp:compiled", "interp:nocache"]
    if not smoke:
        pair_specs += ["compiled:compiled+traces", "interp:ckpt-resume"]
    corpus = f"torture:{programs}"
    entry = {"corpus": corpus, "programs": programs, "pairs": {}}
    total_escalations = 0
    for spec in pair_specs:
        campaign = DiffCampaign(RV32IMC_ZICSR, VerifyCampaignConfig(
            corpus=corpus, matrix=spec, seed=0))
        result = campaign.run()
        total_escalations += result.divergences
        entry["pairs"][spec] = {
            "programs_per_second": round(
                programs / result.elapsed_seconds, 2)
            if result.elapsed_seconds else None,
            "escalations": result.divergences,
        }
    entry["total_escalations"] = total_escalations
    if total_escalations:
        raise RuntimeError(
            f"differential matrix found {total_escalations} divergence(s) "
            f"on this host: {entry}")
    return entry


def build_report(smoke: bool) -> dict:
    iters = 2_000 if smoke else 20_000
    repeats = 1 if smoke else 3
    mutants = 30 if smoke else 200
    jobs = 2 if smoke else 4

    rate, insns = measure_mips(iters, repeats)
    report = {
        "workload": "f1-compute-loop",
        "mode": "smoke" if smoke else "full",
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": multiprocessing.cpu_count(),
        },
        "emulator": {
            "instructions": insns,
            "insns_per_second": round(rate, 0),
            "mips": round(rate / 1e6, 3),
            "baseline_insns_per_second": BASELINE_INSNS_PER_SECOND,
            "speedup_vs_baseline": round(rate / BASELINE_INSNS_PER_SECOND, 3),
        },
        "emulator_compiled": measure_backend_mips(iters, repeats),
        "emulator_memory": measure_memory_mips(
            500 if smoke else 5_000, repeats),
        "qta_overhead_factor": round(measure_qta_overhead(iters), 3),
        "telemetry_overhead": measure_telemetry_overhead(
            iters, repeats=3 if smoke else 6),
        "campaign": measure_campaign(mutants, jobs),
        "campaign_checkpoint": measure_checkpoint_campaign(
            mutants=20 if smoke else 60,
            iters=800 if smoke else 4_000),
        "fuzz_campaign": measure_fuzz_campaign(
            iterations=300 if smoke else 3_000, jobs=jobs),
        "cluster_scaling": measure_cluster_scaling(
            job_count=4 if smoke else 8,
            mutants=6 if smoke else 20),
        "differential_matrix": measure_differential_matrix(
            programs=6 if smoke else 30, smoke=smoke),
    }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="emulator + campaign performance report")
    parser.add_argument("--smoke", action="store_true",
                        help="fast subset (smaller workload, fewer mutants)")
    parser.add_argument(
        "--out",
        default=str(pathlib.Path(__file__).resolve().parent.parent
                    / "BENCH_emulator.json"),
        help="output path (default: repo-root BENCH_emulator.json)")
    args = parser.parse_args(argv)

    report = build_report(smoke=args.smoke)
    text = json.dumps(report, indent=2, sort_keys=True)
    pathlib.Path(args.out).write_text(text + "\n")
    print(text)
    print(f"\nwritten: {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Workload ``campaigns``: three library campaigns in sequence, pooled.

One round runs a checkpointed ``FaultCampaign``, a ``FuzzEngine``
session from ``suite_seeds`` and a ``DiffCampaign`` over a torture
corpus, each with ``jobs = nproc``.  Set-up prepares :data:`INPUT_SETS`
input sets (program, mutants, fuzz seeds, torture corpus) and round
``r`` uses set ``r % INPUT_SETS`` with its own fuzz seed: a campaign's
cost depends on its inputs (how many mutants hang, which trajectory a
fuzz session takes), so each rate sums over several inputs.
"""

from __future__ import annotations

import time

from harness import (Run, check, derive_rng, derive_seed, digest, median,
                     nproc, strip_timing)
import programs

INPUT_SETS = 8
#: The pool's workers keep both CPUs busy during a call, so the host
#: speed is sampled throughout each call rather than probed around it.
PROBE_IN_HELPER = True
#: Golden-run length of the F2-shaped campaign program (loop trips).
CAMPAIGN_ITERS = 2_000
#: Coverage-guided mutants per category (code, GPR transient/stuck,
#: memory transient/stuck).
MUTANTS_PER_CATEGORY = 12
#: Stuck-at-1 faults on the loop bound register (s1) that must classify
#: as hangs (bit positions).
HANG_BITS = (20, 24)
FUZZ_ITERATIONS = 32
VERIFY_PROGRAMS = 12
VERIFY_MATRIX = "interp:compiled"


def _input_set(run: Run, index: int, jobs: int) -> dict:
    from repro.asm import assemble
    from repro.coverage import measure_coverage
    from repro.faultsim import FaultCampaign, MutantBudget, generate_mutants
    from repro.faultsim.faults import Fault, STUCK_AT_1, TARGET_GPR
    from repro.fuzz import suite_seeds
    from repro.isa import RV32IMC_ZICSR
    from repro.verify import DiffCampaign, VerifyCampaignConfig

    tracer = run.tracer
    guest = programs.campaign(derive_rng(run.seed, "campaign", index),
                              CAMPAIGN_ITERS)
    with tracer.span("assemble"):
        image = assemble(guest.source)
    campaign = FaultCampaign(image)
    start = time.perf_counter()
    with tracer.span("FaultCampaign.golden"):
        golden = campaign.golden()
    golden_s = time.perf_counter() - start
    start = time.perf_counter()
    with tracer.span("generate_mutants"):
        coverage = measure_coverage(image)
        per = MUTANTS_PER_CATEGORY
        faults = generate_mutants(
            image, coverage,
            MutantBudget(code=per, gpr_transient=per, gpr_stuck=per,
                         memory_transient=per, memory_stuck=per),
            golden_instructions=golden.instructions,
            seed=derive_seed(run.seed, "mutants", index))
    hang_index = len(faults)
    faults += [Fault(TARGET_GPR, 9, bit, STUCK_AT_1) for bit in HANG_BITS]
    mutantgen_s = time.perf_counter() - start
    seeds = suite_seeds(RV32IMC_ZICSR,
                        seed=derive_seed(run.seed, "seeds", index))
    verify = DiffCampaign(RV32IMC_ZICSR, VerifyCampaignConfig(
        corpus=f"torture:{VERIFY_PROGRAMS}", matrix=VERIFY_MATRIX,
        seed=derive_seed(run.seed, "torture", index), jobs=jobs))
    start = time.perf_counter()
    with tracer.span("DiffCampaign.corpus"):
        verify.corpus()
    corpus_s = time.perf_counter() - start
    return {"guest": guest, "campaign": campaign, "faults": faults,
            "hang_index": hang_index, "seeds": seeds, "verify": verify,
            "golden_s": golden_s, "mutantgen_s": mutantgen_s,
            "corpus_s": corpus_s}


def setup(run: Run):
    sets = [_input_set(run, index, nproc()) for index in range(INPUT_SETS)]
    return sets, {key: sum(state[key] for state in sets)
                  for key in ("golden_s", "mutantgen_s", "corpus_s")}


def _fault_round(run: Run, state: dict, jobs: int):
    faults = state["faults"]
    seconds, result = run.timed("FaultCampaign.run", state["campaign"].run,
                                faults, jobs=jobs)
    outcomes = [r.outcome for r in result.results]
    problems = []
    check(problems, sum(result.counts.values()) == len(faults),
          f"fault: outcome counts {result.counts} do not sum to "
          f"{len(faults)} mutants")
    check(problems, all(o == "hang" for o in outcomes[state["hang_index"]:]),
          "fault: a stuck loop-bound mutant was not classified as a hang")
    check(problems, result.golden.exit_code == state["guest"].exit_code,
          "fault: golden exit code differs from the program model")
    reference = state.setdefault("outcomes", outcomes)
    check(problems, outcomes == reference,
          "fault: classification differs between rounds")
    run.operation(problems)
    return seconds, result


def _fuzz_round(run: Run, state: dict, jobs: int, index: int):
    from repro.fuzz import FuzzConfig, FuzzEngine
    from repro.isa import RV32IMC_ZICSR

    config = FuzzConfig(iterations=FUZZ_ITERATIONS,
                        seed=derive_seed(run.seed, "fuzz", index), jobs=jobs)
    seconds, result = run.timed(
        "FuzzEngine.run",
        lambda: FuzzEngine(RV32IMC_ZICSR, config).run(state["seeds"]))
    problems = []
    check(problems, result.iterations == FUZZ_ITERATIONS,
          f"fuzz: {result.iterations} of {FUZZ_ITERATIONS} iterations ran")
    check(problems, result.executions >= result.iterations
          + len(state["seeds"]), "fuzz: fewer executions than inputs")
    check(problems, result.corpus_size >= 1, "fuzz: empty corpus")
    run.operation(problems)
    return seconds, result


def _verify_round(run: Run, state: dict, campaign=None):
    campaign = campaign or state["verify"]
    seconds, result = run.timed("DiffCampaign.run", campaign.run)
    problems = []
    check(problems, result.divergences == 0,
          f"verify: {result.divergences} divergence(s) on "
          f"{VERIFY_MATRIX}")
    check(problems, result.meta["programs"] == VERIFY_PROGRAMS,
          "verify: corpus size differs from the request")
    run.operation(problems)
    return seconds, result


def measure(run: Run, sets: list, seconds: float) -> dict:
    jobs = nproc()
    rounds = {"fault": [], "fuzz": [], "verify": []}
    deadline = time.perf_counter() + seconds
    index = 0
    while not index or time.perf_counter() < deadline:
        state = sets[index % len(sets)]
        with run.tracer.span("round"):
            rounds["fault"].append(_fault_round(run, state, jobs))
            rounds["fuzz"].append(_fuzz_round(run, state, jobs, index))
            rounds["verify"].append(_verify_round(run, state))
        index += 1
    return rounds


def _rate(samples, count) -> float:
    """Work per second over all rounds (the inputs differ per round)."""
    return sum(count(r) for _, r in samples) / sum(s for s, _ in samples)


#: Each campaign's work count.
WORK = {"fault": lambda r: r.total, "fuzz": lambda r: r.executions,
        "verify": lambda r: r.meta["programs"]}


def summary(rounds: dict):
    """Mutants, fuzz executions and verify programs per second, and the
    median seconds of one call of each campaign."""
    return ([_rate(rounds[kind], count) for kind, count in WORK.items()],
            [median(s for s, _ in rounds[kind]) for kind in WORK])


def parts(rounds: dict) -> dict:
    rates, _ = summary(rounds)
    return {name: (rate, "1/s") for name, rate in zip(
        ("campaign_mutants_per_s", "fuzz_execs_per_s",
         "verify_programs_per_s"), rates)}


def record(run: Run, sets: list, rounds: dict) -> None:
    run.record.update({
        "jobs": nproc(), "rounds": len(rounds["fault"]),
        "input_sets": INPUT_SETS,
        "mutants_per_set": len(sets[0]["faults"]),
        "fuzz_iterations": FUZZ_ITERATIONS,
        "verify": {"programs": VERIFY_PROGRAMS, "matrix": VERIFY_MATRIX},
        # Round 0 always runs, so its results digest the same for a seed
        # however many rounds fit in the time.
        "sim_digest": digest({
            "outcomes": sets[0]["outcomes"],
            "fuzz": rounds["fuzz"][0][1].signature_digests(),
            "verify": strip_timing(rounds["verify"][0][1].to_dict())}),
    })


def close(sets: list) -> None:
    pass


def per_layer(run: Run, rounds: dict, sets: list, phases: list) -> None:
    """Per-layer metrics; the exact counters and the inline twins use
    input set 0, which round 0 ran pooled."""
    from dataclasses import replace

    from repro.faultsim import FaultCampaign
    from repro.verify import DiffCampaign

    first = sets[0]
    for name, key in (("faultsim.golden_s", "golden_s"),
                      ("faultsim.mutantgen_s", "mutantgen_s"),
                      ("verify.corpus_s", "corpus_s")):
        run.metric(name, median(p[key] for p in phases), "s")
    run.metric("faultsim.run_s", median(s for s, _ in rounds["fault"]), "s")
    run.metric("fuzz.run_s", median(s for s, _ in rounds["fuzz"]), "s")
    run.metric("verify.run_s", median(s for s, _ in rounds["verify"]), "s")

    # Inline (jobs=1) twins of round 0's campaigns: the same-run base for
    # the pool gains, the source of the checkpoint counters, and a check
    # that pooling changes no result.
    inline = FaultCampaign(first["campaign"].program)
    with run.tracer.span("FaultCampaign.golden"):
        inline.golden()
    inline_s, _ = _fault_round(run, dict(first, campaign=inline), 1)
    ckpt = inline.checkpoint_stats()
    for key in ("restores", "early_exits", "instructions_skipped"):
        run.metric(f"faultsim.ckpt.{key}", ckpt[key], "count", exact=True)
    run.metric("faultsim.early_exit_ratio",
               ckpt["early_exits"] / len(first["faults"]), "ratio",
               exact=True)
    run.metric("pool.faultsim.gain", inline_s / rounds["fault"][0][0],
               "ratio")

    fuzz_s, fuzz0 = rounds["fuzz"][0]
    inline_fuzz_s, inline_fuzz = _fuzz_round(run, first, 1, 0)
    run.operation([] if inline_fuzz.signature_digests()
                  == fuzz0.signature_digests()
                  else ["fuzz: pooled corpus signatures differ from inline"])
    run.metric("fuzz.executions", fuzz0.executions, "count", exact=True)
    run.metric("fuzz.corpus_size", fuzz0.corpus_size, "count", exact=True)
    run.metric("fuzz.coverage_elements", fuzz0.coverage_elements, "count",
               exact=True)
    run.metric("fuzz.minimize_exec_share",
               (fuzz0.executions - fuzz0.iterations) / fuzz0.executions,
               "ratio", exact=True)
    run.metric("pool.fuzz.gain", inline_fuzz_s / fuzz_s, "ratio")

    verify_s, pooled_report = rounds["verify"][0]
    verify = first["verify"]
    inline_verify = DiffCampaign(verify.isa, replace(verify.config, jobs=1))
    with run.tracer.span("DiffCampaign.corpus"):
        inline_verify.corpus()
    inline_verify_s, inline_report = _verify_round(run, first, inline_verify)
    run.operation([] if strip_timing(inline_report.to_dict())
                  == strip_timing(pooled_report.to_dict())
                  else ["verify: pooled report differs from inline"])
    run.metric("verify.comparisons", pooled_report.meta["comparisons"],
               "count", exact=True)
    run.metric("verify.escalations",
               sum(r.divergences for _, r in rounds["verify"]), "count",
               exact=True)
    run.metric("pool.verify.gain", inline_verify_s / verify_s, "ratio")

"""Workload ``guest-loops``: back-to-back ``Machine.run`` calls.

Three seeded guest programs (compute, memory, irq) each run on a fresh
machine under the default backend and under ``compiled``; ``compute``
also runs under the default backend with the QTA plugin attached.  One
round runs all seven in a fixed order; rounds repeat until the time is
up and every speed is the median over rounds.
"""

from __future__ import annotations

import time

from harness import Run, check, derive_rng, digest, median
import programs

PROGRAMS = ("compute", "memory", "irq")
BUDGET = 50_000_000


def setup(run: Run):
    from repro.asm import assemble
    from repro.vp import Machine, MachineConfig
    from repro.wcet import preprocess, run_ait_analysis
    from repro.wcet.bounds import loop_bounds_from_source

    tracer = run.tracer
    default_backend = MachineConfig().backend
    guests, images = {}, {}
    assemble_s = load_s = 0.0
    for name in PROGRAMS:
        guest = getattr(programs, name)(derive_rng(run.seed, name))
        start = time.perf_counter()
        with tracer.span("assemble", group=name):
            images[name] = assemble(guest.source)
        assemble_s += time.perf_counter() - start
        guests[name] = guest
    report = run_ait_analysis(
        images["compute"],
        loop_bounds=loop_bounds_from_source(guests["compute"].source,
                                            images["compute"]))
    wcet_cfg = preprocess(report)
    for name in PROGRAMS:
        for backend in (default_backend, "compiled"):
            machine = Machine(MachineConfig(backend=backend))
            start = time.perf_counter()
            with tracer.span("Machine.load", group=name):
                machine.load(images[name])
            load_s += time.perf_counter() - start
            # Warm-up: one run per program and backend before timing.
            machine.run(max_instructions=BUDGET)
    state = {"default_backend": default_backend, "guests": guests,
             "images": images, "wcet_cfg": wcet_cfg}
    return state, {"assemble_s": assemble_s, "load_s": load_s}


def _one(run: Run, image, backend: str, wcet_cfg=None, group=None):
    from repro.vp import Machine, MachineConfig
    from repro.wcet import QtaPlugin

    machine = Machine(MachineConfig(backend=backend))
    tracer = run.tracer
    with tracer.span("Machine.load", group=group):
        machine.load(image)
    plugin = None
    if wcet_cfg is not None:
        plugin = machine.add_plugin(QtaPlugin(wcet_cfg))
    with tracer.span("Machine.run", group=group):
        start = time.perf_counter()
        result = machine.run(max_instructions=BUDGET)
        seconds = time.perf_counter() - start
    outcome = {
        "stop": result.stop_reason, "exit": result.exit_code,
        "instret": result.instructions, "cycles": result.cycles,
        "uart": machine.uart.output,
        "dirty": sorted(machine.ram.dirty_pages()),
    }
    extra = {"jit": machine.jit_stats(), "mem": machine.mem_stats(),
             "wcet": plugin.finalize() if plugin is not None else None}
    return seconds, outcome, extra


def measure(run: Run, state: dict, seconds: float) -> dict:
    """Rounds of the seven runs until ``seconds`` pass: per-config seconds
    and instructions per round, plus the last round's exact counters."""
    guests, images = state["guests"], state["images"]
    default_backend = state["default_backend"]
    wcet_cfg = state["wcet_cfg"]
    configs = []
    for name in PROGRAMS:
        configs.append((name, "default", default_backend, None))
        configs.append((name, "compiled", "compiled", None))
        if name == "compute":
            configs.append((name, "qta", default_backend, wcet_cfg))
    rounds = []
    counters = {}
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        timings = {}
        outcomes = {}
        with run.tracer.span("round"), run.clock.window() as window:
            for name, label, backend, cfg in configs:
                elapsed, outcome, extra = _one(
                    run, images[name], backend, cfg, group=f"{name}.{label}")
                guest = guests[name]
                problems = []
                check(problems, outcome["stop"] == "exit",
                      f"{name}/{label}: stopped with {outcome['stop']}")
                check(problems, outcome["exit"] == guest.exit_code,
                      f"{name}/{label}: exit {outcome['exit']} != "
                      f"{guest.exit_code}")
                check(problems, outcome["uart"] == guest.uart,
                      f"{name}/{label}: UART output differs from model")
                reference = outcomes.setdefault(name, outcome)
                check(problems, outcome == reference,
                      f"{name}/{label}: RunResult, UART or dirty pages "
                      "differ across backends")
                if label == "compiled":
                    jit = extra["jit"] or {}
                    check(problems, jit.get("blocks_compiled", 0) > 0,
                          f"{name}: compiled backend compiled no block")
                    if name == "memory":
                        check(problems, jit.get("traces_compiled", 0) > 0,
                              "memory: compiled backend formed no trace")
                if label == "qta":
                    check(problems, extra["wcet"] >= outcome["cycles"],
                          f"compute/qta: WCET {extra['wcet']} below "
                          f"observed cycles {outcome['cycles']}")
                run.operation(problems)
                timings[(name, label)] = (elapsed, outcome["instret"])
                counters[(name, label)] = (outcome, extra)
        rounds.append({key: (host_s * window.factor, instret)
                       for key, (host_s, instret) in timings.items()})
    return {"timings": rounds, "counters": counters}


def _rates(rounds, label: str, names=PROGRAMS):
    """Per-round MIPS over ``names`` under ``label``."""
    rates = []
    for timings in rounds:
        insns = sum(timings[(name, label)][1] for name in names)
        secs = sum(timings[(name, label)][0] for name in names)
        rates.append(insns / secs / 1e6)
    return rates


#: The parts of the workload: a label and the programs it runs.
PARTS = (("default", PROGRAMS), ("compiled", PROGRAMS), ("qta", ("compute",)))


def summary(rounds: dict):
    """Each part's MIPS, and the median seconds of each of the seven
    ``Machine.run`` calls of a round."""
    timings = rounds["timings"]
    rates = [median(_rates(timings, label, names)) for label, names in PARTS]
    waits = [median(t[key][0] for t in timings) for key in timings[0]]
    return rates, waits


def parts(rounds: dict) -> dict:
    rates, _ = summary(rounds)
    return {name: (rate, "MIPS") for name, rate
            in zip(("run_mips", "run_mips_compiled", "qta_mips"), rates)}


def record(run: Run, state: dict, rounds: dict) -> None:
    run.record.update({
        "default_backend": state["default_backend"],
        "rounds": len(rounds["timings"]),
        "sim_digest": digest({f"{n}.{l}": v for (n, l), v
                              in sorted(rounds["counters"].items())}),
    })


def close(state: dict) -> None:
    pass


def per_layer(run: Run, rounds: dict, state: dict, phases: list) -> None:
    timings, counters = rounds["timings"], rounds["counters"]
    for name in PROGRAMS:
        for label in ("default", "compiled"):
            run.metric(f"vp.{name}.{label}.mips",
                       median(_rates(timings, label, (name,))), "MIPS")
        mem = counters[(name, "default")][1]["mem"]
        run.metric(f"vp.{name}.mem.fastpath_hit_rate",
                   mem["fastpath_hit_rate"], "ratio", exact=True)
    run.metric("wcet.qta.overhead",
               median(_rates(timings, "default", ("compute",)))
               / median(_rates(timings, "qta", ("compute",))), "ratio")
    run.metric("asm.assemble_s", median(p["assemble_s"] for p in phases),
               "s")
    run.metric("vp.load_s", median(p["load_s"] for p in phases), "s")
    totals = dict.fromkeys(("blocks_compiled", "traces_compiled",
                            "trace_failures", "compile_failures"), 0)
    for name in PROGRAMS:
        outcome, extra = counters[(name, "compiled")]
        jit = extra["jit"]
        instret = outcome["instret"]
        for share, key in (("compiled", "compiled_instructions"),
                           ("trace", "trace_instructions"),
                           ("interp", "interp_instructions")):
            run.metric(f"jit.{name}.{share}_insn_share",
                       jit[key] / instret, "ratio", exact=True)
        for key in totals:
            totals[key] += jit[key]
    for key, value in totals.items():
        run.metric(f"jit.{key}", value, "count", exact=True)

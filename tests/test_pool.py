"""The ordered parallel map (``repro.pool``) and the callers built on it:
range splitting, chunked map + ordered merge, spec rebuilds under
``spawn``, one ``jobs`` meaning, and the module boundary."""

import ast
import json
import multiprocessing
import pickle
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import pool
from repro.asm import assemble
from repro.faultsim import (FaultCampaign, MutantBudget, generate_mutants,
                            parallel as faultsim_parallel)
from repro.coverage import measure_coverage
from repro.fuzz import FuzzConfig, FuzzEngine, trivial_seed
from repro.fuzz.engine import FuzzSpec
from repro.isa import RV32IMC_ZICSR
from repro.serve import BatchService
from repro.verify import DiffCampaign, VerifyCampaignConfig
from repro.verify.campaign import VerifySpec

PROGRAM = """
_start:
    li a1, 6
    li a2, 7
    mul a0, a1, a2
    la t0, scratch
    sw a0, 0(t0)
    lw a4, 0(t0)
    li t1, 0
    li t2, 5
loop:
    addi t1, t1, 1
    blt t1, t2, loop
    li a0, 0
    li a7, 93
    ecall
.data
scratch: .word 0
"""

VERIFY_CONFIG = VerifyCampaignConfig(corpus="torture:4",
                                     matrix="interp:nocache",
                                     max_instructions=2000)


@dataclass(frozen=True)
class OffsetSpec:
    offset: int

    def build(self) -> int:
        return self.offset


def _offset_squares(offset, items):
    return [offset + item * item for item in items]


def _chunked(items, sizes, order):
    """``items`` cut into chunks of the given sizes, in ``order``."""
    chunks, start = [], 0
    for size in sizes:
        if start >= len(items):
            break
        stop = min(len(items), start + size)
        chunks.append((tuple(range(start, stop)), items[start:stop]))
        start = stop
    if start < len(items):
        chunks.append((tuple(range(start, len(items))), items[start:]))
    return [chunks[i] for i in order(len(chunks))]


@pytest.fixture(scope="module")
def pooled():
    with pool.Workers(2, OffsetSpec(5)) as workers:
        yield workers


@pytest.fixture(scope="module")
def fallback():
    def broken(jobs, spec=None):
        raise OSError("no processes here")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pool, "start_pool", broken)
        with pytest.warns(RuntimeWarning, match="falling back"):
            workers = pool.Workers(2, OffsetSpec(5))
    with workers:
        yield workers


class TestRanges:
    @given(st.integers(0, 500), st.integers(1, 40))
    def test_shard_bounds_contiguous_balanced_covering(self, total, count):
        bounds = [pool.shard_bounds(total, count, i) for i in range(count)]
        assert bounds[0][0] == 0 and bounds[-1][1] == total
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
        sizes = [hi - lo for lo, hi in bounds]
        assert max(sizes) - min(sizes) <= 1

    @given(st.integers(0, 500), st.integers(1, 40))
    def test_ranges_nonempty_contiguous_balanced_covering(self, total,
                                                          count):
        bounds = pool.ranges(total, count)
        assert len(bounds) == min(total, count)
        covered = [i for lo, hi in bounds for i in range(lo, hi)]
        assert covered == list(range(total))
        sizes = [hi - lo for lo, hi in bounds]
        assert all(size >= 1 for size in sizes)
        if sizes:
            assert max(sizes) - min(sizes) <= 1

    def test_bad_shard_arguments_rejected(self):
        with pytest.raises(ValueError):
            pool.shard_bounds(10, 0, 0)
        with pytest.raises(ValueError):
            pool.shard_bounds(10, 2, 2)


class TestMapAndMerge:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=60),
           st.lists(st.integers(1, 9), min_size=1, max_size=12),
           st.randoms(use_true_random=False))
    def test_equals_sequential_map(self, pooled, fallback, items, sizes,
                                   rng):
        def shuffled(n):
            order = list(range(n))
            rng.shuffle(order)
            return order

        chunks = _chunked(items, sizes, shuffled)
        expected = _offset_squares(5, items)
        for workers in (pooled, fallback):
            parts = list(workers.map(_offset_squares, chunks))
            merged = pool.merge(
                (index, value) for indices, values, _, _ in parts
                for index, value in zip(indices, values))
            assert merged == expected

    def test_fallback_runs_in_process(self, fallback):
        import os

        [(_, _, busy, pid)] = fallback.map(_offset_squares, [((0,), [3])])
        assert pid == os.getpid() and busy >= 0

    def test_daemonic_process_falls_back(self, monkeypatch):
        import os

        # A pool worker is daemonic and may not have children.
        monkeypatch.setitem(multiprocessing.current_process()._config,
                            "daemon", True)
        with pytest.warns(RuntimeWarning, match="daemonic"):
            workers = pool.Workers(2, OffsetSpec(5))
        with workers:
            [(_, squares, _, pid)] = workers.map(_offset_squares,
                                                 [((0,), [3])])
        assert squares == [14] and pid == os.getpid()

    def test_poll_runs_while_waiting(self, pooled):
        calls = []
        chunks = [((0,), [2]), ((1,), [3])]
        parts = list(pooled.map(_sleepy, chunks,
                                poll=lambda: calls.append(1)))
        assert sorted(indices for indices, _, _, _ in parts) == [(0,), (1,)]
        assert calls, "poll never ran while the pool was busy"

    def test_poll_exception_propagates(self, pooled):
        def poll():
            raise KeyError("stop")

        with pytest.raises(KeyError):
            list(pooled.map(_sleepy, [((0,), [1])], poll=poll))

    def test_worker_exception_propagates(self, pooled):
        with pytest.raises(ZeroDivisionError):
            list(pooled.map(_divide, [((0,), [1, 0])]))

    def test_merge_rejects_empty_duplicate_and_missing(self):
        with pytest.raises(ValueError, match="zero"):
            pool.merge([])
        with pytest.raises(ValueError, match="incomplete"):
            pool.merge([(0, "a"), (0, "b")])
        with pytest.raises(ValueError, match="incomplete"):
            pool.merge([(0, "a"), (2, "c")])
        with pytest.raises(ValueError, match="incomplete"):
            pool.merge([(0, "a"), (1, "b")], count=3)
        assert pool.merge([(1, "b"), (0, "a")]) == ["a", "b"]


def _sleepy(state, items):
    import time

    time.sleep(0.35)
    return items


def _divide(state, items):
    return [1 // item for item in items]


def _campaign_and_faults():
    campaign = FaultCampaign(assemble(PROGRAM, isa=RV32IMC_ZICSR),
                             isa=RV32IMC_ZICSR)
    golden = campaign.golden()
    coverage = measure_coverage(campaign.program, isa=RV32IMC_ZICSR)
    faults = generate_mutants(
        campaign.program, coverage,
        MutantBudget(code=3, gpr_transient=3, gpr_stuck=3,
                     memory_transient=3, memory_stuck=3),
        golden_instructions=golden.instructions, seed=3)
    return campaign, faults


def _outcomes(result):
    return [(r.fault, r.outcome, r.exit_code, r.instructions)
            for r in result.results]


def _canon(report):
    view = dict(report)
    view.pop("elapsed_seconds", None)
    return json.dumps(view, sort_keys=True)


class TestSpecs:
    def test_faultsim_spec_builds_from_pickle(self):
        campaign, faults = _campaign_and_faults()
        spec = faultsim_parallel._spec_for(campaign, faults)
        built = pickle.loads(pickle.dumps(spec)).build()
        assert built.golden() == campaign.golden()
        assert [built.run_one(f) for f in faults[:4]] == \
            [campaign.run_one(f) for f in faults[:4]]

    def test_fuzz_spec_builds_from_pickle(self):
        spec = FuzzSpec(isa_name=RV32IMC_ZICSR.name, max_instructions=500)
        built = pickle.loads(pickle.dumps(spec)).build()
        [(_, words)] = trivial_seed(RV32IMC_ZICSR)
        assert built.evaluate(words) == spec.build().evaluate(words)

    def test_verify_spec_builds_from_pickle(self):
        direct = DiffCampaign(RV32IMC_ZICSR, VERIFY_CONFIG)
        spec = VerifySpec(RV32IMC_ZICSR.name, VERIFY_CONFIG,
                          tuple(direct.corpus()))
        built = pickle.loads(pickle.dumps(spec)).build()
        assert built.meta() == direct.meta()
        assert built.run_range(0, 2) == direct.run_range(0, 2)


class TestSpawn:
    """Pooled runs equal inline runs when workers really start by
    ``spawn``: every spec rebuilds from its pickle in a fresh
    interpreter."""

    @pytest.fixture(autouse=True)
    def no_fork(self, monkeypatch):
        methods = [m for m in multiprocessing.get_all_start_methods()
                   if m != "fork"]
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: methods)
        started = []
        real = multiprocessing.get_context

        def spy(method=None):
            started.append(method)
            return real(method)

        monkeypatch.setattr(multiprocessing, "get_context", spy)
        yield
        assert "spawn" in started and "fork" not in started

    def test_faultsim(self):
        campaign, faults = _campaign_and_faults()
        inline = campaign.run(faults)
        pooled = FaultCampaign(campaign.program,
                               isa=RV32IMC_ZICSR).run(faults, jobs=2)
        assert _outcomes(pooled) == _outcomes(inline)

    def test_fuzz(self):
        def run(jobs):
            return FuzzEngine(RV32IMC_ZICSR, FuzzConfig(
                iterations=48, seed=9, jobs=jobs,
                max_instructions=500)).run()

        assert run(2).signature_digests() == run(1).signature_digests()

    def test_verify(self):
        inline = DiffCampaign(RV32IMC_ZICSR, VERIFY_CONFIG).run()
        pooled = DiffCampaign(RV32IMC_ZICSR, VerifyCampaignConfig(
            **{**VERIFY_CONFIG.__dict__, "jobs": 2})).run()
        assert _canon(pooled.to_dict()) == _canon(inline.to_dict())


def _negative_jobs(entry):
    from repro.cli import main

    if entry == "faultsim":
        campaign, faults = _campaign_and_faults()
        return campaign.run(faults, jobs=-3)
    if entry == "fuzz":
        return FuzzEngine(RV32IMC_ZICSR, FuzzConfig(iterations=4,
                                                    jobs=-3)).run()
    if entry == "verify":
        return DiffCampaign(RV32IMC_ZICSR, VerifyCampaignConfig(
            **{**VERIFY_CONFIG.__dict__, "jobs": -3})).run()
    if entry == "serve":
        return BatchService(workers=-3)
    if entry == "cli-fuzz":
        return main(["fuzz", "--iterations", "4", "--seeds", "trivial",
                     "--jobs", "-3"])
    return main(["verify", "--corpus", "torture:1", "--matrix",
                 "interp:nocache", "--jobs", "-3"])


@pytest.mark.parametrize("entry", ["faultsim", "fuzz", "verify", "serve",
                                   "cli-fuzz", "cli-verify"])
def test_negative_jobs_is_an_error(entry, capsys):
    if entry.startswith("cli-"):
        assert _negative_jobs(entry) == 2
        assert "jobs must be >= 0" in capsys.readouterr().err
    else:
        with pytest.raises(ValueError, match="jobs must be >= 0"):
            _negative_jobs(entry)


def test_only_pool_starts_processes_or_counts_cpus():
    """``repro.pool`` alone decides how workers start and what ``jobs=0``
    means: no other module imports ``multiprocessing`` or calls
    ``os.cpu_count``."""
    root = Path(pool.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        if path == Path(pool.__file__):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Attribute) \
                    and node.attr == "cpu_count":
                names = ["cpu_count"]
            else:
                continue
            if any(name.split(".")[0] in ("multiprocessing", "cpu_count")
                   for name in names):
                offenders.append(f"{path.relative_to(root)}:{node.lineno}")
    assert offenders == []

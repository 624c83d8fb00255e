"""Fuzzing-engine tests: coverage growth, triage, telemetry, config."""

import json

import pytest

from repro.fuzz import (
    FuzzConfig,
    FuzzEngine,
    suite_seeds,
    trivial_seed,
)
from repro.isa import RV32IMC_ZICSR
from repro.telemetry import Telemetry, telemetry_session


def quick_config(**overrides):
    base = dict(iterations=150, seed=0, minimize_evals=6,
                max_instructions=1000)
    base.update(overrides)
    return FuzzConfig(**base)


class TestCoverageGrowth:
    def test_trivial_seed_strictly_grows_coverage(self):
        engine = FuzzEngine(RV32IMC_ZICSR, quick_config())
        seeds = trivial_seed(RV32IMC_ZICSR)
        result = engine.run(seeds)
        seed_elements = len(result.signatures[0])
        assert result.coverage_elements > seed_elements
        assert result.corpus_size > 1

    def test_coverage_elements_match_feedback(self):
        engine = FuzzEngine(RV32IMC_ZICSR, quick_config())
        result = engine.run()
        assert result.coverage_elements == len(engine.feedback)
        union = set()
        for signature in result.signatures:
            union |= signature
        assert union == engine.feedback.seen

    def test_found_at_is_monotone(self):
        engine = FuzzEngine(RV32IMC_ZICSR, quick_config())
        engine.run()
        found = [entry.found_at for entry in engine.corpus]
        assert found == sorted(found)


class TestSeeds:
    def test_suite_seeds_nonempty_and_named(self):
        seeds = suite_seeds(RV32IMC_ZICSR, seed=0, torture_programs=1)
        assert len(seeds) > 5
        names = [name for name, _ in seeds]
        assert any(name.startswith("torture") for name in names)
        assert all(words for _, words in seeds)

    def test_suite_seeds_deterministic(self):
        a = suite_seeds(RV32IMC_ZICSR, seed=5, torture_programs=1)
        b = suite_seeds(RV32IMC_ZICSR, seed=5, torture_programs=1)
        assert a == b

    def test_seed_corpus_deduplicated_by_signature(self):
        engine = FuzzEngine(RV32IMC_ZICSR, quick_config(iterations=0))
        seeds = trivial_seed(RV32IMC_ZICSR) * 3
        engine.run(seeds)
        assert len(engine.corpus) == 1

    def test_empty_seed_list_rejected(self):
        engine = FuzzEngine(RV32IMC_ZICSR, quick_config())
        with pytest.raises(ValueError):
            engine.run([])


class TestMinimization:
    def test_corpus_entries_keep_their_signature(self):
        engine = FuzzEngine(RV32IMC_ZICSR, quick_config())
        engine.run()
        for entry in list(engine.corpus)[:10]:
            check = engine.evaluator.evaluate(entry.words)
            assert check.signature == entry.signature

    def test_minimization_can_be_disabled(self):
        on = FuzzEngine(RV32IMC_ZICSR, quick_config(minimize=True))
        off = FuzzEngine(RV32IMC_ZICSR, quick_config(minimize=False))
        r_on = on.run()
        r_off = off.run()
        # Minimization costs extra trim executions but buys shorter
        # corpus inputs.  (Stored inputs feed later mutations, so the
        # two configurations legitimately take different trajectories —
        # reproducibility holds per configuration, tested elsewhere.)
        assert r_on.executions > r_on.iterations
        mean_on = sum(len(e.words) for e in on.corpus) / len(on.corpus)
        mean_off = sum(len(e.words) for e in off.corpus) / len(off.corpus)
        assert mean_on <= mean_off


class TestResult:
    def test_to_dict_json_round_trip(self):
        engine = FuzzEngine(RV32IMC_ZICSR, quick_config())
        result = engine.run()
        parsed = json.loads(json.dumps(result.to_dict()))
        assert parsed["iterations"] == 150
        assert parsed["corpus_size"] == result.corpus_size
        assert len(parsed["corpus_signatures"]) == result.corpus_size
        assert parsed["triage"]["classes"] == len(result.triage)

    def test_summary_mentions_key_figures(self):
        result = FuzzEngine(RV32IMC_ZICSR, quick_config()).run()
        text = result.summary()
        assert "corpus" in text and "coverage" in text
        assert "findings" in text

    def test_time_budget_stops_early(self):
        engine = FuzzEngine(RV32IMC_ZICSR, quick_config(
            iterations=10_000_000, time_budget=0.2))
        result = engine.run()
        assert result.iterations < 10_000_000


class TestTelemetry:
    def test_fuzz_events_and_metrics_emitted(self):
        with telemetry_session(Telemetry()) as session:
            engine = FuzzEngine(RV32IMC_ZICSR, quick_config())
            engine.run()
            types = {event["type"] for event in session.events.events}
            assert "fuzz.started" in types
            assert "fuzz.coverage" in types
            assert "fuzz.finished" in types
            metrics = session.metrics.to_dict()
            assert metrics["fuzz.execs"]["value"] > 0
            assert metrics["fuzz.corpus_size"]["value"] > 0


class TestLockstep:
    def test_lockstep_oracle_runs_clean(self):
        # The block cache must not change architectural behaviour, so a
        # lockstep-checked session reports no divergence findings.
        engine = FuzzEngine(RV32IMC_ZICSR, quick_config(
            iterations=60, lockstep=True))
        engine.run()
        assert engine.triage.counts().get("divergence", 0) == 0


class TestBatchFold:
    def test_pooled_minimization_runs_in_the_workers(self):
        engine = FuzzEngine(RV32IMC_ZICSR, quick_config(iterations=64,
                                                        jobs=2))
        calls = []
        evaluate = engine.evaluator.evaluate
        engine.evaluator.evaluate = \
            lambda words: calls.append(words) or evaluate(words)
        seeds = suite_seeds(RV32IMC_ZICSR, seed=3)
        result = engine.run(seeds)
        assert result.executions > result.iterations + len(seeds)
        assert calls == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_coverage_events_keep_per_admission_values(self, jobs):
        with telemetry_session(Telemetry()) as session:
            engine = FuzzEngine(RV32IMC_ZICSR, quick_config(jobs=jobs))
            engine.run(suite_seeds(RV32IMC_ZICSR, seed=1))
            events = [event for event in session.events.events
                      if event["type"] == "fuzz.coverage"]
        entries = engine.corpus.entries
        assert len(events) == len(entries) > 1
        union = set()
        for k, (event, entry) in enumerate(zip(events, entries)):
            union |= entry.signature
            assert event["execs"] == entry.found_at
            assert event["corpus_size"] == k + 1
            assert event["coverage_elements"] == len(union)

"""Campaign behavior: corpus builders, the repeat wrapper, clean runs,
and the determinism contract (pool == inline)."""

import json
import os

import pytest

from repro import pool
from repro.isa import RV32IMC_ZICSR
from repro.telemetry import Telemetry, telemetry_session
from repro.verify import (DiffCampaign, RepeatBuilder, VerifyCampaignConfig,
                          build_corpus, corpus_size_hint)
from repro.verify import campaign as campaign_module


def canon(report):
    view = json.loads(json.dumps(report))
    view.pop("elapsed_seconds", None)
    return json.dumps(view, sort_keys=True)


class TestCorpus:
    def test_torture_spec_is_seeded_and_sized(self):
        corpus = build_corpus(RV32IMC_ZICSR, "torture:3", seed=1)
        assert len(corpus) == 3
        assert corpus == build_corpus(RV32IMC_ZICSR, "torture:3", seed=1)
        assert corpus != build_corpus(RV32IMC_ZICSR, "torture:3", seed=2)

    def test_fuzz_spec_is_seeded(self):
        corpus = build_corpus(RV32IMC_ZICSR, "fuzz:4", seed=0)
        assert len(corpus) == 4
        assert corpus == build_corpus(RV32IMC_ZICSR, "fuzz:4", seed=0)

    def test_suites_spec_nonempty(self):
        assert build_corpus(RV32IMC_ZICSR, "suites", seed=0)

    def test_file_spec_round_trips(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        rows = [{"name": "p0", "words": [0x00100093]},
                {"name": "p1", "words": [0x00200113, 0x00308193]}]
        path.write_text("\n".join(json.dumps(row) for row in rows) + "\n")
        corpus = build_corpus(RV32IMC_ZICSR, f"file:{path}", seed=0)
        assert corpus == [("p0", (0x00100093,)),
                          ("p1", (0x00200113, 0x00308193))]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n")
        with pytest.raises(ValueError, match="no programs"):
            build_corpus(RV32IMC_ZICSR, f"file:{path}", seed=0)

    def test_unknown_spec_lists_the_forms(self):
        with pytest.raises(ValueError, match="torture:N"):
            build_corpus(RV32IMC_ZICSR, "bogus", seed=0)

    def test_bad_count_rejected(self):
        with pytest.raises(ValueError, match="N >= 1"):
            build_corpus(RV32IMC_ZICSR, "torture:0", seed=0)

    def test_size_hint_only_for_counted_specs(self):
        assert corpus_size_hint("torture:7") == 7
        assert corpus_size_hint("fuzz:12") == 12
        assert corpus_size_hint("suites") is None
        assert corpus_size_hint("file:/tmp/x.jsonl") is None


class TestRepeatBuilder:
    WORDS = (0x00100093, 0x00208113)  # addi x1,x0,1 ; addi x2,x1,2

    def test_wrapped_program_executes_body_repeatedly(self):
        from repro.vp import Machine, MachineConfig

        builder = RepeatBuilder(RV32IMC_ZICSR, repeats=4)
        machine = Machine(MachineConfig(isa=RV32IMC_ZICSR))
        machine.load(builder.build(self.WORDS))
        machine.run(max_instructions=1000)
        # Each iteration runs the 2-word body plus 2 loop bookkeeping
        # instructions after the 1-word preamble; x28 counts to zero.
        assert machine.cpu.regs.read(28) == 0
        assert machine.cpu.regs.read(1) == 1
        assert machine.cpu.regs.read(2) == 3

    def test_repeats_one_is_plain_build(self):
        from repro.fuzz.executor import ProgramBuilder

        plain = ProgramBuilder(RV32IMC_ZICSR).build(self.WORDS)
        wrapped = RepeatBuilder(RV32IMC_ZICSR, repeats=1).build(self.WORDS)
        assert wrapped.segments == plain.segments

    def test_loop_makes_blocks_hot_enough_to_compile(self):
        from repro.vp import Machine, MachineConfig

        builder = RepeatBuilder(RV32IMC_ZICSR, repeats=4)
        machine = Machine(MachineConfig(isa=RV32IMC_ZICSR,
                                        backend="compiled",
                                        jit_threshold=1))
        machine.load(builder.build(self.WORDS))
        machine.run(max_instructions=1000)
        assert machine.jit_stats()["blocks_compiled"] > 0


class TestCampaignRuns:
    CONFIG = VerifyCampaignConfig(corpus="torture:3", matrix="backends",
                                  max_instructions=3000)

    def test_clean_corpus_zero_divergences(self):
        result = DiffCampaign(RV32IMC_ZICSR, self.CONFIG).run()
        assert result.divergences == 0
        report = result.to_dict()
        assert report["programs"] == 3
        assert report["comparisons"] == 3     # 3 programs x 1 pair
        assert report["divergences"] == 0
        assert report["findings"] == []

    def test_meta_is_deterministic(self):
        first = DiffCampaign(RV32IMC_ZICSR, self.CONFIG).meta()
        second = DiffCampaign(RV32IMC_ZICSR, self.CONFIG).meta()
        assert first == second
        assert first["corpus_digest"]

    def test_special_axes_clean(self):
        config = VerifyCampaignConfig(
            corpus="torture:2", matrix="icache,traces,checkpoint",
            max_instructions=3000)
        result = DiffCampaign(RV32IMC_ZICSR, config).run()
        assert result.divergences == 0

    def test_pool_matches_inline(self):
        config = VerifyCampaignConfig(corpus="torture:4",
                                      matrix="interp:nocache",
                                      max_instructions=2000)
        inline = DiffCampaign(RV32IMC_ZICSR, config).run()
        pooled = DiffCampaign(
            RV32IMC_ZICSR,
            VerifyCampaignConfig(**{**config.__dict__, "jobs": 2})).run()
        assert canon(inline.to_dict()) == canon(pooled.to_dict())

    def test_pooled_workers_do_not_rebuild_the_corpus(self, monkeypatch):
        config = VerifyCampaignConfig(corpus="torture:4",
                                      matrix="interp:nocache",
                                      max_instructions=2000)
        inline = DiffCampaign(RV32IMC_ZICSR, config)
        pooled = DiffCampaign(RV32IMC_ZICSR, VerifyCampaignConfig(
            **{**config.__dict__, "jobs": 2}))
        inline.corpus()
        pooled.corpus()

        def refuse(*args):
            raise AssertionError("a worker rebuilt the corpus")

        # Forked workers inherit the patch.
        monkeypatch.setattr(campaign_module, "build_corpus", refuse)
        assert canon(pooled.run().to_dict()) == canon(inline.run().to_dict())

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_pooled_counters_match_inline(self, jobs):
        config = VerifyCampaignConfig(corpus="fuzz:6",
                                      matrix="interp:nocache",
                                      max_instructions=2000)

        def counters(run_config):
            names = ("programs", "comparisons", "divergences",
                     "escalations")
            with telemetry_session(Telemetry()) as session:
                DiffCampaign(RV32IMC_ZICSR, run_config).run()
                snapshot = session.metrics.to_dict()
            return {name: snapshot[f"verify.{name}"]["value"]
                    for name in names}

        inline = counters(config)
        assert inline["programs"] == 6 and inline["comparisons"] == 6
        assert counters(VerifyCampaignConfig(
            **{**config.__dict__, "jobs": jobs})) == inline

    def test_worker_error_propagates_without_inline_rerun(self,
                                                          monkeypatch):
        parent = os.getpid()
        inline_ranges = []

        def broken(self, lo, hi, on_progress=None):
            if os.getpid() == parent:
                inline_ranges.append((lo, hi))
            raise RuntimeError("worker failed")

        monkeypatch.setattr(DiffCampaign, "run_range", broken)
        config = VerifyCampaignConfig(corpus="torture:4",
                                      matrix="interp:nocache",
                                      max_instructions=2000, jobs=2)
        with pytest.raises(RuntimeError, match="worker failed"):
            DiffCampaign(RV32IMC_ZICSR, config).run()
        assert inline_ranges == []

    def test_pool_start_failure_warns_and_falls_back(self, monkeypatch):
        config = VerifyCampaignConfig(corpus="torture:4",
                                      matrix="interp:nocache",
                                      max_instructions=2000)
        inline = DiffCampaign(RV32IMC_ZICSR, config).run()

        def broken(jobs, spec=None):
            raise OSError("no processes here")

        monkeypatch.setattr(pool, "start_pool", broken)
        with pytest.warns(RuntimeWarning, match="falling back"):
            pooled = DiffCampaign(RV32IMC_ZICSR, VerifyCampaignConfig(
                **{**config.__dict__, "jobs": 2})).run()
        assert canon(pooled.to_dict()) == canon(inline.to_dict())

    def test_table_renders(self):
        result = DiffCampaign(RV32IMC_ZICSR, VerifyCampaignConfig(
            corpus="torture:1", matrix="cache",
            max_instructions=2000)).run()
        table = result.table()
        assert "interp~nocache" in table

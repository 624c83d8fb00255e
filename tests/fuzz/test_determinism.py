"""The reproducibility guarantees behind the single ``--seed`` flag.

One master seed pins down every random draw in the toolchain:

* ``repro gen torture --seed N`` emits a **byte-identical** program;
* ``repro fuzz --seed N`` reproduces the exact corpus trajectory,
  sequentially and with any ``--jobs`` count;
* ``default_campaign_mutants(..., seed=N)`` draws the same fault list.
"""

from repro.asm import assemble
from repro.faultsim import default_campaign_mutants
from repro.fuzz import FuzzConfig, FuzzEngine, trivial_seed
from repro.isa import RV32IMC_ZICSR
from repro.testgen import TortureConfig, TortureGenerator


class TestTortureByteIdentical:
    def test_same_seed_same_program_bytes(self):
        def image(seed):
            generator = TortureGenerator(RV32IMC_ZICSR,
                                         TortureConfig(length=150))
            program = generator.generate(seed)
            return [(base, bytes(blob)) for base, blob in program.segments]

        assert image(11) == image(11)
        assert image(11) != image(12)

    def test_cli_gen_torture_seeded(self, capsys):
        from repro.cli import main

        def emit(seed):
            assert main(["gen", "torture", "--seed", str(seed),
                         "--length", "60"]) == 0
            return capsys.readouterr().out

        assert emit(3) == emit(3)
        assert emit(3) != emit(4)


class TestCampaignMutantsSeeded:
    SOURCE = """
    _start:
        li t0, 20
        li a0, 0
    loop:
        add a0, a0, t0
        addi t0, t0, -1
        bnez t0, loop
        li a7, 93
        ecall
    """

    def test_same_seed_same_fault_list(self):
        program = assemble(self.SOURCE, isa=RV32IMC_ZICSR)

        def faults(seed):
            return [repr(fault) for fault in default_campaign_mutants(
                program, isa=RV32IMC_ZICSR, mutants=30, seed=seed,
                golden_instructions=100)]

        assert faults(5) == faults(5)
        assert faults(5) != faults(6)


class TestFuzzTrajectory:
    def _run(self, jobs=1, seed=42, iterations=200):
        engine = FuzzEngine(RV32IMC_ZICSR, FuzzConfig(
            iterations=iterations, seed=seed, jobs=jobs,
            minimize_evals=6, max_instructions=1000))
        result = engine.run(trivial_seed(RV32IMC_ZICSR))
        return result, engine

    def test_fixed_seed_reproduces_trajectory_200_iterations(self):
        first, engine_a = self._run()
        second, engine_b = self._run()
        # Same corpus, same order, same inputs — the whole trajectory.
        assert first.signature_digests() == second.signature_digests()
        assert [e.words for e in engine_a.corpus] == \
            [e.words for e in engine_b.corpus]
        assert [e.found_at for e in engine_a.corpus] == \
            [e.found_at for e in engine_b.corpus]
        assert first.executions == second.executions
        assert first.triage.to_dict() == second.triage.to_dict()

    def test_different_seed_different_trajectory(self):
        first, _ = self._run(seed=1)
        second, _ = self._run(seed=2)
        assert first.signature_digests() != second.signature_digests()

    def test_parallel_identical_to_sequential(self):
        # Bit-identical results need no parallel hardware — a 2-worker
        # pool on a 1-CPU host exercises the same code path.
        sequential, seq_engine = self._run(jobs=1)
        parallel, par_engine = self._run(jobs=2)
        assert sequential.signature_digests() == \
            parallel.signature_digests()
        assert [e.words for e in seq_engine.corpus] == \
            [e.words for e in par_engine.corpus]
        assert sequential.triage.to_dict() == parallel.triage.to_dict()
        assert sequential.executions == parallel.executions
        assert [(e.found_at, e.instructions, e.name)
                for e in seq_engine.corpus] == \
            [(e.found_at, e.instructions, e.name)
             for e in par_engine.corpus]

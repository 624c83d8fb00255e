"""Golden-state digests: capture, field-level compare, timing split."""

from repro.asm import assemble
from repro.isa import RV32IMC_ZICSR
from repro.verify import capture_state, compare_digests
from repro.vp import Machine, MachineConfig

PROGRAM = """
_start:
    li t0, 0x10000000
    li t1, 77
    sw t1, 0(t0)
    li a0, 5
    li a7, 93
    ecall
"""


def run_and_capture(backend="interp", source=PROGRAM):
    machine = Machine(MachineConfig(isa=RV32IMC_ZICSR, backend=backend))
    machine.load(assemble(source, isa=RV32IMC_ZICSR))
    result = machine.run(max_instructions=1000)
    return capture_state(machine, result, machine.ram.dirty_pages())


class TestCaptureState:
    def test_captures_run_outcome(self):
        digest = run_and_capture()
        assert digest.exit_code == 5
        assert digest.uart_tx == b"M"
        assert digest.instructions > 0
        assert digest.pages            # the load image dirtied RAM

    def test_identical_runs_identical_digests(self):
        assert run_and_capture() == run_and_capture()
        assert run_and_capture().hexdigest() == \
            run_and_capture().hexdigest()

    def test_backends_agree(self):
        assert compare_digests(run_and_capture("interp"),
                               run_and_capture("compiled")) == []


class TestCompareDigests:
    def test_equal_states_no_mismatches(self):
        assert compare_digests(run_and_capture(), run_and_capture()) == []

    def test_register_difference_names_the_register(self):
        changed = PROGRAM.replace("li a0, 5", "li a0, 6")
        mismatches = compare_digests(run_and_capture(),
                                     run_and_capture(source=changed))
        text = "; ".join(mismatches)
        assert "exit_code" in text
        assert "x10" in text          # a0 differs

    def test_uart_difference_reported(self):
        changed = PROGRAM.replace("li t1, 77", "li t1, 78")
        mismatches = compare_digests(run_and_capture(),
                                     run_and_capture(source=changed))
        assert any("uart" in entry for entry in mismatches)

    def test_timing_fields_excluded_on_request(self):
        a = run_and_capture()
        b = run_and_capture()
        # Fake a pure timing difference.
        skewed = b.__class__(**{**b.__dict__, "cycles": b.cycles + 7})
        assert compare_digests(a, skewed, include_timing=True)
        assert compare_digests(a, skewed, include_timing=False) == []

    def test_hexdigest_tracks_timing_inclusion(self):
        a = run_and_capture()
        skewed = a.__class__(**{**a.__dict__, "cycles": a.cycles + 7})
        assert a.hexdigest() != skewed.hexdigest()
        assert a.hexdigest(include_timing=False) == \
            skewed.hexdigest(include_timing=False)

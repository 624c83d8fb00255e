"""MachineSnapshot round-trip coverage across every device.

The campaign engine leans on snapshot/restore for machine reuse, and the
batch service amplifies how often that path runs — these tests pin down
that a mid-execution checkpoint captures and restores CLINT, UART, GPIO
(including ``out_history``), and the exit device exactly.
"""

from repro.asm import assemble
from repro.isa import RV32IMC_ZICSR
from repro.vp import Machine, MachineConfig

EXIT = "\n    li a7, 93\n    ecall\n"

# Touches every device before exiting: UART TX, GPIO (three distinct pin
# states), CLINT mtimecmp, and a non-terminating exit-device store.
ALL_DEVICES = """
_start:
    li t0, 0x10000000      # UART
    li t1, 65
    sw t1, 0(t0)           # print 'A'
    li t0, 0x10001000      # GPIO
    li t1, 1
    sw t1, 0(t0)
    li t1, 3
    sw t1, 0(t0)
    li t1, 2
    sw t1, 0x0C(t0)        # CLEAR bit 1 -> out = 1 again
    li t0, 0x02004000      # CLINT mtimecmp
    li t1, 1234
    sw t1, 0(t0)
    li t0, 0x00100000      # exit device: even value does not terminate
    li t1, 4
    sw t1, 0(t0)
    li a0, 0
""" + EXIT


def device_state(machine):
    return {
        "clint": (machine.clint.mtime, machine.clint.mtimecmp,
                  machine.clint.msip),
        "uart": (bytes(machine.uart.tx_log), list(machine.uart._rx_queue),
                 machine.uart.interrupt_enable),
        "gpio": (machine.gpio.out, machine.gpio.inputs,
                 list(machine.gpio.out_history)),
        "exit": machine.exit_device.value,
        "pc": machine.cpu.pc,
        "regs": machine.cpu.regs.snapshot(),
    }


class TestSnapshotRoundTrip:
    def test_mid_run_snapshot_restores_all_devices(self):
        machine = Machine(MachineConfig(isa=RV32IMC_ZICSR))
        machine.load(assemble(ALL_DEVICES, isa=RV32IMC_ZICSR))
        machine.uart.push_rx(b"xy")       # host-side RX state
        machine.gpio.set_inputs(0x5A)
        machine.run(max_instructions=14)  # stop mid-program
        snap = machine.snapshot()
        before = device_state(machine)

        machine.run(max_instructions=10_000)  # run to completion, mutate
        assert device_state(machine) != before

        machine.restore(snap)
        assert device_state(machine) == before

    def test_gpio_out_history_round_trips(self):
        machine = Machine(MachineConfig(isa=RV32IMC_ZICSR))
        machine.load(assemble(ALL_DEVICES, isa=RV32IMC_ZICSR))
        machine.run(max_instructions=10_000)
        assert machine.gpio.out_history == [1, 3, 1]
        snap = machine.snapshot()

        machine.gpio.store(0x00, 4, 7)  # grow the history past the snap
        assert machine.gpio.out_history == [1, 3, 1, 7]

        machine.restore(snap)
        assert machine.gpio.out_history == [1, 3, 1]

    def test_restore_then_rerun_is_deterministic(self):
        machine = Machine(MachineConfig(isa=RV32IMC_ZICSR))
        machine.load(assemble(ALL_DEVICES, isa=RV32IMC_ZICSR))
        snap = machine.snapshot()
        first = machine.run(max_instructions=10_000)
        first_state = device_state(machine)

        machine.restore(snap)
        second = machine.run(max_instructions=10_000)
        assert second.exit_code == first.exit_code
        assert second.instructions == first.instructions
        assert device_state(machine) == first_state

    def test_clint_timer_state_round_trips(self):
        machine = Machine(MachineConfig(isa=RV32IMC_ZICSR))
        machine.load(assemble("_start:\n    li a0, 0" + EXIT,
                              isa=RV32IMC_ZICSR))
        machine.clint.mtime = 999
        machine.clint.mtimecmp = 0x1_0000_0001
        machine.clint.msip = 1
        snap = machine.snapshot()
        machine.run(max_instructions=100)
        machine.clint.msip = 0
        machine.restore(snap)
        assert machine.clint.mtime == 999
        assert machine.clint.mtimecmp == 0x1_0000_0001
        assert machine.clint.msip == 1

    def test_uart_rx_queue_round_trips(self):
        machine = Machine(MachineConfig(isa=RV32IMC_ZICSR))
        machine.load(assemble("_start:\n    li a0, 0" + EXIT,
                              isa=RV32IMC_ZICSR))
        machine.uart.push_rx(b"queued")
        machine.uart.interrupt_enable = 1
        snap = machine.snapshot()
        machine.uart.load(0x04, 4)  # drain one RX byte
        machine.uart.interrupt_enable = 0
        machine.restore(snap)
        assert bytes(machine.uart._rx_queue) == b"queued"
        assert machine.uart.interrupt_enable == 1

    def test_exit_device_value_round_trips(self):
        machine = Machine(MachineConfig(isa=RV32IMC_ZICSR))
        machine.load(assemble("_start:\n    li a0, 0" + EXIT,
                              isa=RV32IMC_ZICSR))
        machine.exit_device.value = 4  # even: latched but not terminating
        snap = machine.snapshot()
        machine.exit_device.value = 8
        machine.restore(snap)
        assert machine.exit_device.value == 4


class TestDeltaSnapshots:
    """Dirty-page delta chains: snapshot(parent=...) stores only pages
    written since the parent, and restore walks the chain in O(dirty)."""

    def make_machine(self):
        machine = Machine(MachineConfig(isa=RV32IMC_ZICSR))
        machine.load(assemble(ALL_DEVICES, isa=RV32IMC_ZICSR))
        return machine

    def test_child_snapshot_stores_only_dirty_pages(self):
        machine = self.make_machine()
        base = machine.snapshot()
        assert base.ram is not None          # root is a full image
        machine.run(max_instructions=4)
        machine.ram.store(0x2000, 4, 0xCAFE)
        child = machine.snapshot(parent=base)
        assert child.ram is None             # delta node
        assert child.parent is base
        assert child.ram_pages is not None
        assert 0 < len(child.ram_pages) < machine.ram.page_count

    def test_page_bytes_walks_the_chain(self):
        machine = self.make_machine()
        base = machine.snapshot()
        machine.ram.store(0x2000, 4, 0x11223344)
        child = machine.snapshot(parent=base)
        page = 0x2000 // machine.ram.page_size
        assert child.page_bytes(page)[:4] == \
            (0x11223344).to_bytes(4, "little")
        # An untouched page resolves through to the root image.
        other = machine.ram.page_count - 1
        assert child.page_bytes(other) == base.page_bytes(other)

    def test_materialize_ram_equals_machine_ram(self):
        machine = self.make_machine()
        base = machine.snapshot()
        machine.ram.store(0x2000, 4, 0xAB)
        mid = machine.snapshot(parent=base)
        machine.ram.store(0x3000, 4, 0xCD)
        tip = machine.snapshot(parent=mid)
        assert tip.materialize_ram() == bytes(machine.ram.data)

    def test_delta_restore_round_trips(self):
        machine = self.make_machine()
        base = machine.snapshot()
        machine.run(max_instructions=8)
        mid_state = device_state(machine)
        mid_ram = bytes(machine.ram.data)
        mid = machine.snapshot(parent=base)
        machine.run()                        # run to exit, state diverges
        pages = machine.restore(mid)
        assert pages >= 0
        assert device_state(machine) == mid_state
        assert bytes(machine.ram.data) == mid_ram

    def test_restore_copies_only_divergent_pages(self):
        machine = self.make_machine()
        base = machine.snapshot()
        machine.ram.store(0x2000, 4, 1)
        tip = machine.snapshot(parent=base)
        machine.ram.store(0x4000, 4, 2)      # one page diverges
        pages = machine.restore(tip)
        assert pages < machine.ram.page_count   # not a full rewrite
        assert machine.ram.load(0x4000, 4) == 0
        assert machine.ram.load(0x2000, 4) == 1

    def test_foreign_snapshot_falls_back_to_full_restore(self):
        machine = self.make_machine()
        machine.ram.store(0x2000, 4, 7)
        donor = self.make_machine()
        donor.ram.store(0x3000, 4, 9)
        snap = donor.snapshot()
        machine.restore(snap)                # no shared epoch: full path
        assert bytes(machine.ram.data) == bytes(donor.ram.data)

    def test_restore_then_rerun_matches_direct_run(self):
        direct = self.make_machine()
        direct_result = direct.run()
        machine = self.make_machine()
        base = machine.snapshot()
        machine.run(max_instructions=6)
        machine.snapshot(parent=base)        # advance the epoch
        machine.restore(base)
        result = machine.run()
        assert result.stop_reason == direct_result.stop_reason
        assert result.instructions == direct_result.instructions
        assert device_state(machine) == device_state(direct)


# Long enough that a checkpoint at SPLIT lands mid-loop, and hot enough
# (40 iterations) that the compiled backend's JIT tier actually engages.
LOOPED = """
_start:
    li t2, 40
    li t0, 0
loop:
    addi t0, t0, 3
    slli t1, t0, 1
    xor t1, t1, t0
    addi t2, t2, -1
    bnez t2, loop
    li t3, 0x10000000      # UART: observable device side effect
    sw t1, 0(t3)
    li a0, 0
""" + EXIT


class TestDigestDeterminism:
    """A checkpoint/restore/resume cycle must be invisible to the
    verification subsystem's golden digest — the determinism contract
    the differential matrix's ``checkpoint`` axis rests on — on every
    execution backend."""

    BUDGET = 5_000
    SPLIT = 40

    def straight_digest(self, backend):
        from repro.verify import capture_state

        machine = self._machine(backend)
        machine.load(assemble(LOOPED, isa=RV32IMC_ZICSR))
        result = machine.run(max_instructions=self.BUDGET)
        return capture_state(machine, result, machine.ram.dirty_pages())

    def _machine(self, backend):
        kwargs = {"isa": RV32IMC_ZICSR, "backend": backend}
        if backend == "compiled":
            kwargs["jit_threshold"] = 1   # promote immediately
        return Machine(MachineConfig(**kwargs))

    def resumed_digest(self, backend):
        from repro.verify import capture_state
        from repro.vp.cpu import STOP_MAX_INSNS

        # Snapshot the pristine machine *before* loading so the load
        # image itself counts toward the cumulative written-page set —
        # the same order ConfigRunner uses between corpus programs.
        machine = self._machine(backend)
        base = machine.snapshot()
        machine.load(assemble(LOOPED, isa=RV32IMC_ZICSR))
        result = machine.run(max_instructions=self.SPLIT)
        pages = set(machine.ram.dirty_pages())
        if result.stop_reason == STOP_MAX_INSNS:
            snap = machine.snapshot(parent=base)
            machine.run(max_instructions=self.BUDGET, resume=True)
            pages |= machine.ram.dirty_pages()
            machine.restore(snap)
            result = machine.run(max_instructions=self.BUDGET, resume=True)
            pages |= machine.ram.dirty_pages()
        return capture_state(machine, result, pages)

    def assert_backend_deterministic(self, backend):
        from repro.verify import compare_digests

        straight = self.straight_digest(backend)
        resumed = self.resumed_digest(backend)
        assert compare_digests(straight, resumed) == []
        assert straight.hexdigest() == resumed.hexdigest()

    def test_interp_checkpoint_resume_digest_identical(self):
        self.assert_backend_deterministic("interp")

    def test_compiled_checkpoint_resume_digest_identical(self):
        self.assert_backend_deterministic("compiled")

    def test_backends_agree_on_straight_digest(self):
        from repro.verify import compare_digests

        interp = self.straight_digest("interp")
        compiled = self.straight_digest("compiled")
        assert compare_digests(interp, compiled) == []

"""Tests for the multicore engine: scheduling, locks, barriers, determinism."""

import pytest

from repro.common.config import SystemConfig
from repro.common.errors import SimulationError, TraceError
from repro.core.api import run_program
from repro.core.simulator import SYNC_OP_CYCLES, Simulator
from repro.trace import Program, TraceBuilder


def run(cfg, traces, name="t"):
    return Simulator(cfg, Program(traces, name=name)).run()


class TestBasics:
    def test_single_thread_completes(self, cfg2):
        result = run(cfg2, [TraceBuilder().read(0).write(8).build()])
        assert result.cycles > 0
        assert result.stats.accesses == 2

    def test_empty_thread(self, cfg2):
        result = run(cfg2, [TraceBuilder().build()])
        assert result.cycles == 0

    def test_too_many_threads_rejected(self, cfg2):
        traces = [TraceBuilder().read(0).build() for _ in range(3)]
        with pytest.raises(TraceError, match="3 threads"):
            Simulator(cfg2, Program(traces))

    def test_gap_advances_clock(self, cfg2):
        fast = run(cfg2, [TraceBuilder().read(0, gap=0).build()])
        slow = run(cfg2, [TraceBuilder().read(0, gap=500).build()])
        assert slow.cycles == fast.cycles + 500

    def test_cycles_is_max_over_cores(self, cfg4):
        t0 = TraceBuilder().read(0).build()
        t1 = TraceBuilder()
        for i in range(100):
            t1.read(0x10000 + i * 64)
        result = run(cfg4, [t0, t1.build()])
        # thread 1 dominates
        solo = run(cfg4, [t1.build()])
        assert result.cycles >= solo.cycles


class TestLocks:
    def test_uncontended_lock(self, cfg2):
        trace = TraceBuilder().acquire(1).write(0).release(1).build()
        result = run(cfg2, [trace])
        assert result.cycles >= 2 * SYNC_OP_CYCLES
        assert result.stats.region_boundaries == 2

    def test_contended_lock_serializes(self, cfg2):
        # Two critical sections on one lock cannot overlap: the loser
        # starts only after the winner's release, so total runtime is at
        # least one full section plus the second section's compute time.
        # (The second section runs warm — LLC hits — so it is shorter
        # than the solo cold run; only its gap cycles are guaranteed.)
        def cs():
            builder = TraceBuilder().acquire(1)
            for i in range(50):
                builder.write(0x1000 + i * 64, gap=10)
            return builder.release(1).build()

        both = run(cfg2, [cs(), cs()])
        solo = run(cfg2, [cs()])
        assert both.cycles >= solo.cycles + 50 * 10

    def test_release_orders_acquire(self, cfg2):
        """The acquirer's post-acquire work starts after the release."""
        t0 = (
            TraceBuilder()
            .acquire(1)
            .write(0x40, gap=200)
            .release(1)
            .build()
        )
        t1 = TraceBuilder().acquire(1).read(0x40).release(1).build()
        sim = Simulator(cfg2, Program([t0, t1], name="t"))
        sim.run()
        # t1 has almost no work of its own but must wait for t0
        assert sim.clocks[1] >= 200

    def test_lock_ids_are_independent(self, cfg4):
        def cs(lock):
            builder = TraceBuilder().acquire(lock)
            for i in range(20):
                builder.write(0x1000 * (lock + 1) + i * 64, gap=10)
            return builder.release(lock).build()

        different = run(cfg4, [cs(0), cs(1)])
        same = run(cfg4, [cs(0), cs(0)])
        assert different.cycles < same.cycles


class TestBarriers:
    def test_barrier_synchronizes_clocks(self, cfg2):
        slow = TraceBuilder()
        for i in range(100):
            slow.read(0x1000 + i * 64, gap=20)
        slow.barrier(0).write(0x9000)
        fast = TraceBuilder().barrier(0).write(0x9040)
        sim = Simulator(cfg2, Program([slow.build(), fast.build()], name="t"))
        sim.run()
        # the fast thread left the barrier no earlier than the slow one arrived
        assert sim.clocks[1] >= 100 * 20

    def test_repeated_barrier_episodes(self, cfg2):
        def phased():
            builder = TraceBuilder()
            for phase in range(5):
                builder.read(0x1000 + phase * 64)
                builder.barrier(7)
            return builder.build()

        result = run(cfg2, [phased(), phased()])
        assert result.stats.region_boundaries == 2 * 5

    def test_single_thread_barrier(self, cfg2):
        result = run(cfg2, [TraceBuilder().barrier(0).read(0).build()])
        assert result.stats.accesses == 1


class TestDeterminism:
    def test_same_program_same_result(self, cfg4):
        from repro.synth import build_workload

        program = build_workload("lock-counter", num_threads=4, seed=9, scale=0.05)
        a = run_program(cfg4, program)
        b = run_program(cfg4, program)
        assert a.cycles == b.cycles
        assert a.flit_hops == b.flit_hops
        assert a.offchip_bytes == b.offchip_bytes
        assert len(a.stats.conflicts) == len(b.stats.conflicts)

    def test_all_protocols_deterministic(self):
        from repro.synth import build_workload

        program = build_workload("racy-writers", num_threads=4, seed=2, scale=0.1)
        for proto in ("mesi", "ce", "ce+", "arc"):
            cfg = SystemConfig(num_cores=4, protocol=proto)
            a = run_program(cfg, program)
            b = run_program(cfg, program)
            assert a.cycles == b.cycles, proto
            assert a.num_conflicts == b.num_conflicts, proto


class TestThreadPlacement:
    def test_fewer_threads_than_cores(self, cfg8):
        traces = [TraceBuilder().write(i * 0x1000).build() for i in range(3)]
        result = run(cfg8, traces)
        assert result.stats.accesses == 3

    def test_active_cores_propagated(self, cfg8):
        program = Program([TraceBuilder().read(0).build()] * 2)
        sim = Simulator(cfg8, program)
        assert sim.protocol.active_cores == 2


class TestDeadlockDetection:
    def test_cross_lock_deadlock_detected(self, cfg2):
        """Classic ABBA deadlock (validation bypassed): the engine must
        diagnose it rather than hang."""
        from repro.core.simulator import Simulator

        t0 = (
            TraceBuilder()
            .acquire(0)
            .write(0x1000, gap=50)
            .acquire(1)
            .release(1)
            .release(0)
            .build()
        )
        t1 = (
            TraceBuilder()
            .acquire(1)
            .write(0x2000, gap=50)
            .acquire(0)
            .release(0)
            .release(1)
            .build()
        )
        sim = Simulator(cfg2, Program([t0, t1], name="abba"))
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run()


class TestHaltingRuns:
    def test_halt_on_conflict_propagates_from_run(self):
        from repro.common.errors import RegionConflictError

        t0 = TraceBuilder()
        t0.write(0x7000, 8)
        for i in range(30):
            t0.read(0x100 + i * 64, 8, gap=50)
        t1 = TraceBuilder().write(0x7000, 8, gap=10).build()
        cfg = SystemConfig(num_cores=2, protocol="ce", halt_on_conflict=True)
        with pytest.raises(RegionConflictError):
            run_program(cfg, Program([t0.build(), t1], name="racy"))

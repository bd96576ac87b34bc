"""``sim-private`` and ``sim-shared``: simulate programs, pair by pair.

Programs are generated (and validated, as the public ``run_program``
does) in set-up.  One operation is one (program, protocol) pair: build
the simulator with ``make_simulator``, ``run()`` it and read the run's
``summary()``, which folds in the energy model.  A pass is every pair
once; the run repeats whole passes.

Correctness: every result's canonical rendering
(:func:`repro.verify.diffengine.render_result`) must equal the
reference for its (program, protocol, seed): the scalar engine's
rendering, as a SHA-256 digest committed under ``perfbench/reference/``
(seeds 0-100), or computed after the timed region at any other seed.
"""

from __future__ import annotations

import time

from . import common

PROTOCOLS = ("mesi", "ce", "ce+", "arc")
THREADS = 8
TINY_SCALE = 0.03

#: name -> (programs, scale)
WORKLOADS = {
    "sim-private": (
        ("compute-water", "stencil-ocean"),
        0.4,
    ),
    "sim-shared": (
        ("migratory-token", "lock-counter", "alltoall-radix", "racy-writers",
         "false-sharing", "dataparallel-blackscholes"),
        0.1,
    ),
}


class SimWorkload(common.Workload):
    reference_file = "sims.json"

    def __init__(self, name: str, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        self.name = name
        self.programs_names, self.scale = WORKLOADS[name]
        if tiny:
            self.scale = TINY_SCALE
        self.results: list = []  # (program, protocol, RunResult) per op
        self.rss_mb = None

    def setup(self, tracer=None) -> None:
        from repro.common.config import SystemConfig
        from repro.synth import base
        from repro.trace import validate

        self.programs = []
        for program_name in self.programs_names:
            program = base.generate(
                program_name, num_threads=THREADS, seed=self.seed,
                scale=self.scale,
            )
            validate.validate_program(program, 64)
            self.programs.append(program)
        self.pairs = [
            (program, SystemConfig(num_cores=THREADS, protocol=protocol))
            for program in self.programs for protocol in PROTOCOLS
        ]

    def measure(self, seconds: float, baseline: bool = False) -> dict:
        """Whole passes for ``seconds``, sampling the host's speed before
        each pair (:mod:`pb.hostspeed`).  Each pair's CPU time is its
        median over the passes, and a pass costs the sum of those
        medians, so a burst of host noise that hits one pass moves no
        metric."""
        from repro.core import batch

        from .hostspeed import HostSpeed

        speed = HostSpeed()
        latencies, pair_cpu, passes, events = [], {}, [], 0
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            pass_start = time.perf_counter()
            for index, (program, cfg) in enumerate(self.pairs):
                speed.sample()
                op_start, cpu_start = time.perf_counter(), common.cpu_s()
                result = batch.make_simulator(cfg, program).run()
                result.summary()
                pair_cpu.setdefault(index, []).append(common.cpu_s() - cpu_start)
                latencies.append(time.perf_counter() - op_start)
                events += result.stats.accesses
                self.results.append((program.name, cfg.protocol.value, result))
            passes.append(time.perf_counter() - pass_start)
            if self.rss_mb is None:
                # results are kept for verification, so memory grows with
                # the number of passes; the simulator's own peak is reached
                # within the first
                self.rss_mb = common.peak_rss_mb()
        cpu = sum(common.median(times) for times in pair_cpu.values())
        return {
            "elapsed": time.perf_counter() - start,
            "latencies": latencies,
            "passes": passes,
            "cpu_s": cpu * speed.factor(),
            "host_speed": speed.summary(cpu),
            "events_per_pass": events / len(passes),
        }

    def peak_rss_mb(self) -> float:
        return self.rss_mb

    # -- correctness ---------------------------------------------------------

    def references(self) -> dict[tuple[str, str], str]:
        """Reference digest per (program, protocol) for this seed."""
        table = self.committed_reference() or self.reference_table()
        return {tuple(key.split("|")): value for key, value in table.items()}

    def reference_table(self) -> dict[str, str]:
        """Scalar-engine rendering digest per ``program|protocol``."""
        from repro.core.simulator import Simulator
        from repro.verify.diffengine import render_result

        return {
            f"{program.name}|{cfg.protocol.value}":
                common.digest(render_result(Simulator(cfg, program).run()))
            for program, cfg in self.pairs
        }

    def verify(self, references) -> tuple[int, int, list[str]]:
        from repro.verify.diffengine import render_result

        failed, notes = 0, []
        for program, protocol, result in self.results:
            want = references.get((program, protocol))
            got = common.digest(render_result(result))
            if got != want:
                failed += 1
                notes.append(f"MISMATCH {program}/{protocol}: {got[:16]} != "
                             f"{(want or 'missing')[:16]}")
        return len(self.results), failed, notes

"""``repro-sweep``: render all registered experiments, as a first
reproduction would.

One pass runs every experiment in :data:`repro.harness.experiments.REGISTRY`
through ``run_experiment`` at ``Settings.bench()`` (8 threads, scale
0.15, cores 4/8/16) with the run's seed, on the default engine.  It goes
through a serial :class:`~repro.harness.executor.Executor` backed by a
fresh, empty result cache and checkpoint journal, exactly as
``python -m repro.harness.run all --preset bench`` builds it, renders
every table, and writes the cache manifest at the end.  The in-process
comparison memo is cleared first, so no pass reuses another's work.
A pass costs the CPU seconds this process spends on it (the median
pass, when a run makes more than one).  One job is one simulation
point the pass computed (a cache miss), with the wall-clock time the
executor records for it in its manifest (build, validate, simulate);
20 experiments are too few and too unequal for a median.

Correctness, after the timed region:

* the rendering of every pass, and the rendering served back from the
  last pass's warm cache, equal the scalar engine's rendering for the
  seed: a digest committed under ``perfbench/reference/`` (seeds 0-100),
  or at any other seed a scalar-engine sweep run after the timed
  region;
* every ``harness/shapes.py`` check passes;
* a seed-chosen sample of simulation points, re-run on the scalar
  engine, renders (``verify.diffengine.render_result``) identically to
  the result the sweep cached for it.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import replace

from . import common

#: simulation points re-run on the scalar engine per run
SAMPLED_POINTS = 6
#: the last experiment (in registry order) of the untraced phase of a
#: traced run: the three tables and the 16-core performance figure,
#: about a fifth of the sweep
BASELINE_UPTO = "fig_perf_16"


class SweepWorkload(common.Workload):
    name = "repro-sweep"
    reference_file = "sweep.json"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        self.renders: list[dict[str, str]] = []  # per pass: exp_id -> text
        self.tables: dict[str, list] = {}
        self.experiment_s: dict[str, float] = {}
        self.baseline_s: dict[str, float] = {}
        self.cache_dir = None

    def setup(self, tracer=None) -> None:
        from repro.harness import experiments, shapes  # noqa: F401

        preset = experiments.Settings.quick if self.tiny else experiments.Settings.bench
        self.settings = replace(preset(), seed=self.seed)

    def _executor(self, cache_dir, executor_cls=None, jobs: int = 1):
        from repro.harness.checkpoint import CHECKPOINT_NAME, Checkpoint
        from repro.harness.executor import Executor
        from repro.harness.result_cache import ResultCache

        cache = ResultCache.open(cache_dir)
        checkpoint = Checkpoint(cache.root / CHECKPOINT_NAME, resume=False)
        return (executor_cls or Executor)(jobs=jobs, cache=cache, checkpoint=checkpoint)

    def _render_all(self, executor, timed: bool = False,
                    upto: str | None = None, speed=None) -> dict[str, str]:
        """Render every experiment in registry order (or those up to and
        including ``upto``), sampling host ``speed`` before each."""
        from repro.harness import experiments

        experiments.clear_comparison_cache()
        experiments.set_executor(executor)
        rendered: dict[str, str] = {}
        try:
            for exp_id, exp in experiments.REGISTRY.items():
                if upto is not None and upto in rendered:
                    break
                if speed is not None:
                    speed.sample(3)
                start = time.perf_counter()
                tables = experiments.run_experiment(exp_id, self.settings)
                parts = [f"\n### {exp_id} ({exp.paper_artifact})\n"]
                parts += [table.render() + "\n" for table in tables]
                rendered[exp_id] = "\n".join(parts)
                if timed:
                    self.experiment_s[exp_id] = time.perf_counter() - start
                    self.tables[exp_id] = tables
        finally:
            experiments.set_executor(None)
            executor.close()
        return rendered

    def measure(self, seconds: float, baseline: bool = False) -> dict:
        """Whole passes for ``seconds``, sampling the host's speed
        (:mod:`pb.hostspeed`) before each experiment and each batch of
        simulation points; with ``baseline`` (the untraced phase of a
        traced run), one pass over the experiments up to
        :data:`BASELINE_UPTO` only, which the traced pass is priced
        against."""
        from repro.harness.executor import Executor

        from .hostspeed import HostSpeed

        speed = HostSpeed()

        class Sampling(Executor):
            def run_points(self, points):
                speed.sample(3)
                return super().run_points(points)

        latencies, passes, pass_cpu = [], [], []
        upto = BASELINE_UPTO if baseline and not self.tiny else None
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            pass_start, cpu_start = time.perf_counter(), common.cpu_s()
            spent = speed.spent
            self.cache_dir = common.fresh_dir("sweep-cache")
            executor = self._executor(self.cache_dir, Sampling)
            self.renders.append(self._render_all(executor, timed=True,
                                                 upto=upto, speed=speed))
            executor.manifest.write_merged(self.cache_dir / "manifest.json")
            passes.append(time.perf_counter() - pass_start)
            pass_cpu.append(common.cpu_s() - cpu_start - (speed.spent - spent))
            computed = [e for e in executor.manifest.entries if e.status != "hit"]
            latencies += [entry.seconds for entry in computed]
            if upto is not None:
                break
        if upto is not None:
            self.baseline_s = dict(self.experiment_s)
        return {
            "elapsed": time.perf_counter() - start,
            "latencies": latencies,
            "passes": passes,
            "cpu_s": common.median(pass_cpu) * speed.factor(),
            "host_speed": speed.summary(common.median(pass_cpu)),
            "events_per_pass": None,  # filled in by :meth:`count_events`
            "miss_keys": {entry.key for entry in computed},
            "partial": upto is not None,
        }

    def overhead(self, untraced: dict, traced: dict) -> float:
        """Traced over untraced seconds of the experiments both phases
        rendered from a cleared memo, minus one."""
        from . import tracer as tracing

        if not untraced["partial"]:
            return tracing.overhead(untraced, traced)
        return (sum(self.experiment_s[exp_id] for exp_id in self.baseline_s)
                / sum(self.baseline_s.values()) - 1.0)

    # -- correctness ---------------------------------------------------------

    def reference_table(self) -> dict[str, str]:
        """Digest of every experiment's rendering on the scalar engine.

        Untimed, so it uses every CPU: the executor's renderings are
        byte-identical whatever its ``jobs``, and its worker processes
        inherit the engine choice from the environment."""
        from repro.core.batch import ENGINE_ENV

        saved = os.environ.get(ENGINE_ENV)
        os.environ[ENGINE_ENV] = "scalar"
        try:
            executor = self._executor(common.fresh_dir("sweep-reference"),
                                      jobs=os.cpu_count() or 1)
            return {exp_id: common.digest(text)
                    for exp_id, text in self._render_all(executor).items()}
        finally:
            if saved is None:
                os.environ.pop(ENGINE_ENV, None)
            else:
                os.environ[ENGINE_ENV] = saved

    def references(self) -> dict[str, str]:
        """Per-experiment scalar-engine digests: committed for this seed,
        or rendered now.  Also re-renders from the last pass's warm
        cache, recording every simulation point it asks for."""
        from repro.harness.executor import Executor

        recorded: list = []

        class Recording(Executor):
            def run_points(self, points):
                points = list(points)
                outcomes = super().run_points(points)
                recorded.extend(zip(points, outcomes))
                return outcomes

        warm = self._render_all(self._executor(self.cache_dir, Recording))
        self.renders.append(warm)
        self.recorded = {point.key(): (point, result) for point, result in recorded}
        return self.committed_reference() or self.reference_table()

    def notes(self) -> list[str]:
        return [f"experiment {exp_id}: {seconds:.3f} s (last pass)"
                for exp_id, seconds in self.experiment_s.items()]

    def count_events(self, measured: dict | None) -> None:
        """Simulated memory accesses per pass: those of the points a
        pass missed in its cache."""
        if measured is None:
            return
        measured["events_per_pass"] = sum(
            result.stats.accesses
            for key, (point, result) in self.recorded.items()
            if key in measured["miss_keys"]
        )

    def verify(self, references) -> tuple[int, int, list[str]]:
        from repro.core.simulator import Simulator
        from repro.harness.shapes import run_checks
        from repro.verify.diffengine import render_result

        attempted = failed = 0
        notes = []
        for rendered in self.renders:
            for exp_id, text in rendered.items():
                attempted += 1
                if common.digest(text) != references.get(exp_id):
                    failed += 1
                    notes.append(f"MISMATCH rendering of {exp_id}")
        for exp_id, tables in self.tables.items():
            for check in run_checks(exp_id, tables):
                attempted += 1
                if not check.passed:
                    failed += 1
                    notes.append(f"SHAPE FAILED {exp_id}: {check.claim} "
                                 f"({check.detail})")
        keys = sorted(self.recorded)
        for key in random.Random(self.seed).sample(keys, min(SAMPLED_POINTS, len(keys))):
            point, result = self.recorded[key]
            attempted += 1
            scalar = Simulator(point.cfg, point.build_program()).run()
            if render_result(scalar) != render_result(result):
                failed += 1
                notes.append(f"MISMATCH scalar rerun of point {key[:12]} "
                             f"({point.workload_name}/{point.cfg.protocol.value})")
        return attempted, failed, notes

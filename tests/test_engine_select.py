"""Tier selection: :func:`repro.core.batch.make_simulator` picks the
engine from the program's classification reuse, ``$REPRO_ENGINE``
forces it, and the bounded sparse directory always runs scalar.

Both tiers are byte-identical (``tests/test_engine_equiv.py``), so these
tests pin only *which* tier runs, never what it computes.
"""

from __future__ import annotations

import pytest

from repro.common.config import SystemConfig
from repro.common.errors import ConfigError
from repro.core import batch
from repro.core.batch import (
    BATCH_MIN_REUSE,
    ENGINE_ENV,
    BatchSimulator,
    make_simulator,
    resolve_engine,
)
from repro.core.simulator import Simulator
from repro.synth import build_workload

THREADS = 8
SCALE = 0.15
CFG = SystemConfig(num_cores=THREADS, protocol="ce")
BOUNDED = SystemConfig(
    num_cores=THREADS, protocol="ce", directory_entries_per_bank=64
)


@pytest.fixture(scope="module")
def programs():
    return {
        name: build_workload(name, num_threads=THREADS, seed=3, scale=SCALE)
        for name in (
            "compute-water", "migratory-token", "dataparallel-blackscholes"
        )
    }


@pytest.fixture(autouse=True)
def auto_engine(monkeypatch):
    monkeypatch.delenv(ENGINE_ENV, raising=False)


@pytest.mark.parametrize(
    "name, tier",
    [
        ("compute-water", BatchSimulator),
        ("migratory-token", Simulator),
        ("dataparallel-blackscholes", Simulator),
    ],
)
def test_auto_picks_tier_by_reuse(programs, name, tier):
    sim = make_simulator(CFG, programs[name])
    assert type(sim) is tier
    reuse = batch.classify_program(programs[name], CFG.line_size).reuse
    assert (reuse >= BATCH_MIN_REUSE) == (tier is BatchSimulator)


@pytest.mark.parametrize("forced", [None, "batch"])
def test_bounded_directory_always_runs_scalar(programs, monkeypatch, forced):
    if forced:
        monkeypatch.setenv(ENGINE_ENV, forced)
    assert type(make_simulator(BOUNDED, programs["compute-water"])) is Simulator


@pytest.mark.parametrize(
    "forced, name, tier",
    [
        ("scalar", "compute-water", Simulator),
        ("batch", "migratory-token", BatchSimulator),
        (" Batch ", "dataparallel-blackscholes", BatchSimulator),
    ],
)
def test_env_forces_the_tier(programs, monkeypatch, forced, name, tier):
    monkeypatch.setenv(ENGINE_ENV, forced)
    assert type(make_simulator(CFG, programs[name])) is tier


def test_unknown_env_value_is_rejected(programs, monkeypatch):
    monkeypatch.setenv(ENGINE_ENV, "vector")
    with pytest.raises(ConfigError, match="unknown engine"):
        make_simulator(CFG, programs["compute-water"])


@pytest.mark.parametrize("forced", [None, "batch"])
@pytest.mark.parametrize("name", ["compute-water", "migratory-token"])
def test_classifies_once_per_program(programs, monkeypatch, forced, name):
    if forced:
        monkeypatch.setenv(ENGINE_ENV, forced)
    calls = []
    real = batch.classify_program

    def counting(program, line_size):
        calls.append(program.name)
        return real(program, line_size)

    monkeypatch.setattr(batch, "classify_program", counting)
    make_simulator(CFG, programs[name]).run()
    assert calls == [programs[name].name]


def test_reuse_counts_eligible_accesses_per_eligible_line():
    from repro.trace import Program, TraceBuilder

    t0 = TraceBuilder()
    for _ in range(3):
        t0.read(0x1000)  # private to thread 0
    t0.write(0x2000)  # contended: thread 1 reads it
    t0.read(0x3000).read(0x3000)  # read-only shared
    t1 = TraceBuilder().read(0x2000)
    for _ in range(4):
        t1.read(0x3000)
    t1.write(0x4000).read(0x4000)  # private to thread 1
    cls = batch.classify_program(Program([t0.build(), t1.build()]), 64)
    # eligible (thread, line) pairs: 3 + 2 + 4 + 2 accesses over 4 pairs
    assert cls.reuse == pytest.approx(11 / 4)


def test_streamed_reuse_matches_in_memory(programs, tmp_path):
    """A chunk-streamed ``.rtb`` (chunks far smaller than a thread's
    trace) folds its per-chunk access counts into the same reuse."""
    from repro.trace.binio import BinTraceReader, BinTraceWriter

    prog = programs["compute-water"]
    path = tmp_path / "water.rtb"
    with BinTraceWriter(
        path, prog.num_threads, name=prog.name, chunk_events=96
    ) as writer:
        for tid, trace in enumerate(prog.traces):
            writer.append_trace(tid, trace)
    reader = BinTraceReader(path)
    try:
        streamed = batch.classify_program(reader.stream_program(), 64)
    finally:
        reader.close()
    exact = batch.classify_program(prog, 64)
    assert streamed.reuse == pytest.approx(exact.reuse)
    assert (streamed.codes == exact.codes).all()


def test_resolve_engine_unset_returns_a_string():
    assert resolve_engine() == "auto"


def test_batch_refuses_recorder_and_bounded_directory(programs):
    from repro.verify.recorder import ScheduleRecorder

    program = programs["compute-water"]
    with pytest.raises(ConfigError, match="record"):
        BatchSimulator(CFG, program, ScheduleRecorder())
    with pytest.raises(ConfigError, match="sparse directory"):
        BatchSimulator(BOUNDED, program)

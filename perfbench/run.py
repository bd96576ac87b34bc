"""The repository benchmark: one command, four workloads.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload repro-sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload sim-shared --seed 7 --seconds 10 --trace 1
    python3 perfbench/run.py --self-test

Workloads: ``repro-sweep``, ``sim-private``, ``sim-shared`` and
``service-mixed`` (see ``perfbench/README.md``).  Every run sets up,
measures whole passes for at least ``--seconds`` seconds, checks every
output against its reference outside the timed region, and prints one
JSON object as the last line of stdout::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics that
``BENCHMARK.json`` lists; with ``--trace 1`` the run first measures
untraced, then again with spans around every layer's public functions,
and the metrics are the per-layer metrics it lists.  A fuller report (provenance, every
layer metric, per-row times, span records) is printed above the JSON
line and written to ``.perfbench/report-<workload>-seed<n>-trace<t>.json``.

Exits 2 without a result line when the checkout holds no ``src/repro``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from pb import common  # noqa: E402

WORKLOADS = ("repro-sweep", "sim-private", "sim-shared", "service-mixed")


def make_workload(name: str, seed: int, tiny: bool = False):
    if name == "repro-sweep":
        from pb.sweep import SweepWorkload

        return SweepWorkload(seed, tiny)
    if name == "service-mixed":
        from pb.service_mix import ServiceWorkload

        return ServiceWorkload(seed, tiny)
    from pb.sims import SimWorkload

    return SimWorkload(name, seed, tiny)


def end_to_end(measured: dict, setup: list[tuple[float, float, float]],
               rss_mb: float) -> dict:
    """The end-to-end metrics of one untraced measurement.

    Times are CPU seconds of the processes doing the work (see
    :func:`pb.common.cpu_s`): on a shared host, wall-clock time also
    follows how much of the vCPU the hypervisor lends, which moves runs
    of the same code by tens of percent.  Set-up, and the pass of the
    sims and the sweep, are stated at a reference host speed (see
    :mod:`pb.hostspeed`).  The wall-clock figures are printed beside
    them (:func:`wall_clock`).
    """
    cpu = measured["cpu_s"]
    values = {
        "setup_s": (common.median([cpu * speed for _, cpu, speed in setup]),
                    "s"),
        "cpu_s": (cpu, "s"),
        "events_per_cpu_s": (measured["events_per_pass"] / cpu, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}


def wall_clock(measured: dict, setup: list[tuple[float, float, float]]) -> dict:
    """Wall-clock figures of the same measurement, as a user waits
    them out: reported, but not listed in ``BENCHMARK.json``."""
    latencies = measured["latencies"]
    return {
        "setup_s": common.median([wall for wall, _, _ in setup]),
        "pass_s": common.median(measured["passes"]),
        "job_p50_s": common.median(latencies),
        "job_p95_s": common.percentile(latencies, 0.95),
        "jobs": len(latencies),
        "jobs_per_s": len(latencies) / measured["elapsed"],
    }


def _host_notes(measured: dict, before, after) -> list[str]:
    """What the host did during the untraced measurement, to read its
    figures by: the host speed the pass was scaled by, the vCPU time
    stolen by the hypervisor, and each service block's CPU seconds."""
    notes = []
    if measured.get("host_speed"):
        factor, samples, raw = measured["host_speed"]
        notes.append(f"host speed: {factor:.4f} of the reference, from "
                     f"{samples} samples; CPU seconds per pass before "
                     f"scaling: {raw:.6g}")
    if before and after and after[1] > before[1]:
        steal = (after[0] - before[0]) / (after[1] - before[1])
        notes.append(f"host steal during measurement: {steal:.1%} of vCPU time")
    if measured.get("blocks"):
        notes.append("CPU seconds per block: " + ", ".join(
            f"{cpu:.3f}" for cpu in measured["blocks"]))
    return notes


def run(args) -> int:
    from pb import tracer as tracing

    workload = make_workload(args.workload, args.seed, args.tiny)
    setup = common.measure_setup(args.workload, args.seed, workload.probes,
                                 tiny=args.tiny)
    workload.setup()
    tracer = traced = None
    try:
        steal_before = common.steal_jiffies()
        measured = workload.measure(args.seconds, baseline=bool(args.trace))
        steal_after = common.steal_jiffies()
        rss_mb = workload.peak_rss_mb()
        layers, records = {}, []
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)
            workload.setup(tracer)
            traced = workload.measure(args.seconds)
            tracer.paused = True
        verify_start = time.perf_counter()
        references = workload.references()
        if args.corrupt_reference:
            key = min(references, key=repr)
            references[key] = type(references[key])()
        for phase in (measured, traced):
            workload.count_events(phase)
        attempted, failed, notes = workload.verify(references)
        verify_s = time.perf_counter() - verify_start
    finally:
        workload.close()
    if args.trace:
        tracer.uninstall()
        workload.collect_trace(tracer)
        overhead = workload.overhead(measured, traced)
        layers = tracing.layer_metrics(tracer, verify_s=verify_s,
                                       overhead=overhead)
        notes += tracing.row_notes(tracer)
        records = tracer.records
    # the untraced phase of a traced sweep covers part of the sweep only
    partial = measured.get("partial")
    metrics = {} if partial else end_to_end(measured, setup, rss_mb)
    wall = wall_clock(measured, setup)
    notes = [
        f"samples: {len(measured['latencies'])} jobs in "
        f"{len(measured['passes'])} {'partial ' if partial else ''}"
        f"pass(es) over {measured['elapsed']:.3f} s; "
        f"setup probes {len(setup)}",
        "wall clock (not listed): " + ", ".join(
            f"{name} {value:.6g}" for name, value in wall.items()),
        *_host_notes(measured, steal_before, steal_after),
        *workload.notes(),
        *notes,
    ]
    spec = common.benchmark_spec()
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = layers if args.trace else metrics
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: source[m["name"]] for m in listed},
    }
    report = {
        "workload": args.workload,
        "provenance": common.provenance(args.seed),
        "end_to_end": metrics,
        "wall_clock": wall,
        "layers": layers,
        "notes": notes,
        "error_rate": failed / attempted,
        "spans": [list(r) for r in records],
    }
    common.emit(result, workload=args.workload, seed=args.seed,
                trace=bool(args.trace), report=report)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--self-test", action="store_true",
                        help="tiny smoke pass over the benchmark itself")
    parser.add_argument("--tiny", action="store_true",
                        help="self-test scale: smaller inputs, references "
                        "computed at every seed")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="self-test: blank one reference entry, which "
                        "the run must report as a failure")
    parser.add_argument("--write-references", action="store_true",
                        help="compute the scalar-engine references of "
                        "--workload at --seed and store them in "
                        "perfbench/reference/")
    args = parser.parse_args(argv)
    try:
        common.import_program()
    except common.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.self_test:
        from pb.selftest import main as self_test

        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.write_references:
        from pb.references import write

        return write(make_workload(args.workload, args.seed))
    if args.setup_probe:
        workload = make_workload(args.workload, args.seed, args.tiny)
        workload.setup()
        common.probe_ready(workload.child_cpu_s())
        workload.close()
        return 0
    os.chdir(common.ROOT)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())

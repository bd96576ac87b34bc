"""Shared plumbing: locating the program, provenance, statistics, output.

The benchmark lives beside the program it measures and imports it from
``<checkout>/src``.  Nothing here imports :mod:`repro` at module load,
so the benchmark can refuse cleanly (exit 2, no result line) in a
directory that holds only the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: the checkout root: ``perfbench/pb/common.py`` -> ``.``
ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
#: per-run scratch (result caches, service data dirs, .rtb files) and
#: the per-run reports; listed in the root ``.gitignore``
WORK = ROOT / ".perfbench"

DEFAULT_SEED = 1


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/repro`` to measure."""


def import_program():
    """Put ``<checkout>/src`` first on ``sys.path`` and import ``repro``.

    Refuses an installed copy elsewhere: the benchmark measures the
    source tree it sits in, or nothing.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no program source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise MissingProgram(f"imported repro from {repro.__file__}, not {SRC}")
    return repro


def benchmark_spec() -> dict:
    """``BENCHMARK.json``: which of the computed metrics a result lists."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict:
    """Environment for child Python processes: the checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def fresh_dir(name: str) -> Path:
    """An empty directory under the scratch root (wiped if present)."""
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Workload:
    """What :mod:`run` drives: set up, measure whole passes, verify.

    ``setup(tracer=None)`` builds the inputs (again, under ``tracer``,
    for the traced phase).  ``measure(seconds, baseline=False)``
    returns ``{"elapsed", "latencies", "passes", "cpu_s",
    "events_per_pass"}``: timed-region wall seconds, one wall-clock
    latency per operation, one wall-clock duration per pass, the CPU
    seconds of one pass (each workload's robust figure, see its
    ``measure``), and the simulated memory accesses of one pass.  One
    scaled to a reference host speed adds ``"host_speed"``
    (:meth:`pb.hostspeed.HostSpeed.summary`).  One
    whose untraced phase of a traced run (``baseline``) covers part of
    its work only adds ``"partial": True``.  ``references()`` and
    ``verify(references)`` run after the timed region; ``verify``
    returns ``(attempted, failed, notes)``.
    """

    #: set-up repetitions for ``setup_s``
    probes = 5

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny

    def committed_reference(self) -> dict | None:
        """The committed scalar-engine reference for this seed, or None
        when it must be computed during the run (always at tiny scale)."""
        from . import references

        if self.tiny:
            return None
        return references.load(self.reference_file, self.name, self.seed)

    def close(self) -> None:
        pass

    def notes(self) -> list[str]:
        return []

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def overhead(self, untraced: dict, traced: dict) -> float:
        """Tracing overhead: traced over untraced time per operation, minus one."""
        from . import tracer

        return tracer.overhead(untraced, traced)

    def child_cpu_s(self) -> float:
        """CPU seconds used so far by the processes set-up started."""
        return 0.0

    def count_events(self, measured: dict | None) -> None:
        """Fill in ``measured["events_per_pass"]`` when only verification
        knows it."""

    def collect_trace(self, tracer) -> None:
        """Fold spans taken outside this process into ``tracer``."""


def digest(text: str) -> str:
    """SHA-256 of a rendering: what references are compared by."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- statistics ---------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    rank = min(max(1, math.ceil(q * len(ordered))), len(ordered))
    return float(ordered[rank - 1])


def cpu_s(pid: int | None = None) -> float:
    """CPU seconds (user and system) used so far by this process, or by
    process ``pid``.

    What the benchmark times with: unlike wall-clock time it leaves out
    the time the hypervisor runs something else on the vCPU (steal,
    which the kernel subtracts from task run time) and the time a
    process waits for another to be scheduled.
    """
    if pid is None:
        return time.process_time()
    return time.clock_gettime((~pid << 3) | 2)  # clock_getcpuclockid(pid)


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set size in MiB: ``VmHWM`` of ``pid``, or this process."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# -- set-up time ---------------------------------------------------------------


def measure_setup(workload: str, seed: int, probes: int,
                  tiny: bool = False) -> list[tuple[float, float, float]]:
    """Set the workload up ``probes`` times, each in a fresh process.

    Each probe runs ``run.py --setup-probe``, which does exactly the
    workload's set-up (imports, input generation, server start) and
    prints, once the first timed operation could begin, the monotonic
    time and the CPU seconds it and the processes it started have used,
    then the host speed it samples right after (see :func:`probe_ready`).
    A sample is ``(wall, cpu, speed)``: that time minus the moment the
    probe was spawned, so it covers interpreter start-up and imports
    too, those CPU seconds and that speed factor.
    """
    samples = []
    for _ in range(probes):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", workload, "--seed", str(seed), "--setup-probe"]
            + (["--tiny"] if tiny else []),
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"set-up probe for {workload} failed:\n{proc.stderr[-2000:]}"
            )
        _, ready, cpu, factor = proc.stdout.strip().splitlines()[-1].split()
        samples.append((float(ready) - start, float(cpu), float(factor)))
    return samples


def probe_ready(child_cpu_s: float) -> None:
    """Tell :func:`measure_setup` that set-up is done, and the host
    speed (:mod:`pb.hostspeed`) sampled in this process right after."""
    from .hostspeed import HostSpeed

    ready, cpu = time.monotonic(), cpu_s() + child_cpu_s
    speed = HostSpeed()
    speed.sample(10)
    print(f"SETUP_READY {ready:.9f} {cpu:.9f} {speed.factor():.9f}",
          flush=True)


# -- provenance and output ------------------------------------------------------


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def steal_jiffies() -> tuple[int, int] | None:
    """``(steal, total)`` CPU jiffies since boot, from ``/proc/stat``:
    time the hypervisor ran something else on this machine's vCPUs."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int) -> dict:
    """Where and on what a result was measured."""
    import numpy

    from repro.core.batch import resolve_engine

    status = _git("status", "--porcelain")
    return {
        "commit": _git("rev-parse", "HEAD") or "unknown (not a git checkout)",
        "dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "engine": resolve_engine(),
        "seed": seed,
    }


def emit(result: dict, *, workload: str, seed: int, trace: bool,
         report: dict) -> None:
    """Print the human-readable report, write it to disk, then print the
    one-line JSON result last on stdout."""
    path = WORK / f"report-{workload}-seed{seed}-trace{int(trace)}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for key, value in sorted(report["provenance"].items()):
        print(f"provenance {key}: {value}")
    for line in report.get("notes", []):
        print(line)
    for kind in ("end_to_end", "layers"):
        for name, metric in sorted(report[kind].items()):
            print(f"{kind} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"attempted {result['attempted']} failed {result['failed']} "
          f"error_rate {result['failed'] / result['attempted']:.6g}")
    print(f"report written to {path.relative_to(ROOT)}")
    print(json.dumps(result, sort_keys=True), flush=True)

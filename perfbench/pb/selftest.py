"""Self-test of the benchmark: ``python3 perfbench/run.py --self-test``.

A tiny-scale smoke pass (``--tiny``: quick preset, small programs,
references computed at every seed) over every workload, each run as
a harness would run it, in a child process.  It checks that:

* every metric ``BENCHMARK.json`` names is emitted, with its unit, by
  both the untraced and the traced run;
* a deliberately corrupted reference (``--corrupt-reference``) is
  reported as a failure, not passed over;
* the traced run's outputs match the same references as the untraced
  run's: both phases are verified, so it checks more operations, and
  none fails.

Exit status 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys

from . import common

SEED = 3


def _run(workload: str, *extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(common.ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "0.5",
         "--tiny", *extra],
        cwd=common.ROOT, env=common.child_env(), capture_output=True,
        text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} {extra}: exit {proc.returncode}\n"
                             f"{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check_metrics(result: dict, expected: list[dict], label: str) -> list[str]:
    problems = []
    got = result["metrics"]
    for metric in expected:
        entry = got.get(metric["name"])
        if entry is None:
            problems.append(f"{label}: metric {metric['name']} missing")
        elif entry["unit"] != metric["unit"]:
            problems.append(f"{label}: metric {metric['name']} has unit "
                            f"{entry['unit']}, BENCHMARK.json says {metric['unit']}")
    extra = set(got) - {m["name"] for m in expected}
    if extra:
        problems.append(f"{label}: metrics not in BENCHMARK.json: {sorted(extra)}")
    return problems


def main() -> int:
    spec = common.benchmark_spec()
    problems: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        plain = _run(workload, "--trace", "0")
        traced = _run(workload, "--trace", "1")
        corrupted = _run(workload, "--trace", "0", "--corrupt-reference")
        problems += _check_metrics(plain, spec["end_to_end"], f"{workload} trace 0")
        problems += _check_metrics(traced, spec["per_layer"], f"{workload} trace 1")
        for label, result in (("untraced", plain), ("traced", traced)):
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload}: {label} run failed "
                                f"{result['failed']} of {result['attempted']}")
        if traced["attempted"] <= plain["attempted"]:
            problems.append(f"{workload}: traced run verified no more outputs "
                            "than the untraced run")
        if corrupted["correct"] or corrupted["failed"] < 1:
            problems.append(f"{workload}: corrupted reference was not reported")
        print(f"self-test {workload}: untraced {plain['attempted']} ok, traced "
              f"{traced['attempted']} ok, corrupted reference -> "
              f"{corrupted['failed']} failed", flush=True)
    for problem in problems:
        print(f"SELF-TEST FAILURE: {problem}")
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0

"""``service-mixed``: a closed-loop client against ``repro-serve``.

Set-up writes a few small ``.rtb`` traces, starts ``repro-serve`` in its
own process (through ``perfbench/serve.py``, which calls
``repro.service.server.main``) with one worker and a fresh data
directory, and waits for the first healthy ``/api/health``.

The load generator is one client in this process.  It takes the next
operation of one seeded :class:`Schedule` and runs it to the last
result byte before taking another (a closed loop: a slower server gets
less load).  One client and one worker keep two processes busy at
most, on a machine that may have two vCPUs: more threads at once
measure the host's scheduler, and with it how much of the vCPUs the
hypervisor lends, more than the service.  The schedule comes in blocks
of 47 operations (:data:`MIX`):

* 40 fresh jobs in the proportions of the repository's own service
  load generator, ``benchmarks/bench_service.py`` (80% ``analyze``,
  15% ``simulate``, 5% ``compare``): 32 ``analyze``, 6 ``simulate``
  and 2 ``compare`` jobs over three protocols;
* of the 6 ``simulate`` jobs, 3 run a small synthetic program and 3 a
  ``.rtb`` trace that the client uploads first.  No recorded traffic
  gives the share of uploads; the even split is an assumption, chosen
  so that both ways of naming a program carry the same weight;
* 7 resubmissions of an earlier operation's spec (7 of 47, the "about
  15%" the workload is defined with), which the queue dedupes and
  serves from its result cache.

The timed region starts after :data:`WARMUP_BLOCKS` blocks have
settled, and settles one block at a time until ``--seconds`` have gone
by and at least :data:`MIN_BLOCKS` blocks have settled.  A block costs
the CPU seconds the server process and this load generator use while
it runs; the median block is reported, so one slow stretch of the run
moves one block, not the metric.  Unlike the other workloads it is not
scaled to a reference host speed (:mod:`pb.hostspeed`): kernels timed
between two blocks, in this process beside the server's, read up to
25% apart from run to run while the blocks' CPU seconds held within
5%.  One operation's wall-clock latency runs from submit to the last
result byte; the upload before a trace job is timed apart
(``service.client.upload``).

Correctness, after the timed region: every result body must be
byte-identical to ``execute_job`` run locally on the same spec and
rendered with ``render_payload``; an HTTP error or a job that did not
end DONE is a failed operation.
"""

from __future__ import annotations

import random
import re
import signal
import socket
import subprocess
import sys
import time

from . import common

WORKLOADS = ("lock-counter", "racy-writers", "migratory-token",
             "false-sharing", "readers-writers", "stencil-ocean")
PROTOCOLS = ("mesi", "ce", "ce+", "arc")
TRACE_WORKLOADS = ("lock-counter", "racy-readers", "false-sharing",
                   "migratory-token")
THREADS = 4
SCALE = 0.03
#: operations per block of the schedule, by kind (47 in all; see the
#: module docstring for where the weights come from); a block is this
#: workload's pass
MIX = (("analyze", 32), ("simulate", 3), ("trace", 3), ("compare", 2),
       ("resubmit", 7))
ROUND = sum(count for _, count in MIX)
#: blocks settled before the timed region: they carry the first uploads,
#: the first run of each trace job and the server's first-use costs
WARMUP_BLOCKS = 2
#: blocks the timed region settles at least, however short ``--seconds``:
#: 235 jobs, so that ten latencies lie beyond the p95
MIN_BLOCKS = 5

_ACCESSES = re.compile(r"^stats\.accesses: (\d+)$", re.M)


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Schedule:
    """The seeded, endless list of operations the client takes.

    Operations come in blocks of :data:`ROUND` with a fixed composition
    (:data:`MIX`); workloads, traces and protocols rotate through each
    kind, and the seed shuffles the order inside each block and draws
    the program seeds and resubmission targets.  So every seed loads the
    service with the same mix, as different inputs.  Once
    ``max_blocks`` blocks have begun it starts no new one: :meth:`next`
    returns None.
    """

    def __init__(self, seed: int, traces: list) -> None:
        self._rng = random.Random(seed)
        self._traces = traces  # (path, digest)
        self._block: list[str] = []
        self._turn: dict[str, int] = {}
        self.ops: list[tuple] = []  # (kind, spec, trace_path or None)
        self.max_blocks = float("inf")
        self.blocks = 0

    def _rotate(self, kind: str, choices):
        turn = self._turn.get(kind, 0)
        self._turn[kind] = turn + 1
        return choices[turn % len(choices)]

    def next(self) -> tuple[int, tuple] | None:
        from repro.service import JobSpec

        if not self._block:
            if self.blocks >= self.max_blocks:
                return None
            self.blocks += 1
            self._block = [kind for kind, count in MIX for _ in range(count)]
            self._rng.shuffle(self._block)
        kind = self._block.pop()
        index = len(self.ops)
        if kind == "resubmit" and not self.ops:
            kind = "simulate"
        if kind == "resubmit":
            op = ("resubmit",) + self.ops[self._rng.randrange(index)][1:]
        elif kind == "trace":
            path, digest = self._rotate("trace", self._traces)
            protocol = self._rotate("trace-protocol", PROTOCOLS)
            op = ("trace", JobSpec(kind="simulate", trace=digest,
                                   protocols=(protocol,)), path)
        else:
            common_args = dict(
                kind=kind, workload=self._rotate(kind, WORKLOADS),
                threads=THREADS, scale=SCALE,
                seed=self._rng.randrange(1, 10**6),
            )
            if kind == "compare":
                common_args["protocols"] = ("mesi", "ce", "arc")
            elif kind == "simulate":
                common_args["protocols"] = (self._rotate("protocol", PROTOCOLS),)
            op = (kind, JobSpec(**common_args), None)
        self.ops.append(op)
        return index, op


class ServiceWorkload(common.Workload):
    name = "service-mixed"
    probes = 3

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        self.server = None
        self.outcomes: list[dict] = []
        self.server_rss_mb = None
        self.trace_out = None

    # -- set-up -------------------------------------------------------------

    def setup(self, tracer=None) -> None:
        from repro.service.client import ServiceClient
        from repro.service.tracestore import TraceStore
        from repro.synth import base
        from repro.trace import binio

        self.stop_server()
        tag = "traced" if tracer is not None else "plain"
        trace_dir = common.fresh_dir(f"service-traces-{tag}")
        rng = random.Random(self.seed)
        self.traces = []
        for name in TRACE_WORKLOADS:
            program = base.generate(name, num_threads=THREADS,
                                    seed=rng.randrange(1, 10**6), scale=SCALE)
            path = trace_dir / f"{name}.rtb"
            binio.save_program_bin(program, path)
            self.traces.append(path)
        # the digests the store will assign, from a local store over the
        # same files (also the reference's trace source)
        self.local_store = TraceStore.open(common.fresh_dir(f"service-local-{tag}"))
        self.traces = [(path, self.local_store.put_file(path).digest)
                       for path in self.traces]
        self.schedule = Schedule(self.seed, self.traces)
        if tracer is not None:
            self.trace_out = common.WORK / "service-server-spans.json"
            self.trace_out.unlink(missing_ok=True)
            for method, name in (("upload_trace", "upload"), ("submit", "submit"),
                                 ("wait", "wait"), ("result_bytes", "result")):
                tracer.patch(ServiceClient, method, f"service.client.{name}")
        self.start_server()

    def start_server(self) -> None:
        from repro.common.errors import ServiceError
        from repro.service.client import ServiceClient

        data_dir = common.fresh_dir("service-data")
        for _ in range(3):
            port = _free_port()
            command = [sys.executable, str(common.ROOT / "perfbench" / "serve.py")]
            if self.trace_out is not None:
                command += ["--trace-out", str(self.trace_out)]
            command += ["--", "--host", "127.0.0.1", "--port", str(port),
                        "--data-dir", str(data_dir),
                        "--workers", "1", "--quiet"]
            self.log = open(common.WORK / "service-server.log", "ab")
            self.server = subprocess.Popen(
                command, cwd=common.ROOT, env=common.child_env(),
                stdout=self.log, stderr=subprocess.STDOUT,
            )
            self.url = f"http://127.0.0.1:{port}"
            deadline = time.monotonic() + 60
            while self.server.poll() is None and time.monotonic() < deadline:
                try:
                    if ServiceClient(self.url, timeout=5).health().get("ok"):
                        return
                except (OSError, ServiceError):
                    time.sleep(0.02)
            self.stop_server()
        raise RuntimeError("repro-serve did not become healthy; see "
                           ".perfbench/service-server.log")

    def stop_server(self) -> None:
        if self.server is None:
            return
        if self.server.poll() is None:
            self.server.send_signal(signal.SIGINT)
            try:
                self.server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
        self.log.close()
        self.server = None

    def close(self) -> None:
        self.stop_server()

    # -- the closed loop ------------------------------------------------------

    def _client(self, out: list, blocks: int) -> None:
        """Run the next ``blocks`` blocks of the schedule, one operation
        at a time, appending each operation's outcome to ``out``."""
        from repro.service import JobState
        from repro.service.client import ServiceClient

        self.schedule.max_blocks = self.schedule.blocks + blocks
        client = ServiceClient(self.url, timeout=120)
        while (item := self.schedule.next()) is not None:
            index, (kind, spec, path) = item
            outcome = {"index": index, "kind": kind, "spec": spec}
            start = time.perf_counter()
            try:
                if path is not None:
                    client.upload_trace(path)
                    start = time.perf_counter()
                record, deduped = client.submit(spec)
                final = client.wait(record.id, timeout=120)
                if final.state is JobState.DONE:
                    outcome["body"] = client.result_bytes(record.id)
                else:
                    outcome["error"] = f"job ended {final.state.value}: {final.error}"
                outcome["deduped"] = deduped
            except Exception as exc:  # noqa: BLE001 - a failed operation, counted
                outcome["error"] = f"{type(exc).__name__}: {exc}"
            outcome["latency"] = time.perf_counter() - start
            out.append(outcome)

    def _cpu(self) -> float:
        """CPU seconds used so far by the server and this load generator."""
        return common.cpu_s(self.server.pid) + common.cpu_s()

    def child_cpu_s(self) -> float:
        return common.cpu_s(self.server.pid)

    def measure(self, seconds: float, baseline: bool = False) -> dict:
        """Warm up, then settle whole blocks for ``seconds`` and at least
        :data:`MIN_BLOCKS` blocks."""
        warmup: list[dict] = []
        self._client(warmup, WARMUP_BLOCKS)
        outcomes: list[dict] = []
        blocks: list[float] = []  # CPU seconds per block
        start = time.perf_counter()
        while (len(blocks) < MIN_BLOCKS
               or time.perf_counter() - start < seconds):
            cpu = self._cpu()
            self._client(outcomes, 1)
            blocks.append(self._cpu() - cpu)
        elapsed = time.perf_counter() - start
        rss = common.peak_rss_mb(self.server.pid)
        if self.server_rss_mb is None:
            self.server_rss_mb = rss
        self.outcomes.extend(warmup + outcomes)
        return {
            "elapsed": elapsed,
            "latencies": [o["latency"] for o in outcomes],
            "passes": [elapsed / len(blocks)],
            "cpu_s": common.median(blocks),
            "events_per_pass": ROUND * self._events_per_job(outcomes),
            "blocks": blocks,
        }

    def _events_per_job(self, outcomes: list[dict]) -> float:
        """Mean simulated accesses per operation over the run's first
        two blocks, which every run of a seed settles alike."""
        first = sorted(outcomes, key=lambda o: o["index"])[:2 * ROUND]
        return sum(self._events(o) for o in first) / len(first)

    @staticmethod
    def _events(outcome: dict) -> int:
        """Memory accesses a job simulated (0 when deduped or analyze)."""
        if outcome.get("deduped", True) or "body" not in outcome:
            return 0
        return sum(int(n) for n in _ACCESSES.findall(
            outcome["body"].decode("utf-8").replace("\\n", "\n")))

    def peak_rss_mb(self) -> float:
        return self.server_rss_mb

    def notes(self) -> list[str]:
        kinds: dict[str, int] = {}
        for outcome in self.outcomes:
            kinds[outcome["kind"]] = kinds.get(outcome["kind"], 0) + 1
        deduped = sum(1 for o in self.outcomes if o.get("deduped"))
        return [f"service mix: {sorted(kinds.items())}, {deduped} deduped, "
                "1 client, 1 worker"]

    # -- correctness -----------------------------------------------------------

    def references(self) -> dict:
        from repro.service.jobs import execute_job, render_payload

        table = {}
        for outcome in self.outcomes:
            spec = outcome["spec"]
            if spec not in table:
                table[spec] = render_payload(
                    execute_job(spec, store=self.local_store)
                ).encode("utf-8")
        return table

    def verify(self, references) -> tuple[int, int, list[str]]:
        failed, notes = 0, []
        for outcome in self.outcomes:
            if "error" in outcome:
                failed += 1
                notes.append(f"FAILED op {outcome['index']}: {outcome['error']}")
            elif outcome["body"] != references[outcome["spec"]]:
                failed += 1
                notes.append(f"MISMATCH op {outcome['index']} ({outcome['kind']}): "
                             "served body differs from execute_job")
        return len(self.outcomes), failed, notes

    def collect_trace(self, tracer) -> None:
        import json

        if self.trace_out is not None and self.trace_out.exists():
            tracer.merge(json.loads(self.trace_out.read_text()))

"""Spans around the program's public functions, kept in the benchmark.

A traced run installs wrappers on the public entry points of each layer
(the table in :func:`install`) before any workload object is built.
Each wrapped call opens a span on a per-thread stack.  When it closes,
its duration goes to the span name's totals, and the parent span is
charged for it, so a span's *self* time is its duration minus the time
its child spans cover.

Fine-grained spans (one per protocol access or cache lookup) are only
aggregated: calls, total seconds, self seconds.  Coarse spans (one per
simulation, point, experiment or job) are also kept in memory as
``(name, start, end, parent, request_id)`` records and written out with
the report when the run ends.  The request id is the service job id or
the experiment id a span serves, inherited by the spans opened inside
it, or ``<program>.<protocol>`` for a simulation run on its own.

Nothing is wrapped in an untraced run, so the end-to-end numbers are
taken with the program exactly as shipped.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

_perf = time.perf_counter


class Tracer:
    """Per-thread span stacks, merged totals, coarse span records."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict] = []  # one {name: [calls, total, self]} per thread
        self.records: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.rows: dict[str, list[float]] = defaultdict(lambda: [0.0, 0])
        self.paused = False
        self._patches: list[tuple[object, str, object]] = []

    # -- per-thread state ----------------------------------------------------

    def _thread_stack(self) -> list:
        """Create this thread's span stack and totals table."""
        local = self._local
        local.stack = []
        local.table = {}
        with self._lock:
            self._tables.append(local.table)
        return local.stack

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def row(self, name: str, seconds: float, events: int) -> None:
        with self._lock:
            entry = self.rows[name]
            entry[0] += seconds
            entry[1] += events

    # -- spans -----------------------------------------------------------------

    def wrap(self, fn, name: str, *, record: bool = False, request=None,
             rid=None, after=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``request(args)`` names the request a span serves when the call
        starts; spans opened inside it inherit that id.  ``rid(args,
        result)`` names it from the result, for a span that has none to
        inherit.  ``after(args, result, seconds)`` folds counters from
        the call.  A call made while a span of the same name is already
        innermost (a ``super()`` chain) is not counted twice.
        """
        tracer = self
        local = self._local
        perf = _perf

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            try:
                stack = local.stack
            except AttributeError:
                stack = tracer._thread_stack()
            if stack:
                top = stack[-1]
                if top[0] == name:
                    return fn(*args, **kwargs)
                owner = top[2]
            else:
                top = owner = None
            if request is not None:
                owner = request(args)
            frame = [name, 0.0, owner]
            stack.append(frame)
            start = perf()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                seconds = perf() - start
                stack.pop()
                totals = local.table.get(name)
                if totals is None:
                    totals = local.table[name] = [0, 0.0, 0.0]
                totals[0] += 1
                totals[1] += seconds
                totals[2] += seconds - frame[1]
                if top is not None:
                    top[1] += seconds
                if record:
                    if owner is None and rid is not None:
                        owner = rid(args, result)
                    tracer.records.append((name, start, start + seconds,
                                           top[0] if top else None, owner))
                if after is not None and result is not None:
                    after(args, result, seconds)

        traced.__wrapped_by_perfbench__ = True
        return traced

    def patch(self, owner, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr`` by its traced wrapper (undone by
        :meth:`uninstall`).  For a module-level function every loaded
        ``repro`` module that imported it by name is patched too."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if getattr(original, "__wrapped_by_perfbench__", False):
            return
        wrapped = self.wrap(original, name, **options)
        targets = [owner]
        if not isinstance(owner, type):
            targets += [
                module for mod_name, module in list(sys.modules.items())
                if mod_name.startswith("repro") and module is not owner
                and getattr(module, attr, None) is original
            ]
        for target in targets:
            self._patches.append((target, attr, original))
            setattr(target, attr, wrapped)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    # -- totals ----------------------------------------------------------------

    def totals(self) -> dict[str, list[float]]:
        """``{name: [calls, total_s, self_s]}`` merged over all threads."""
        merged: dict[str, list[float]] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, (calls, total, own) in list(table.items()):
                entry = merged.setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += total
                entry[2] += own
        return merged

    def merge(self, dump: dict) -> None:
        """Fold in another process's :meth:`dump` (the traced server)."""
        with self._lock:
            table: dict = {}
            self._tables.append(table)
            for name, values in dump["totals"].items():
                table[name] = list(values)
            for name, value in dump["counters"].items():
                self.counters[name] += value
            self.records.extend(tuple(r) for r in dump["records"])

    def dump(self) -> dict:
        return {
            "totals": self.totals(),
            "counters": dict(self.counters),
            "records": [list(r) for r in self.records],
        }


# -- what gets wrapped --------------------------------------------------------------


def _program_events(program) -> int:
    return sum(len(trace) for trace in program.traces)


def install(tracer: Tracer, *, server: bool = False) -> None:
    """Wrap the public functions of every layer.

    ``server`` adds the service's server-side layers (queue, workers,
    trace store, HTTP handler); the client side adds its own spans.
    """
    import os

    import repro.protocols  # noqa: F401  (registers every protocol class)
    from repro.core import batch, machine, simulator
    from repro.energy import model as energy
    from repro.harness import executor, experiments, result_cache, tables
    from repro.mem import cache, dram
    from repro.noc import network
    from repro.protocols import base as protocol_base
    from repro.synth import base as synth
    from repro.trace import binio, validate

    def after_generate(args, program, seconds):
        tracer.count("synth.events", _program_events(program))

    def after_run(args, result, seconds):
        sim = args[0]
        stats = result.stats
        tracer.count("core.mem_events", stats.accesses)
        tracer.count("mem.l1_hits", stats.l1_hits)
        tracer.count("mem.l1_accesses", stats.l1_accesses)
        tracer.count("noc.flit_hops", result.flit_hops)
        tracer.count("mem.dram.offchip_bytes", result.offchip_bytes)
        tracer.count("protocols.conflicts", result.num_conflicts)
        tracer.row(f"{sim.program.name}.{sim.cfg.protocol.value}",
                   seconds, stats.accesses)

    def after_read(args, program, seconds):
        tracer.count("trace.binio.bytes", os.path.getsize(args[0].path))

    def after_write(args, result, seconds):
        tracer.count("trace.binio.bytes", os.path.getsize(args[1]))

    def after_cache_get(args, value, seconds):
        tracer.count("harness.result_cache.hits")

    # synth, trace
    tracer.patch(synth, "generate", "synth.build", after=after_generate)
    tracer.patch(validate, "validate_program", "trace.validate")
    tracer.patch(binio, "save_program_bin", "trace.binio.write",
                 after=after_write)
    tracer.patch(binio.BinTraceReader, "read_program", "trace.binio.read",
                 after=after_read)
    tracer.patch(binio, "scan_rtb", "trace.binio.scan")
    # core
    tracer.patch(batch, "make_simulator", "core.construct")
    tracer.patch(batch, "classify_program", "core.batch.classify")
    tracer.patch(simulator.Simulator, "run", "core.run", record=True,
                 rid=lambda args, result: f"{args[0].program.name}."
                 f"{args[0].cfg.protocol.value}", after=after_run)
    # protocols: every concrete entry point, super() chains counted once
    for cls in _subclasses(protocol_base.CoherenceProtocol):
        if "access" in cls.__dict__:
            tracer.patch(cls, "access", "protocols.access")
        if "region_boundary" in cls.__dict__:
            tracer.patch(cls, "region_boundary", "protocols.boundary")
    # mem, noc, energy
    for method in ("get", "contains", "insert", "invalidate", "peek_victim",
                   "invalidate_where"):
        tracer.patch(cache.SetAssocCache, method, "mem.cache")
    tracer.patch(machine.Machine, "llc_data_access", "mem.llc")
    tracer.patch(dram.DramModel, "access", "mem.dram")
    tracer.patch(network.MeshNetwork, "send", "noc.send")
    tracer.patch(energy, "compute_energy", "energy")
    # harness
    tracer.patch(executor.Executor, "run_points", "harness.executor.run_points",
                 record=True)
    tracer.patch(result_cache.ResultCache, "put", "harness.result_cache.put",
                 record=server)
    tracer.patch(result_cache.ResultCache, "get", "harness.result_cache.get",
                 after=after_cache_get)
    tracer.patch(tables.TextTable, "render", "harness.tables.render")
    tracer.patch(experiments, "run_experiment", "harness.experiment",
                 record=True, request=lambda args: args[0])
    if server:
        _install_server(tracer)


def _install_server(tracer: Tracer) -> None:
    from repro.service import jobs, queue, server, tracestore, worker

    def after_submit(args, result, seconds):
        tracer.count("service.queue.submits")
        if result[1]:
            tracer.count("service.queue.deduped")

    tracer.patch(queue.JobQueue, "submit", "service.queue.submit", record=True,
                 rid=lambda args, result: result[0].id if result else None,
                 after=after_submit)
    tracer.patch(queue.JobQueue, "claim", "service.queue.claim", record=True,
                 rid=lambda args, result: result.id if result else None)
    tracer.patch(queue.JobQueue, "complete", "service.queue.complete",
                 record=True, request=lambda args: args[1])
    tracer.patch(jobs, "execute_job", "service.jobs.execute")
    tracer.patch(worker.Worker, "run_one", "service.worker.run_one",
                 record=True, request=lambda args: args[1].id)
    tracer.patch(tracestore.TraceStore, "put_stream",
                 "service.tracestore.publish")
    tracer.patch(server.ServiceHandler, "do_GET", "service.http.get")
    tracer.patch(server.ServiceHandler, "do_POST", "service.http.post")


def _subclasses(cls) -> list[type]:
    out, todo = [], [cls]
    while todo:
        current = todo.pop()
        out.append(current)
        todo.extend(current.__subclasses__())
    return out


# -- the report ---------------------------------------------------------------------

#: spans reported as ``<name>_calls``, ``<name>_s`` and ``<name>_self_s``
SPANS = (
    "synth.build", "trace.validate", "trace.binio.write", "trace.binio.read",
    "trace.binio.scan", "core.construct", "core.batch.classify", "core.run",
    "protocols.access", "protocols.boundary", "mem.cache", "mem.llc",
    "mem.dram", "noc.send", "energy", "harness.experiment",
    "harness.executor.run_points", "harness.result_cache.put",
    "harness.result_cache.get", "harness.tables.render",
    "service.client.upload", "service.client.submit", "service.client.wait",
    "service.client.result", "service.http.get", "service.http.post",
    "service.queue.submit", "service.queue.claim", "service.queue.complete",
    "service.jobs.execute", "service.worker.run_one",
    "service.tracestore.publish",
)


def overhead(untraced: dict, traced: dict) -> float:
    """Traced time per operation over untraced, minus one."""
    per_op = lambda m: m["elapsed"] / len(m["latencies"])  # noqa: E731
    return per_op(traced) / per_op(untraced) - 1.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _median(values) -> float:
    import statistics

    return float(statistics.median(values)) if values else 0.0


def layer_metrics(tracer: Tracer, *, verify_s: float, overhead: float) -> dict:
    """Every per-layer metric, ``{name: {"value", "unit"}}``."""
    totals = tracer.totals()
    counters = tracer.counters
    out: dict[str, tuple[float, str]] = {}
    for name in SPANS:
        calls, total, own = totals.get(name, (0, 0.0, 0.0))
        out[f"{name}_calls"] = (calls, "count")
        out[f"{name}_s"] = (total, "s")
        out[f"{name}_self_s"] = (own, "s")
    out["verify.render_s"] = (verify_s, "s")
    events = counters["core.mem_events"]
    access_calls = totals.get("protocols.access", (0, 0.0, 0.0))[0]
    out["synth.events"] = (counters["synth.events"], "count")
    out["core.mem_events"] = (events, "count")
    out["core.batch.fastpath_frac"] = (1.0 - _ratio(access_calls, events), "ratio")
    out["core.us_per_event"] = (_ratio(out["core.run_s"][0], events) * 1e6, "us")
    out["mem.l1_hit_frac"] = (
        _ratio(counters["mem.l1_hits"], counters["mem.l1_accesses"]), "ratio")
    for name in ("noc.flit_hops", "protocols.conflicts"):
        out[name] = (counters[name], "count")
    out["mem.dram.offchip_bytes"] = (counters["mem.dram.offchip_bytes"], "bytes")
    binio_s = out["trace.binio.write_s"][0] + out["trace.binio.read_s"][0]
    out["trace.binio.mb_per_s"] = (
        _ratio(counters["trace.binio.bytes"], binio_s) / 1e6, "MB/s")
    out["harness.result_cache.hit_frac"] = (
        _ratio(counters["harness.result_cache.hits"],
               out["harness.result_cache.get_calls"][0]), "ratio")
    for record in tracer.records:
        if record[0] == "harness.experiment":
            key = f"harness.experiment_s.{record[4]}"
            out[key] = (out.get(key, (0.0,))[0] + record[2] - record[1], "s")
    out["service.worker.journal_s"] = (sum(
        r[2] - r[1] for r in tracer.records
        if r[0] == "harness.result_cache.put" and r[3] == "service.worker.run_one"
    ), "s")
    submitted: dict[str, float] = {}
    waits = []
    for name, start, end, parent, request in sorted(tracer.records,
                                                    key=lambda r: r[2]):
        if name == "service.queue.submit" and request not in submitted:
            submitted[request] = end
        elif name == "service.queue.claim" and request in submitted:
            waits.append(end - submitted.pop(request))
    out["service.queue_wait_s"] = (_median(waits), "s")
    out["service.queue_wait_samples"] = (len(waits), "count")
    out["service.dedupe_frac"] = (
        _ratio(counters["service.queue.deduped"],
               counters["service.queue.submits"]), "ratio")
    out["tracing.overhead_frac"] = (overhead, "ratio")
    return {name: {"value": float(value), "unit": unit}
            for name, (value, unit) in out.items()}


def row_notes(tracer: Tracer) -> list[str]:
    """Host microseconds per simulated memory access, one line per
    (program, protocol) row, slowest first."""
    rows = sorted(
        ((seconds / events * 1e6 if events else 0.0, name)
         for name, (seconds, events) in tracer.rows.items()),
        reverse=True,
    )
    return [f"row core.us_per_event.{name} = {value:.3f} us"
            for value, name in rows]

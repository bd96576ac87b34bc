"""The service job queue: state machine, scheduling, exactly-once.

Two layers:

* **Unit tests** pin each transition of the
  ``PENDING → RUNNING → DONE/FAILED/TIMEOUT`` machine — dedupe,
  revival, lease expiry, heartbeats, owner-checked settlement,
  priority/cost/aging order, persistence across reopen.

* **A property test** drives the queue through arbitrary interleavings
  of ``submit`` / ``claim`` / ``heartbeat`` / ``advance-clock`` /
  ``complete`` / ``fail`` / worker crashes / process reopens on an
  injected fake clock, and asserts the invariants the service's
  correctness rests on after every step:

  - a job never successfully completes twice (exactly-once),
  - two workers never hold a live lease on the same job,
  - no submitted job is ever lost, whatever the interleaving,
  - attempts never exceed the budget, and a drained queue ends with
    every job terminal.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ServiceError
from repro.service.models import JobSpec, JobState
from repro.service.queue import JobQueue


def spec(seed: int = 1, kind: str = "analyze", **kw) -> JobSpec:
    kw.setdefault("workload", "lock-counter")
    kw.setdefault("threads", 2)
    return JobSpec(kind=kind, seed=seed, **kw)


class Clock:
    """An injectable, manually-advanced clock."""

    def __init__(self, start: float = 1000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock() -> Clock:
    return Clock()


@pytest.fixture
def queue(tmp_path, clock) -> JobQueue:
    with JobQueue(
        tmp_path / "q.sqlite", lease_seconds=10.0, max_attempts=3,
        aging_seconds=60.0, clock=clock,
    ) as q:
        yield q


class TestSubmission:
    def test_submit_returns_pending_record(self, queue):
        record, deduped = queue.submit(spec())
        assert not deduped
        assert record.state is JobState.PENDING
        assert record.attempts == 0
        assert record.id == spec().job_id()

    def test_identical_work_dedupes(self, queue):
        first, _ = queue.submit(spec())
        second, deduped = queue.submit(spec())
        assert deduped
        assert second.id == first.id
        assert queue.stats().pending == 1

    def test_scheduling_knobs_do_not_change_identity(self, queue):
        first, _ = queue.submit(spec(priority=1, timeout=5.0, retries=2))
        second, deduped = queue.submit(spec(priority=9))
        assert deduped and second.id == first.id

    def test_distinct_work_distinct_jobs(self, queue):
        a, _ = queue.submit(spec(seed=1))
        b, _ = queue.submit(spec(seed=2))
        assert a.id != b.id
        assert queue.stats().pending == 2

    def test_resubmit_failed_job_revives_it(self, queue, clock):
        record, _ = queue.submit(spec())
        claimed = queue.claim("w1")
        queue.fail(claimed.id, "w1", "boom", transient=False)
        assert queue.get(record.id).state is JobState.FAILED
        revived, deduped = queue.submit(spec())
        assert deduped
        assert revived.state is JobState.PENDING
        assert revived.attempts == 0
        assert revived.error is None

    def test_resubmit_done_job_stays_done(self, queue):
        record, _ = queue.submit(spec())
        claimed = queue.claim("w1")
        queue.complete(claimed.id, "w1", "rkey")
        again, deduped = queue.submit(spec())
        assert deduped and again.state is JobState.DONE


class TestClaimAndLease:
    def test_claim_leases_the_job(self, queue, clock):
        queue.submit(spec())
        record = queue.claim("w1")
        assert record.state is JobState.RUNNING
        assert record.owner == "w1"
        assert record.attempts == 1
        assert record.deadline == pytest.approx(clock.now + 10.0)

    def test_claim_empty_queue_returns_none(self, queue):
        assert queue.claim("w1") is None

    def test_claimed_job_is_not_reclaimable_while_leased(self, queue):
        queue.submit(spec())
        assert queue.claim("w1") is not None
        assert queue.claim("w2") is None

    def test_expired_lease_requeues(self, queue, clock):
        queue.submit(spec())
        record = queue.claim("w1")
        clock.advance(11.0)
        reclaimed = queue.claim("w2")
        assert reclaimed is not None
        assert reclaimed.id == record.id
        assert reclaimed.owner == "w2"
        assert reclaimed.attempts == 2

    def test_heartbeat_extends_the_lease(self, queue, clock):
        queue.submit(spec())
        record = queue.claim("w1")
        clock.advance(8.0)
        assert queue.heartbeat(record.id, "w1")
        clock.advance(8.0)  # past the original deadline, not the extended one
        assert queue.claim("w2") is None

    def test_heartbeat_after_expiry_is_rejected(self, queue, clock):
        queue.submit(spec())
        record = queue.claim("w1")
        clock.advance(11.0)
        assert not queue.heartbeat(record.id, "w1")

    def test_wrong_owner_heartbeat_rejected(self, queue):
        queue.submit(spec())
        record = queue.claim("w1")
        assert not queue.heartbeat(record.id, "w2")

    def test_attempt_exhaustion_parks_as_timeout(self, queue, clock):
        queue.submit(spec())
        for attempt in range(3):
            record = queue.claim(f"w{attempt}")
            assert record is not None
            clock.advance(11.0)
        assert queue.claim("w9") is None
        final = queue.get(record.id)
        assert final.state is JobState.TIMEOUT
        assert "lease expired" in final.error


class TestSettlement:
    def test_complete_is_owner_checked(self, queue):
        queue.submit(spec())
        record = queue.claim("w1")
        assert not queue.complete(record.id, "w2", "rkey")
        assert queue.complete(record.id, "w1", "rkey")
        final = queue.get(record.id)
        assert final.state is JobState.DONE
        assert final.result_key == "rkey"

    def test_complete_after_lease_loss_is_rejected(self, queue, clock):
        queue.submit(spec())
        record = queue.claim("w1")
        clock.advance(11.0)
        other = queue.claim("w2")  # reclaims the expired lease
        assert other.id == record.id
        assert not queue.complete(record.id, "w1", "rkey")
        assert queue.complete(record.id, "w2", "rkey")

    def test_double_complete_is_rejected(self, queue):
        queue.submit(spec())
        record = queue.claim("w1")
        assert queue.complete(record.id, "w1", "rkey")
        assert not queue.complete(record.id, "w1", "rkey")

    def test_transient_failure_requeues(self, queue):
        queue.submit(spec())
        record = queue.claim("w1")
        state = queue.fail(record.id, "w1", "flaky", transient=True)
        assert state is JobState.PENDING
        assert queue.get(record.id).error == "flaky"

    def test_transient_failure_exhausts_into_failed(self, queue):
        queue.submit(spec())
        for attempt in range(3):
            record = queue.claim("w1")
            state = queue.fail(record.id, "w1", "flaky", transient=True)
        assert state is JobState.FAILED

    def test_terminal_failure_fails_immediately(self, queue):
        queue.submit(spec())
        record = queue.claim("w1")
        assert queue.fail(record.id, "w1", "bad spec", transient=False) \
            is JobState.FAILED

    def test_fail_after_lease_loss_returns_none(self, queue, clock):
        queue.submit(spec())
        record = queue.claim("w1")
        clock.advance(11.0)
        queue.expire_leases()
        assert queue.fail(record.id, "w1", "late", transient=True) is None
        assert queue.get(record.id).state is JobState.PENDING


class TestScheduling:
    def test_priority_order(self, queue):
        bulk, _ = queue.submit(spec(seed=1, priority=9))
        urgent, _ = queue.submit(spec(seed=2, priority=0))
        assert queue.claim("w1").id == urgent.id

    def test_cheap_jobs_first_within_a_priority_band(self, queue):
        heavy, _ = queue.submit(spec(seed=1, threads=8, scale=2.0, priority=5))
        light, _ = queue.submit(spec(seed=2, threads=2, scale=0.1, priority=5))
        assert queue.claim("w1").id == light.id

    def test_fifo_breaks_cost_ties(self, queue):
        first, _ = queue.submit(spec(seed=1, priority=5))
        second, _ = queue.submit(spec(seed=2, priority=5))
        assert queue.claim("w1").id == first.id

    def test_aging_prevents_starvation(self, queue, clock):
        old_bulk, _ = queue.submit(spec(seed=1, priority=9))
        clock.advance(9 * 60.0)  # nine bands of waiting: 9 -> 0
        fresh_urgent, _ = queue.submit(spec(seed=2, priority=0))
        # both now at effective priority 0; FIFO gives the aged job the slot
        assert queue.claim("w1").id == old_bulk.id


class TestPersistence:
    def test_state_survives_reopen(self, tmp_path, clock):
        path = tmp_path / "q.sqlite"
        with JobQueue(path, clock=clock) as q:
            record, _ = q.submit(spec())
            q.claim("w1")
        with JobQueue(path, clock=clock) as q:
            survived = q.get(record.id)
            assert survived.state is JobState.RUNNING
            assert survived.owner == "w1"

    def test_orphaned_lease_recovers_after_reopen(self, tmp_path, clock):
        path = tmp_path / "q.sqlite"
        with JobQueue(path, lease_seconds=10.0, clock=clock) as q:
            record, _ = q.submit(spec())
            q.claim("w1")
        clock.advance(11.0)  # the claiming process is gone for good
        with JobQueue(path, lease_seconds=10.0, clock=clock) as q:
            reclaimed = q.claim("w2")
            assert reclaimed.id == record.id

    def test_rows_with_retired_knob_fields_stay_readable(self, tmp_path, clock):
        """Rows stored by versions whose specs still had ``engine`` and
        ``sanitize`` fields must open, list, claim and drain."""
        import json
        import sqlite3

        path = tmp_path / "q.sqlite"
        with JobQueue(path, clock=clock) as q:
            ids = [q.submit(spec(seed=s))[0].id for s in (1, 2)]
        conn = sqlite3.connect(path)
        for (job_id, stored), knobs in zip(
            conn.execute("SELECT id, spec FROM jobs ORDER BY seq").fetchall(),
            ({"engine": None, "sanitize": False},
             {"engine": "batch", "sanitize": True}),
        ):
            old = {**json.loads(stored), **knobs}
            conn.execute(
                "UPDATE jobs SET spec = ? WHERE id = ?",
                (json.dumps(old, sort_keys=True), job_id),
            )
        conn.commit()
        conn.close()
        with JobQueue(path, clock=clock) as q:
            assert sorted(r.id for r in q.list_jobs()) == sorted(ids)
            while (claimed := q.claim("w1")) is not None:
                assert claimed.spec == spec(seed=claimed.spec.seed)
                assert q.complete(claimed.id, "w1", "rkey")
            assert q.stats().pending == 0
            assert all(q.get(i).state is JobState.DONE for i in ids)

    def test_schema_mismatch_refuses_to_open(self, tmp_path):
        path = tmp_path / "q.sqlite"
        JobQueue(path).close()
        import sqlite3

        conn = sqlite3.connect(path)
        conn.execute("UPDATE meta SET value = '999' WHERE key = 'schema'")
        conn.commit()
        conn.close()
        with pytest.raises(ServiceError, match="schema 999"):
            JobQueue(path)

    def test_wait_for_sees_completion(self, queue):
        record, _ = queue.submit(spec())
        claimed = queue.claim("w1")
        queue.complete(claimed.id, "w1", "rkey")
        final = queue.wait_for(record.id, timeout=1.0)
        assert final.state is JobState.DONE


# --------------------------------------------------------------------------
# the state-machine property
# --------------------------------------------------------------------------

_N_SPECS = 3
_WORKERS = ("wa", "wb", "wc")

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.integers(0, _N_SPECS - 1)),
        st.tuples(st.just("claim"), st.sampled_from(_WORKERS)),
        st.tuples(st.just("heartbeat"), st.sampled_from(_WORKERS)),
        st.tuples(st.just("complete"), st.sampled_from(_WORKERS)),
        st.tuples(
            st.just("fail"), st.sampled_from(_WORKERS), st.booleans()
        ),
        st.tuples(st.just("crash"), st.sampled_from(_WORKERS)),
        st.tuples(st.just("advance"), st.floats(0.5, 30.0)),
        st.tuples(st.just("reopen")),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=60, deadline=None)
@given(ops=_ops)
def test_queue_state_machine_property(ops):
    """Any interleaving keeps exactly-once completion and loses nothing."""
    tmp = Path(tempfile.mkdtemp(prefix="repro-queue-prop-"))
    clock = Clock()
    queue = JobQueue(
        tmp / "q.sqlite", lease_seconds=10.0, max_attempts=3,
        aging_seconds=1e9, clock=clock,
    )
    submitted: set[str] = set()
    completions: dict[str, int] = {}
    held: dict[str, str | None] = {w: None for w in _WORKERS}
    try:
        for op in ops:
            if op[0] == "submit":
                record, _ = queue.submit(spec(seed=op[1]))
                submitted.add(record.id)
            elif op[0] == "claim":
                worker = op[1]
                if held[worker] is None:
                    record = queue.claim(worker)
                    if record is not None:
                        held[worker] = record.id
                        assert record.attempts <= record.max_attempts
                        # no two live leases on one job
                        others = [
                            w for w, j in held.items()
                            if j == record.id and w != worker
                        ]
                        for other in others:
                            # the other worker's lease must have expired
                            assert not queue.heartbeat(record.id, other)
                            held[other] = None
            elif op[0] == "heartbeat":
                worker = op[1]
                if held[worker] is not None:
                    if not queue.heartbeat(held[worker], worker):
                        held[worker] = None  # lease lost: abandon
            elif op[0] == "complete":
                worker = op[1]
                if held[worker] is not None:
                    if queue.complete(held[worker], worker, "rkey"):
                        completions[held[worker]] = (
                            completions.get(held[worker], 0) + 1
                        )
                    held[worker] = None
            elif op[0] == "fail":
                worker, transient = op[1], op[2]
                if held[worker] is not None:
                    queue.fail(held[worker], worker, "x", transient=transient)
                    held[worker] = None
            elif op[0] == "crash":
                held[op[1]] = None  # worker dies without settling
            elif op[0] == "advance":
                clock.advance(op[1])
            elif op[0] == "reopen":
                queue.close()
                queue = JobQueue(
                    tmp / "q.sqlite", lease_seconds=10.0, max_attempts=3,
                    aging_seconds=1e9, clock=clock,
                )
                held = {w: None for w in _WORKERS}

            # global invariants, after every step
            stats = queue.stats()
            assert (
                stats.pending + stats.running + stats.done
                + stats.failed + stats.timeout
            ) == len(submitted), "a job was lost or duplicated"
            assert all(count == 1 for count in completions.values()), \
                "a job completed twice"

        # drain: one worker finishes everything that remains runnable
        for _ in range(10 * len(submitted) + 10):
            clock.advance(11.0)  # expire any abandoned leases
            record = queue.claim("drainer")
            if record is None:
                if queue.stats().depth == 0:
                    break
                continue
            assert queue.complete(record.id, "drainer", "rkey")
            completions[record.id] = completions.get(record.id, 0) + 1
        final = queue.stats()
        assert final.depth == 0, "drain did not converge"
        assert final.done + final.failed + final.timeout == len(submitted)
        assert all(count == 1 for count in completions.values())
    finally:
        queue.close()

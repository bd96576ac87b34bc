"""End-to-end HTTP tests of the conflict-analysis service.

One real :class:`~repro.service.server.ConflictService` with an
in-process worker pool, bound to an ephemeral port; one real
:class:`~repro.service.client.ServiceClient` over actual sockets.
The heart of the suite is the equivalence test: a job's result fetched
over HTTP is byte-for-byte identical to executing the same spec
directly through :func:`~repro.service.jobs.execute_job` — the
contract that makes the service a *front door* rather than a fork of
the execution path.
"""

from __future__ import annotations

import threading

import pytest

from repro.service import ConflictService, JobSpec, JobState, make_server
from repro.service.client import ServiceClient, ServiceHTTPError
from repro.service.jobs import execute_job, render_payload
from repro.synth import generate
from repro.trace.io import save_program

WORKLOAD = "lock-counter"


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    svc = ConflictService(
        tmp_path_factory.mktemp("svc"), workers=2, lease_seconds=15.0
    )
    httpd = make_server(svc, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    svc.start()
    yield svc, httpd.server_address[1]
    httpd.shutdown()
    httpd.server_close()
    svc.stop()


@pytest.fixture(scope="module")
def client(service):
    _, port = service
    return ServiceClient(f"http://127.0.0.1:{port}", timeout=60.0)


@pytest.fixture(scope="module")
def sample_rtb(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "sample.rtb"
    save_program(generate(WORKLOAD, num_threads=2, seed=11, scale=0.05), path)
    return path


class TestDiscovery:
    def test_health(self, client):
        data = client.health()
        assert data["ok"] is True
        assert data["version"]

    def test_workloads_lists_the_registry(self, client):
        assert WORKLOAD in client.workloads()

    def test_protocols(self, client):
        assert set(client.protocols()) >= {"mesi", "moesi", "ce", "ce+", "arc"}

    def test_unknown_endpoint_is_404(self, client):
        with pytest.raises(ServiceHTTPError) as err:
            client._request("GET", "/api/nope")
        assert err.value.status == 404


class TestTraces:
    def test_upload_then_info(self, client, sample_rtb):
        info = client.upload_trace(sample_rtb)
        assert not info.existed
        assert info.threads == 2 and info.events > 0
        again = client.trace_info(info.digest)
        assert again.digest == info.digest

    def test_reupload_dedupes(self, client, sample_rtb):
        assert client.upload_trace(sample_rtb).existed

    def test_damaged_upload_is_rejected_and_not_stored(self, client, service):
        svc, _ = service
        before = set(svc.store.digests())
        with pytest.raises(ServiceHTTPError) as err:
            client._request(
                "POST", "/api/traces", body=b"not an rtb at all",
                headers={"Content-Length": "17"},
            )
        assert err.value.status == 400
        assert set(svc.store.digests()) == before
        # and no .tmp- residue was left behind either
        assert not list(svc.store.root.rglob(".tmp-*"))

    def test_unknown_trace_info_is_404(self, client):
        with pytest.raises(ServiceHTTPError) as err:
            client.trace_info("0" * 64)
        assert err.value.status == 404


class TestJobs:
    def test_compare_result_is_byte_identical_to_direct_run(self, client):
        spec = JobSpec(
            kind="compare", workload=WORKLOAD, threads=2, scale=0.05,
            protocols=("mesi", "ce"),
        )
        remote = client.run(spec, timeout=300.0)
        local = render_payload(execute_job(spec)).encode("utf-8")
        assert remote == local

    def test_trace_job_matches_direct_run(self, client, service, sample_rtb):
        svc, _ = service
        digest = client.upload_trace(sample_rtb).digest
        spec = JobSpec(kind="analyze", trace=digest)
        remote = client.run(spec, timeout=300.0)
        local = render_payload(
            execute_job(spec, store=svc.store)
        ).encode("utf-8")
        assert remote == local

    def test_resubmission_dedupes_onto_the_done_job(self, client):
        spec = JobSpec(kind="analyze", workload=WORKLOAD, threads=2, scale=0.05)
        record, deduped = client.submit(spec)
        assert not deduped
        final = client.wait(record.id, timeout=300.0)
        assert final.state is JobState.DONE
        again, deduped = client.submit(spec)
        assert deduped
        assert again.id == record.id and again.state is JobState.DONE
        # same canonical bytes served straight from the journaled result
        assert client.result_bytes(again.id) == client.result_bytes(record.id)

    def test_long_poll_returns_terminal_state(self, client):
        spec = JobSpec(
            kind="simulate", workload=WORKLOAD, threads=2, scale=0.05,
            protocols=("mesi",), seed=3,
        )
        record, _ = client.submit(spec)
        final = client.job(record.id, wait=120.0)
        assert final.state.terminal

    def test_result_before_done_is_409(self, tmp_path):
        # a front door with no workers: nothing can finish the job
        svc = ConflictService(tmp_path / "frontdoor", workers=0)
        httpd = make_server(svc, port=0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            own = ServiceClient(f"http://127.0.0.1:{httpd.server_address[1]}")
            record, _ = own.submit(
                JobSpec(kind="analyze", workload=WORKLOAD, seed=991)
            )
            with pytest.raises(ServiceHTTPError) as err:
                own.result_bytes(record.id)
            assert err.value.status == 409
            assert "PENDING" in str(err.value)
        finally:
            httpd.shutdown()
            httpd.server_close()
            svc.stop()

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceHTTPError) as err:
            client.job("d" * 64)
        assert err.value.status == 404

    def test_malformed_spec_is_400(self, client):
        with pytest.raises(ServiceHTTPError) as err:
            client._post_json("/api/jobs", {"kind": "nonsense"})
        assert err.value.status == 400
        assert "unknown job kind" in str(err.value)

    def test_unknown_spec_field_is_400(self, client):
        with pytest.raises(ServiceHTTPError) as err:
            client._post_json(
                "/api/jobs",
                {"kind": "analyze", "workload": WORKLOAD, "frobnicate": 1},
            )
        assert err.value.status == 400

    @pytest.mark.parametrize("field", ["engine", "sanitize"])
    def test_retired_knob_field_is_400(self, client, field):
        with pytest.raises(ServiceHTTPError) as err:
            client._post_json(
                "/api/jobs",
                {"kind": "analyze", "workload": WORKLOAD, field: None},
            )
        assert err.value.status == 400
        assert "unknown job spec field" in str(err.value)

    def test_unknown_workload_fails_the_job_not_the_submit(self, client):
        spec = JobSpec(kind="analyze", workload="no-such-workload")
        record, _ = client.submit(spec)
        final = client.wait(record.id, timeout=60.0)
        assert final.state is JobState.FAILED
        assert "unknown workload" in final.error

    def test_list_jobs_filters_by_state(self, client):
        done = client.list_jobs(state="DONE")
        assert done and all(r.state is JobState.DONE for r in done)

    def test_stats_counts_add_up(self, client):
        stats = client.stats()
        queue = stats["queue"]
        assert queue["depth"] == queue["pending"] + queue["running"]
        assert stats["workers"] == 2
        assert stats["cache"]["stores"] >= 1


class TestConcurrentClients:
    def test_many_short_lived_clients_converge(self, client, service):
        svc, port = service
        errors: list[BaseException] = []
        ids: list[str] = []
        lock = threading.Lock()

        def one_client(index: int) -> None:
            try:
                own = ServiceClient(f"http://127.0.0.1:{port}", timeout=60.0)
                spec = JobSpec(
                    kind="analyze", workload=WORKLOAD, threads=2,
                    scale=0.05, seed=100 + index % 3,
                )
                record, _ = own.submit(spec)
                final = own.wait(record.id, timeout=300.0)
                assert final.state is JobState.DONE
                payload = own.result(record.id)
                assert payload["job"]["seed"] == 100 + index % 3
                with lock:
                    ids.append(record.id)
            except BaseException as exc:  # noqa: B902 - collected for assert
                with lock:
                    errors.append(exc)

        threads = [
            threading.Thread(target=one_client, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300.0)
        assert not errors, errors
        # 8 clients, 3 distinct specs: dedupe collapses onto 3 jobs
        assert len(set(ids)) == 3

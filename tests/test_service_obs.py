"""Observability tests against a live service: /metrics scrapes,
healthz-as-registry-view consistency, drain semantics, and the SIGTERM
graceful-drain e2e with its bitwise-equal checkpoint guarantee."""

import http.client
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.protocol import Protocol
from repro.service import (
    IngestionServer,
    ServiceClient,
    ServiceError,
    SnapshotStore,
)
from repro.obs.lifecycle import DrainResult, DrainState

SEED = 77
N = 40


@pytest.fixture
def serve():
    running = []

    def _boot(*args, **kwargs):
        server = IngestionServer(*args, **kwargs).run_in_thread()
        running.append(server)
        return server

    yield _boot
    for server in running:
        server.stop()


def _users(n, prefix="u"):
    return [f"{prefix}{i}" for i in range(n)]


def _protocol():
    return Protocol.frequency(1.0, domain=10, oracle="oue")


def _scrape_raw(port):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
    try:
        connection.request("GET", "/metrics")
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        connection.close()


class TestMetricsEndpoint:
    def test_scrape_exposes_core_series(self, serve):
        server = serve(_protocol())
        client = ServiceClient("127.0.0.1", server.port)
        client.submit(
            np.arange(N) % 10, users=_users(N), rng=SEED
        )
        text = client.server_metrics_text()
        assert "# TYPE repro_batches_accepted_total counter" in text
        fp = server.registry.default.fingerprint
        assert (
            f'repro_batches_accepted_total{{campaign="{fp}"}} 1' in text
        )
        assert 'repro_ingest_batches_total{wire_version="2"} 1' in text
        # Pre-seeded zero for the legacy wire version — explicit, not absent.
        assert 'repro_ingest_batches_total{wire_version="1"} 0' in text
        assert "repro_uptime_seconds" in text
        assert "repro_draining 0" in text
        assert "repro_shard" not in text
        # Instrument-gated request-path series are on by default.
        assert "repro_request_seconds_bucket" in text
        assert 'repro_http_responses_total{endpoint="/report",status="200"} 1' in text
        assert "repro_user_budget_spent_epsilon_count" in text

    def test_content_type_is_prometheus_v0_0_4(self, serve):
        server = serve(_protocol())
        status, headers, body = _scrape_raw(server.port)
        assert status == 200
        assert headers["Content-Type"] == (
            "text/plain; version=0.0.4; charset=utf-8"
        )
        assert body.decode("utf-8").endswith("\n")

    def test_unknown_paths_collapse_to_other_label(self, serve):
        server = serve(_protocol())
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=5
        )
        try:
            connection.request("GET", "/no/such/page")
            connection.getresponse().read()
        finally:
            connection.close()
        text = ServiceClient("127.0.0.1", server.port).server_metrics_text()
        assert 'endpoint="other"' in text
        assert "/no/such/page" not in text

    def test_healthz_is_a_view_over_the_registry(self, serve):
        server = serve(_protocol())
        client = ServiceClient("127.0.0.1", server.port)
        client.submit(np.arange(N) % 10, users=_users(N), rng=SEED)
        client.submit(
            np.arange(N) % 10, users=_users(N, prefix="v"), rng=SEED + 1
        )
        health = client.healthz()
        registry = server.metrics.registry
        assert health["status"] == "ok"
        assert health["batches_accepted"] == 2
        # The counter is labelled per campaign now; healthz reports the
        # sum over campaigns.
        assert health["batches_accepted"] == registry.sample(
            "repro_batches_accepted_total",
            {"campaign": server.registry.default.fingerprint},
        )
        assert health["duplicates"] == registry.sample(
            "repro_duplicate_batches_total"
        )
        assert health["wire_versions"]["2"] == registry.sample(
            "repro_ingest_batches_total", {"wire_version": "2"}
        )
        assert health["users_charged"] == 2 * N

    def test_uninstrumented_server_keeps_state_metrics(self, serve):
        server = serve(_protocol(), instrument=False)
        client = ServiceClient("127.0.0.1", server.port)
        client.submit(np.arange(N) % 10, users=_users(N), rng=SEED)
        text = client.server_metrics_text()
        # Durable state counters survive instrument=False...
        fp = server.registry.default.fingerprint
        assert (
            f'repro_batches_accepted_total{{campaign="{fp}"}} 1' in text
        )
        assert 'repro_ingest_batches_total{wire_version="2"} 1' in text
        # ...but request-path observation is nulled out.
        assert "repro_request_seconds_bucket" not in text
        assert "repro_ingest_reports_total" not in text
        assert client.healthz()["batches_accepted"] == 1

    def test_duplicate_batches_counted(self, serve):
        server = serve(_protocol())
        client = ServiceClient("127.0.0.1", server.port)
        values = np.arange(N) % 10
        client.submit(
            values, users=_users(N), rng=SEED, idempotency_key="same-batch"
        )
        client.submit(
            values, users=_users(N), rng=SEED, idempotency_key="same-batch"
        )
        assert server.metrics.registry.sample(
            "repro_duplicate_batches_total"
        ) == 1


class TestClientMetrics:
    def test_client_tracks_its_own_requests(self, serve):
        server = serve(_protocol())
        client = ServiceClient("127.0.0.1", server.port)
        client.submit(np.arange(N) % 10, users=_users(N), rng=SEED)
        client.healthz()
        text = client.metrics_text()
        assert 'repro_client_responses_total{endpoint="/report",status="200"} 1' in text
        assert 'repro_client_responses_total{endpoint="/healthz",status="200"} 1' in text
        assert "repro_client_request_seconds_bucket" in text

    def test_connection_retries_counted(self):
        client = ServiceClient(
            "127.0.0.1", 1, retries=2, retry_delay=0.0, retry_max_delay=0.0
        )
        with pytest.raises(ConnectionError):
            client.healthz()
        assert (
            'repro_client_retries_total{reason="connection_error"} 2'
            in client.metrics_text()
        )


class TestDrainSemantics:
    def test_draining_server_refuses_new_batches_but_serves_reads(
        self, serve
    ):
        server = serve(_protocol())
        client = ServiceClient("127.0.0.1", server.port, retries=0)
        client.submit(np.arange(N) % 10, users=_users(N), rng=SEED)
        server.begin_drain()
        assert server.drain_state is DrainState.DRAINING
        with pytest.raises(ServiceError) as excinfo:
            client.submit(
                np.arange(N) % 10, users=_users(N, prefix="v"), rng=SEED
            )
        assert excinfo.value.status == 503
        assert excinfo.value.payload["error"] == "draining"
        # Reads still work: scrape, health, estimate.
        assert client.healthz()["status"] == "draining"
        assert "repro_draining 1" in client.server_metrics_text()
        assert client.estimate() is not None

    def test_drain_flushes_and_checkpoints(self, serve, tmp_path):
        server = serve(
            _protocol(),
            store=SnapshotStore(tmp_path),
            checkpoint_every=1000,
        )
        client = ServiceClient("127.0.0.1", server.port)
        for i in range(3):
            client.submit(
                np.arange(N) % 10,
                users=_users(N, prefix=f"b{i}-"),
                rng=SEED + i,
            )
        result = server.drain()
        assert isinstance(result, DrainResult)
        assert result.checkpoint_seq == 3
        assert result.batches_accepted == 3
        assert server.drain_state is DrainState.DRAINED
        assert SnapshotStore(tmp_path).latest_sequence() == 3
        assert client.healthz()["status"] == "drained"

    def test_drain_without_store_reports_no_checkpoint(self, serve):
        server = serve(_protocol())
        result = server.drain()
        assert result.checkpoint_seq is None

    def test_drain_is_idempotent(self, serve, tmp_path):
        server = serve(
            _protocol(), store=SnapshotStore(tmp_path), checkpoint_every=1000
        )
        client = ServiceClient("127.0.0.1", server.port)
        client.submit(np.arange(N) % 10, users=_users(N), rng=SEED)
        first = server.drain()
        second = server.drain()
        assert first.checkpoint_seq == second.checkpoint_seq == 1
        assert second.batches_accepted == 1


def _boot_cli(tmp_path, tag, extra_args):
    spec_path = tmp_path / "spec.json"
    if not spec_path.exists():
        spec_path.write_text(
            json.dumps(Protocol.frequency(1.0, domain=6).spec.to_dict())
        )
    env = dict(os.environ)
    root = Path(__file__).resolve().parent.parent
    env["PYTHONPATH"] = (
        f"{root / 'src'}{os.pathsep}{env.get('PYTHONPATH', '')}"
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-u", "-m", "repro.service",
            "--spec", str(spec_path),
            "--port", "0",
            "--snapshot-dir", str(tmp_path / tag),
            "--log-format", "json",
            *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    banner = proc.stdout.readline()
    assert "repro.service:" in banner, banner
    port = int(banner.split("http://127.0.0.1:")[1].split()[0])
    return proc, port


def _submit_twin_batches(port):
    """Three deterministic batches — identical across twin runs."""
    client = ServiceClient("127.0.0.1", port, retries=5)
    for i in range(3):
        client.submit(
            np.array([1, 2, 3, 1, 5, 0]),
            users=_users(6, prefix=f"b{i}-"),
            rng=i,
        )


def _snapshot_files(directory, seq):
    """(relative-name, bytes) for every seq-`seq` file, root + namespaces."""
    directory = Path(directory)
    name = f"snapshot-{seq:010d}.json"
    out = {name: (directory / name).read_bytes()}
    for child in sorted(p for p in directory.iterdir() if p.is_dir()):
        out[f"{child.name}/{name}"] = (child / name).read_bytes()
    return out


class TestSigtermDrain:
    def test_sigterm_drains_flushes_and_exits_zero(self, tmp_path):
        proc, port = _boot_cli(
            tmp_path, "drained", ["--checkpoint-every", "1000"]
        )
        try:
            _submit_twin_batches(port)
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=15)
        except BaseException:
            proc.kill()
            raise
        assert proc.returncode == 0, out + err
        assert "draining (SIGTERM)" in out
        assert "final checkpoint 3" in out
        assert "repro.service: stopped" in out
        # Structured stderr: every line is one JSON object, and the
        # drain lifecycle events are present.
        events = [json.loads(line)["event"] for line in err.splitlines()]
        assert "drain started" in events
        assert "checkpoint written" in events
        assert "drain complete" in events
        assert SnapshotStore(tmp_path / "drained").latest_sequence() == 3

    def test_drain_checkpoint_bitwise_equals_uninterrupted_twin(
        self, tmp_path
    ):
        # Twin A: never checkpoints on its own (interval 1000); the only
        # snapshot it writes is the final one from the SIGTERM drain.
        proc_a, port_a = _boot_cli(
            tmp_path, "a", ["--checkpoint-every", "1000"]
        )
        try:
            _submit_twin_batches(port_a)
            proc_a.send_signal(signal.SIGTERM)
            out_a, err_a = proc_a.communicate(timeout=15)
        except BaseException:
            proc_a.kill()
            raise
        assert proc_a.returncode == 0, out_a + err_a

        # Twin B: checkpoints after every batch — snapshot seq 3 is
        # written by the ordinary uninterrupted request path.  The
        # process is then killed abruptly so no shutdown code runs.
        proc_b, port_b = _boot_cli(
            tmp_path, "b", ["--checkpoint-every", "1"]
        )
        try:
            _submit_twin_batches(port_b)
            twin = _snapshot_files(tmp_path / "b", 3)
        finally:
            proc_b.kill()
            proc_b.communicate(timeout=15)

        drained = _snapshot_files(tmp_path / "a", 3)
        assert set(drained) == set(twin)
        for name in drained:
            assert drained[name] == twin[name], (
                f"snapshot file {name} differs between drained and "
                "uninterrupted runs"
            )

    def test_sigterm_before_any_traffic_exits_zero(self, tmp_path):
        proc, port = _boot_cli(
            tmp_path, "idle", ["--checkpoint-every", "1000"]
        )
        try:
            # Server is up (banner parsed); drain immediately.
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=15)
        except BaseException:
            proc.kill()
            raise
        assert proc.returncode == 0, out + err
        assert "draining (SIGTERM)" in out

"""End-to-end service tests against a live local server.

Each test boots a real :class:`IngestionServer` on an ephemeral
localhost port (asyncio loop in a daemon thread) and drives it through
the :class:`ServiceClient` SDK — the full client → wire → HTTP →
accountant → accumulator → estimate path, including kill-and-resume
from the latest snapshot.
"""

import json
import os
import signal
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.data import make_br_like
from repro.protocol import Protocol
from repro.protocol.reports import ColumnBlock
from repro.service import (
    IngestionServer,
    OverBudgetError,
    ServiceClient,
    ServiceError,
    SnapshotStore,
    wire,
)

SEED = 77
N = 200


def _cases():
    rng = np.random.default_rng(4)
    dataset = make_br_like(N, rng=np.random.default_rng(5))
    return {
        "mean": (Protocol.numeric_mean(1.0, "hm"), rng.uniform(-1, 1, N)),
        "frequency": (
            Protocol.frequency(1.0, domain=10, oracle="oue"),
            rng.integers(0, 10, N),
        ),
        "frequency-olh": (
            Protocol.frequency(1.0, domain=10, oracle="olh"),
            rng.integers(0, 10, N),
        ),
        "histogram": (
            Protocol.histogram(2.0, bins=8),
            rng.uniform(-1, 1, N),
        ),
        "multidim-numeric": (
            Protocol.multidim(4.0, d=4, mechanism="hm"),
            rng.uniform(-1, 1, (N, 4)),
        ),
        "multidim-mixed": (
            Protocol.multidim(4.0, schema=dataset.schema, mechanism="pm"),
            dataset,
        ),
    }


def _assert_estimates_bitwise_equal(a, b):
    if hasattr(a, "histogram"):
        np.testing.assert_array_equal(a.histogram, b.histogram)
        np.testing.assert_array_equal(a.raw, b.raw)
        return
    if hasattr(a, "frequencies"):
        assert a.means == b.means
        for key in a.frequencies:
            np.testing.assert_array_equal(
                a.frequencies[key], b.frequencies[key]
            )
        return
    np.testing.assert_array_equal(np.asarray(a), np.asarray(b))


@pytest.fixture
def serve():
    """Factory fixture: boot servers in threads, stop them at teardown."""
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


class TestEndToEnd:
    @pytest.mark.parametrize("name", sorted(_cases()))
    def test_estimate_matches_protocol_run_bitwise(self, serve, name):
        protocol, values = _cases()[name]
        server = serve(protocol)
        client = ServiceClient("127.0.0.1", server.port)
        client.submit(values, users=_users(N), rng=SEED)
        _assert_estimates_bitwise_equal(
            client.estimate(), protocol.run(values, rng=SEED)
        )

    def test_multiple_batches_fold_in_arrival_order(self, serve):
        protocol, values = _cases()["multidim-numeric"]
        server = serve(protocol)
        client = ServiceClient("127.0.0.1", server.port)
        reference = protocol.server()
        encoder = protocol.client()
        for i in range(4):
            chunk = values[i * 50 : (i + 1) * 50]
            reports = encoder.encode_batch(chunk, np.random.default_rng(i))
            reference.absorb(reports)
            client.submit_reports(
                reports, users=_users(50, prefix=f"b{i}-")
            )
        _assert_estimates_bitwise_equal(
            client.estimate(), reference.estimate()
        )
        assert client.healthz()["reports"] == N

    def test_spec_endpoint_rebuilds_identical_protocol(self, serve):
        protocol, _ = _cases()["frequency"]
        server = serve(protocol)
        client = ServiceClient("127.0.0.1", server.port)
        assert client.protocol.spec == protocol.spec
        assert client.fingerprint == server.fingerprint


class TestBudgetEnforcement:
    def test_over_budget_users_rejected_with_429(self, serve):
        protocol, values = _cases()["mean"]
        server = serve(protocol)  # lifetime defaults to spec epsilon
        client = ServiceClient("127.0.0.1", server.port)
        client.submit(values[:50], users=_users(50), rng=0)
        with pytest.raises(OverBudgetError) as excinfo:
            client.submit(values[:50], users=_users(50), rng=1)
        assert excinfo.value.status == 429
        assert set(excinfo.value.rejected_users) == set(_users(50))

    def test_rejection_is_atomic(self, serve):
        """One exhausted user poisons the whole batch: nothing absorbed,
        nobody charged."""
        protocol, values = _cases()["mean"]
        server = serve(protocol)
        client = ServiceClient("127.0.0.1", server.port)
        client.submit(values[:1], users=["veteran"], rng=0)
        before = client.healthz()
        with pytest.raises(OverBudgetError) as excinfo:
            client.submit(
                values[:3], users=["fresh-a", "veteran", "fresh-b"], rng=1
            )
        assert excinfo.value.rejected_users == ["veteran"]
        after = client.healthz()
        assert after["reports"] == before["reports"]
        assert after["users_charged"] == before["users_charged"]
        # The fresh users still have full budget: resubmitting without
        # the exhausted user succeeds.
        client.submit(values[:2], users=["fresh-a", "fresh-b"], rng=2)

    def test_duplicate_user_in_batch_charged_at_multiplicity(self, serve):
        """A user appearing twice in one batch must afford 2x epsilon —
        checked up front, so the batch is rejected cleanly (no partial
        charge, no 500) when they cannot."""
        protocol, values = _cases()["mean"]
        server = serve(protocol)  # lifetime == epsilon: 2x never fits
        client = ServiceClient("127.0.0.1", server.port)
        with pytest.raises(OverBudgetError) as excinfo:
            client.submit(values[:2], users=["dup", "dup"], rng=0)
        assert excinfo.value.rejected_users == ["dup"]
        health = client.healthz()
        assert health["reports"] == 0
        assert health["users_charged"] == 0
        # With room for both reports the batch is accepted and the user
        # is charged for each.
        roomy = serve(protocol, lifetime_epsilon=2.0)
        client2 = ServiceClient("127.0.0.1", roomy.port)
        client2.submit(values[:2], users=["dup", "dup"], rng=0)
        with pytest.raises(OverBudgetError):
            client2.submit(values[:1], users=["dup"], rng=1)

    def test_failed_absorb_does_not_consume_budget(self, serve):
        """Reports that decode but violate the protocol shape must not
        charge anyone: the corrected resubmission still has budget."""
        protocol, _ = _cases()["multidim-numeric"]  # expects (n, 4)
        server = serve(protocol)
        client = ServiceClient("127.0.0.1", server.port)
        with pytest.raises(ServiceError) as excinfo:
            client.submit_reports(np.zeros((3, 2)), users=_users(3))
        assert excinfo.value.status == 400
        assert client.healthz()["users_charged"] == 0
        # Same users, well-formed reports: accepted.
        good = client.encode(np.zeros((3, 4)), rng=0)
        assert client.submit_reports(good, _users(3))["status"] == "accepted"

    def test_higher_lifetime_allows_repeat_reports(self, serve):
        protocol, values = _cases()["mean"]
        server = serve(protocol, lifetime_epsilon=2.0)
        client = ServiceClient("127.0.0.1", server.port)
        client.submit(values[:10], users=_users(10), rng=0)
        client.submit(values[:10], users=_users(10), rng=1)  # 2nd eps=1.0
        with pytest.raises(OverBudgetError):
            client.submit(values[:10], users=_users(10), rng=2)


class TestIdempotency:
    def test_duplicate_key_not_double_counted(self, serve):
        protocol, values = _cases()["frequency"]
        server = serve(protocol)
        client = ServiceClient("127.0.0.1", server.port)
        reports = client.encode(values[:40], rng=3)
        first = client.submit_reports(reports, users=_users(40))
        est = client.estimate()
        # Same content -> same derived key -> duplicate, even from a
        # fresh SDK instance (e.g. a crashed-and-rerun client script).
        retry_client = ServiceClient("127.0.0.1", server.port)
        second = retry_client.submit_reports(reports, users=_users(40))
        assert first["status"] == "accepted"
        assert second["status"] == "duplicate"
        _assert_estimates_bitwise_equal(client.estimate(), est)
        assert client.healthz()["reports"] == 40

    def test_explicit_key(self, serve):
        protocol, values = _cases()["mean"]
        server = serve(protocol)
        client = ServiceClient("127.0.0.1", server.port)
        client.submit(values[:5], users=_users(5), rng=0,
                      idempotency_key="batch-0")
        dup = client.submit(
            values[5:10], users=_users(5, "other"), rng=1,
            idempotency_key="batch-0",
        )
        assert dup["status"] == "duplicate"


class TestRejections:
    def test_mismatched_fingerprint_rejected(self, serve):
        protocol, values = _cases()["mean"]
        server = serve(protocol)
        client = ServiceClient("127.0.0.1", server.port)
        envelope = wire.pack(
            {
                "users": ["u0"],
                "idempotency_key": None,
                "reports": wire.encode_reports(np.zeros(1)),
            },
            "0" * 64,
        )
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/report", envelope)
        assert excinfo.value.status == 409
        assert excinfo.value.payload["error"] == "spec_mismatch"
        assert client.healthz()["reports"] == 0

    def test_unknown_wire_version_rejected(self, serve):
        protocol, _ = _cases()["mean"]
        server = serve(protocol)
        client = ServiceClient("127.0.0.1", server.port)
        envelope = wire.pack({"users": ["u0"]}, server.fingerprint)
        envelope["wire_version"] = 99
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/report", envelope)
        assert excinfo.value.status == 400

    def test_user_report_count_mismatch_rejected(self, serve):
        protocol, values = _cases()["mean"]
        server = serve(protocol)
        client = ServiceClient("127.0.0.1", server.port)
        with pytest.raises(ServiceError) as excinfo:
            client.submit(values[:5], users=_users(3), rng=0)
        assert excinfo.value.status == 400

    def test_estimate_before_any_report_is_409(self, serve):
        protocol, _ = _cases()["mean"]
        server = serve(protocol)
        client = ServiceClient("127.0.0.1", server.port)
        with pytest.raises(ServiceError) as excinfo:
            client.estimate()
        assert excinfo.value.status == 409

    def test_unknown_path_404_and_wrong_method_405(self, serve):
        protocol, _ = _cases()["mean"]
        server = serve(protocol)
        client = ServiceClient("127.0.0.1", server.port)
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/report")
        assert excinfo.value.status == 405


def _with_header_key(frame, key):
    """A v2 frame whose header carries ``key`` verbatim (``pack_columns``
    would coerce it to a string)."""
    (head_len,) = struct.unpack("<I", frame[4:8])
    header = json.loads(frame[8 : 8 + head_len])
    header["idempotency_key"] = key
    head = json.dumps(header).encode("utf-8")
    return (
        frame[:4] + struct.pack("<I", len(head)) + head
        + frame[8 + head_len :]
    )


class TestIdempotencyKeyType:
    """A key that is not a string is a malformed envelope (400) on both
    wire versions, and leaves nothing behind that breaks checkpoints."""

    def _post(self, client, server, key, wire_version, users):
        protocol = server.protocol
        reports = protocol.client().encode_batch(
            np.arange(len(users)) % 10, np.random.default_rng(SEED)
        )
        if wire_version == wire.WIRE_VERSION:
            envelope = wire.pack(
                {
                    "users": users,
                    "idempotency_key": key,
                    "reports": wire.encode_reports(reports),
                },
                server.fingerprint,
            )
            return client._request("POST", "/report", envelope)
        frame = wire.pack_columns(
            wire.reports_to_columns(reports),
            server.fingerprint,
            users=users,
            idempotency_key="placeholder",
        )
        return client._request(
            "POST",
            "/report",
            raw_body=_with_header_key(frame, key),
            content_type=wire.COLUMNAR_CONTENT_TYPE,
        )

    @pytest.mark.parametrize(
        "wire_version", [wire.WIRE_VERSION, wire.WIRE_VERSION_COLUMNAR]
    )
    @pytest.mark.parametrize("key", [["a", "b"], 7])
    def test_rejected_as_bad_envelope_and_checkpoint_still_works(
        self, serve, tmp_path, key, wire_version
    ):
        protocol, _ = _cases()["frequency"]
        store = SnapshotStore(tmp_path)
        server = serve(protocol, store=store)
        client = ServiceClient("127.0.0.1", server.port)
        with pytest.raises(ServiceError) as excinfo:
            self._post(client, server, key, wire_version, _users(4))
        assert excinfo.value.status == 400
        assert excinfo.value.payload["error"] == "bad_envelope"
        assert client.healthz()["users_charged"] == 0
        accepted = self._post(
            client, server, "batch-0", wire_version, _users(4, "v")
        )
        assert accepted["status"] == "accepted"
        seq = client.checkpoint()
        payload = store.namespace(server.fingerprint).load(seq)
        assert payload["idempotency_keys"] == ["batch-0"]
        # The SIGTERM path's final checkpoint goes through the same code.
        assert server.drain().checkpoint_seq == seq


def _rewrite_header(frame, edit):
    """A v2 frame whose JSON header went through ``edit(header)``."""
    (head_len,) = struct.unpack("<I", frame[4:8])
    header = json.loads(frame[8 : 8 + head_len])
    edit(header)
    head = json.dumps(header).encode("utf-8")
    return (
        frame[:4] + struct.pack("<I", len(head)) + head
        + frame[8 + head_len :]
    )


def _post_v1(client, server, users, reports_json):
    envelope = wire.pack(
        {"users": users, "idempotency_key": None, "reports": reports_json},
        server.fingerprint,
    )
    return client._request("POST", "/report", envelope)


def _post_v2(client, frame):
    return client._request(
        "POST", "/report", raw_body=frame,
        content_type=wire.COLUMNAR_CONTENT_TYPE,
    )


def _assert_rejected_untouched(client, excinfo, error="bad_reports"):
    assert excinfo.value.status == 400
    assert excinfo.value.payload["error"] == error
    health = client.healthz()
    assert health["users_charged"] == 0
    assert health["reports"] == 0


#: kind -> (users declared, users actually encoded)
_ROW_CASES = {
    "array": (2, 100),
    "olh": (2, 100),
    "sampled-numeric": (2, 100),
    "mixed": (3, 300),
}


def _row_case(kind):
    """The protocol emitting ``kind`` and a consistent block of it."""
    rows = _ROW_CASES[kind][1]
    rng = np.random.default_rng(4)
    if kind == "mixed":
        values = make_br_like(rows, rng=rng)
        protocol = Protocol.multidim(4.0, schema=values.schema)
    elif kind == "sampled-numeric":
        values = rng.uniform(-1, 1, (rows, 4))
        protocol = Protocol.multidim(4.0, d=4, mechanism="hm")
    else:
        values = rng.integers(0, 32, rows)
        oracle = "oue" if kind == "array" else "olh"
        protocol = Protocol.frequency(1.0, domain=32, oracle=oracle)
    reports = protocol.client().encode_batch(
        values, np.random.default_rng(SEED)
    )
    block = wire.reports_to_columns(reports)
    assert (block.kind, block.n) == (kind, rows)
    return protocol, block


class TestBlockRowCounts:
    """A batch whose columns hold more rows than the ``n`` users it
    declares is 400 ``bad_reports``: nobody is charged and nothing is
    absorbed, on both wire versions."""

    @pytest.mark.parametrize("kind", sorted(_ROW_CASES))
    def test_v2_declared_n_below_rows_rejected(self, serve, kind):
        protocol, block = _row_case(kind)
        declared = _ROW_CASES[kind][0]
        server = serve(protocol)
        client = ServiceClient("127.0.0.1", server.port)
        block.n = declared
        frame = wire.pack_columns(
            block, server.fingerprint, users=_users(declared)
        )
        with pytest.raises(ServiceError) as excinfo:
            _post_v2(client, frame)
        _assert_rejected_untouched(client, excinfo)

    @pytest.mark.parametrize("kind", sorted(_ROW_CASES))
    def test_v1_declared_n_below_rows_rejected(self, serve, kind):
        protocol, block = _row_case(kind)
        declared = _ROW_CASES[kind][0]
        server = serve(protocol)
        client = ServiceClient("127.0.0.1", server.port)
        payload = wire.encode_reports(block)
        # v1 declares n explicitly only for mixed; elsewhere n is the
        # first column's rows, so shorten that one.
        if kind == "mixed":
            payload["n"] = declared
            error = "bad_reports"
        elif kind == "array":
            # One column: its rows are n, which disagrees with the
            # user list instead.
            error = "bad_request"
        else:
            first = {"olh": "seeds", "sampled-numeric": "cols"}[kind]
            payload[first] = wire.encode_array(
                block.column(first)[:declared]
            )
            error = "bad_reports"
        with pytest.raises(ServiceError) as excinfo:
            _post_v1(client, server, _users(declared), payload)
        _assert_rejected_untouched(client, excinfo, error)


class TestMalformedWireShapes:
    """Malformed array shapes and non-numeric columns are 400s."""

    @pytest.mark.parametrize("shape", [["2", 8], [None]])
    def test_v1_bad_shape_is_400(self, serve, shape):
        protocol, _ = _cases()["mean"]
        server = serve(protocol)
        client = ServiceClient("127.0.0.1", server.port)
        payload = wire.encode_reports(np.zeros(2))
        payload["array"]["shape"] = shape
        with pytest.raises(ServiceError) as excinfo:
            _post_v1(client, server, _users(2), payload)
        _assert_rejected_untouched(client, excinfo)

    def test_v2_negative_dims_are_400(self, serve):
        protocol = Protocol.frequency(1.0, domain=8, oracle="oue")
        server = serve(protocol)
        client = ServiceClient("127.0.0.1", server.port)
        reports = protocol.client().encode_batch(
            np.arange(2) % 8, np.random.default_rng(SEED)
        )
        frame = wire.pack_columns(
            wire.reports_to_columns(reports), server.fingerprint,
            users=_users(2),
        )

        def negate(header):
            column = header["columns"][0]
            column["shape"] = [-d for d in column["shape"]]

        with pytest.raises(ServiceError) as excinfo:
            _post_v2(client, _rewrite_header(frame, negate))
        _assert_rejected_untouched(client, excinfo, "bad_envelope")


    def test_v2_non_numeric_column_is_400(self, serve):
        protocol = Protocol.frequency(1.0, domain=8, oracle="grr")
        server = serve(protocol)
        client = ServiceClient("127.0.0.1", server.port)
        block = ColumnBlock(
            kind="array", n=2, columns={"array": np.array(["a", "b"])}
        )
        frame = wire.pack_columns(block, server.fingerprint, users=_users(2))
        with pytest.raises(ServiceError) as excinfo:
            _post_v2(client, frame)
        _assert_rejected_untouched(client, excinfo)


class TestNonIntegerMeta:
    @pytest.mark.parametrize("d", [[4], None, "4", 4.0])
    def test_sampled_numeric_meta_d_is_400(self, serve, d):
        protocol, values = _cases()["multidim-numeric"]
        server = serve(protocol)
        client = ServiceClient("127.0.0.1", server.port)
        reports = protocol.client().encode_batch(
            values[:5], np.random.default_rng(SEED)
        )
        frame = wire.pack_columns(
            wire.reports_to_columns(reports), server.fingerprint,
            users=_users(5),
        )

        def set_d(header):
            header["meta"]["d"] = d

        with pytest.raises(ServiceError) as excinfo:
            _post_v2(client, _rewrite_header(frame, set_d))
        _assert_rejected_untouched(client, excinfo)


class TestCrashResume:
    def test_kill_and_resume_is_bitwise_equal(self, serve, tmp_path):
        protocol, values = _cases()["multidim-numeric"]
        encoder = protocol.client()
        batches = [
            (
                encoder.encode_batch(
                    values[i * 40 : (i + 1) * 40], np.random.default_rng(i)
                ),
                _users(40, prefix=f"b{i}-"),
            )
            for i in range(5)
        ]
        uninterrupted = protocol.server()
        for reports, _ in batches:
            uninterrupted.absorb(reports)

        server = serve(
            protocol, store=SnapshotStore(tmp_path), checkpoint_every=1
        )
        client = ServiceClient("127.0.0.1", server.port)
        for reports, users in batches[:3]:
            client.submit_reports(reports, users)
        server.stop()  # abrupt: no final checkpoint, crash-equivalent

        resumed = serve(
            protocol, store=SnapshotStore(tmp_path), checkpoint_every=1
        )
        client2 = ServiceClient("127.0.0.1", resumed.port)
        health = client2.healthz()
        assert health["resumed_from_snapshot"] == 3
        assert health["reports"] == 120
        for reports, users in batches[3:]:
            client2.submit_reports(reports, users)
        _assert_estimates_bitwise_equal(
            client2.estimate(), uninterrupted.estimate()
        )

    def test_budgets_survive_restart(self, serve, tmp_path):
        protocol, values = _cases()["mean"]
        server = serve(
            protocol, store=SnapshotStore(tmp_path), checkpoint_every=1
        )
        client = ServiceClient("127.0.0.1", server.port)
        client.submit(values[:20], users=_users(20), rng=0)
        server.stop()

        resumed = serve(
            protocol, store=SnapshotStore(tmp_path), checkpoint_every=1
        )
        client2 = ServiceClient("127.0.0.1", resumed.port)
        with pytest.raises(OverBudgetError):
            client2.submit(values[:20], users=_users(20), rng=1)

    def test_idempotency_keys_survive_restart(self, serve, tmp_path):
        protocol, values = _cases()["mean"]
        server = serve(
            protocol, store=SnapshotStore(tmp_path), checkpoint_every=1
        )
        client = ServiceClient("127.0.0.1", server.port)
        reports = client.encode(values[:10], rng=0)
        client.submit_reports(reports, _users(10), idempotency_key="k1")
        server.stop()

        resumed = serve(
            protocol, store=SnapshotStore(tmp_path), checkpoint_every=1
        )
        client2 = ServiceClient("127.0.0.1", resumed.port)
        dup = client2.submit_reports(
            reports, _users(10, "new"), idempotency_key="k1"
        )
        assert dup["status"] == "duplicate"
        assert client2.healthz()["reports"] == 10

    def test_resume_refuses_foreign_snapshot(self, tmp_path):
        protocol, values = _cases()["mean"]
        server = IngestionServer(
            protocol, store=SnapshotStore(tmp_path), checkpoint_every=1
        ).run_in_thread()
        try:
            client = ServiceClient("127.0.0.1", server.port)
            client.submit(values[:5], users=_users(5), rng=0)
        finally:
            server.stop()
        other = Protocol.numeric_mean(2.0, "pm")
        with pytest.raises(wire.SpecMismatchError):
            IngestionServer(other, store=SnapshotStore(tmp_path))


class TestCommandLine:
    def test_cli_serves_and_checkpoints_on_sigint(self, tmp_path):
        spec_path = tmp_path / "spec.json"
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
                "--snapshot-dir", str(tmp_path / "snaps"),
                "--checkpoint-every", "1",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            assert "repro.service:" in banner
            port = int(banner.split("http://127.0.0.1:")[1].split()[0])
            client = ServiceClient("127.0.0.1", port, retries=5)
            client.submit(
                np.array([1, 2, 3, 1]), users=_users(4), rng=0
            )
            assert client.healthz()["reports"] == 4
        finally:
            proc.send_signal(signal.SIGINT)
            try:
                out, _ = proc.communicate(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                out, _ = proc.communicate()
        assert proc.returncode == 0, out
        assert "final checkpoint" in out
        assert SnapshotStore(tmp_path / "snaps").latest_sequence() == 1

    def test_cli_requires_spec_or_campaigns(self):
        from repro.service.__main__ import main

        with pytest.raises(SystemExit):
            main([])

    def test_dockerfile_cmd_parses(self):
        """The container's exec-form CMD uses only flags the CLI still
        has (a removed flag would crash the container at start)."""
        from repro.service.__main__ import build_parser

        dockerfile = Path(__file__).resolve().parent.parent / "Dockerfile"
        text = dockerfile.read_text(encoding="utf-8").replace("\\\n", " ")
        (line,) = [
            line for line in text.splitlines() if line.startswith("CMD ")
        ]
        command = json.loads(line[len("CMD "):])
        module = command.index("-m")
        assert command[module + 1] == "repro.service"
        args = build_parser().parse_args(command[module + 2:])
        assert args.spec == "/app/default-spec.json"
        assert args.snapshot_dir == "/snapshots"

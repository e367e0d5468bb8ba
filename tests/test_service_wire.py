"""Wire-codec tests: bitwise round-trips for every protocol kind.

Every report container, accumulator snapshot and estimate must survive
``encode -> json -> decode`` bitwise — the service's correctness proof
reduces to "the wire changes nothing".
"""

import json
import struct

import numpy as np
import pytest

from repro.protocol import PROTOCOL_KINDS, Protocol
from repro.protocol.reports import ColumnBlock
from repro.service import wire

SEED = 20190412
N = 300


def _mixed_case():
    from repro.data import make_br_like

    dataset = make_br_like(N, rng=np.random.default_rng(2))
    return (
        Protocol.multidim(4.0, schema=dataset.schema, mechanism="pm"),
        dataset,
    )


def _protocols():
    """One protocol + workload per kind (plus oracle report variants)."""
    rng = np.random.default_rng(1)
    return {
        "mean": (Protocol.numeric_mean(1.0, "hm"), rng.uniform(-1, 1, N)),
        "frequency": (
            Protocol.frequency(1.0, domain=12, oracle="oue"),
            rng.integers(0, 12, N),
        ),
        "frequency-grr": (
            Protocol.frequency(1.0, domain=12, oracle="grr"),
            rng.integers(0, 12, N),
        ),
        "frequency-olh": (
            Protocol.frequency(1.0, domain=12, oracle="olh"),
            rng.integers(0, 12, N),
        ),
        "histogram": (
            Protocol.histogram(2.0, bins=8, oracle="sue"),
            rng.uniform(-1, 1, N),
        ),
        "multidim-numeric": (
            Protocol.multidim(4.0, d=6, mechanism="hm"),
            rng.uniform(-1, 1, (N, 6)),
        ),
        "multidim-mixed": _mixed_case(),
    }


def _workload(name, protocol, values):
    return values


def _json_round_trip(obj):
    return json.loads(json.dumps(obj))


def _assert_block_matches(reports, block):
    """``block`` carries exactly the columns of ``reports``, bitwise."""
    expected = wire.reports_to_columns(reports)
    assert isinstance(block, ColumnBlock)
    assert (block.kind, block.n) == (expected.kind, expected.n)
    assert block.meta == expected.meta
    assert sorted(block.columns) == sorted(expected.columns)
    for name, column in expected.columns.items():
        assert block.columns[name].dtype == column.dtype
        np.testing.assert_array_equal(block.columns[name], column)


def _assert_estimates_bitwise_equal(a, b):
    if hasattr(a, "histogram"):  # HistogramEstimate
        np.testing.assert_array_equal(a.histogram, b.histogram)
        np.testing.assert_array_equal(a.raw, b.raw)
        np.testing.assert_array_equal(a.edges, b.edges)
        return
    if hasattr(a, "frequencies"):  # MixedEstimates
        assert a.means == b.means
        assert set(a.frequencies) == set(b.frequencies)
        for key in a.frequencies:
            np.testing.assert_array_equal(
                a.frequencies[key], b.frequencies[key]
            )
        return
    np.testing.assert_array_equal(np.asarray(a), np.asarray(b))


class TestArrayCodec:
    @pytest.mark.parametrize(
        "arr",
        [
            np.arange(12, dtype=np.int64).reshape(3, 4),
            np.array([1.5, np.nan, np.inf, -np.inf, -0.0]),
            np.array([[1, 0, 1]], dtype=np.uint8),
            np.array([2**63, 1], dtype=np.uint64),
            np.zeros((0, 5)),
            np.array(3.25),
        ],
    )
    def test_bitwise_round_trip(self, arr):
        decoded = wire.decode_array(_json_round_trip(wire.encode_array(arr)))
        assert decoded.dtype == arr.dtype
        assert decoded.shape == arr.shape
        np.testing.assert_array_equal(decoded, arr)

    def test_nan_payloads_survive_bitwise(self):
        arr = np.array([np.nan])
        decoded = wire.decode_array(wire.encode_array(arr))
        assert np.isnan(decoded[0])

    def test_decoded_array_is_writable(self):
        decoded = wire.decode_array(wire.encode_array(np.arange(3.0)))
        decoded += 1.0  # absorb paths use in-place accumulation

    def test_malformed_payload_rejected(self):
        with pytest.raises(wire.WireFormatError):
            wire.decode_array({"dtype": "f8", "shape": [2]})
        with pytest.raises(wire.WireFormatError):
            wire.decode_array(
                {"dtype": "f8", "shape": [3], "data": "AAAAAAAAAAA="}
            )


class TestReportCodec:
    @pytest.mark.parametrize("name", sorted(_protocols()))
    def test_bitwise_round_trip_per_kind(self, name):
        protocol, values = _protocols()[name]
        workload = _workload(name, protocol, values)
        reports = protocol.client().encode_batch(
            workload, np.random.default_rng(SEED)
        )
        decoded = wire.decode_reports(
            _json_round_trip(wire.encode_reports(reports))
        )
        _assert_block_matches(reports, decoded)
        # Absorbing the decoded reports yields the bitwise-same estimate.
        _assert_estimates_bitwise_equal(
            protocol.server().absorb(reports).estimate(),
            protocol.server().absorb(decoded).estimate(),
        )

    def test_every_protocol_kind_is_covered(self):
        covered = {
            name.split("-", 1)[0] if name.startswith("frequency") else name
            for name in _protocols()
        }
        assert set(PROTOCOL_KINDS) <= covered

    def test_report_count(self):
        # A block's n is the user count on both wire versions.
        protocol, values = _protocols()["multidim-numeric"]
        reports = protocol.client().encode_batch(values, 0)
        assert wire.reports_to_columns(reports).n == N
        assert wire.decode_reports(wire.encode_reports(reports)).n == N
        mixed_protocol, dataset = _protocols()["multidim-mixed"]
        mixed = mixed_protocol.client().encode_batch(dataset, 0)
        assert wire.reports_to_columns(mixed).n == N
        assert wire.decode_reports(wire.encode_reports(mixed)).n == N

    def test_unknown_payload_type_rejected(self):
        with pytest.raises(wire.WireFormatError):
            wire.decode_reports({"type": "carrier-pigeon"})


def _pinned_batches():
    """One tiny batch per v1 payload type, with fixed arrays."""
    from repro.frequency.olh import OLHReports
    from repro.multidim.collector import MixedReports
    from repro.protocol import SampledNumericReports

    return {
        "array": np.array([[1, 0, 1], [0, 1, 0]], dtype=np.uint8),
        "olh": OLHReports(
            seeds=np.array([7, 2**40], dtype=np.uint64),
            buckets=np.array([0, 3], dtype=np.int64),
        ),
        "sampled-numeric": SampledNumericReports(
            d=3, k=1, cols=np.array([[2], [0]]),
            values=np.array([[1.5], [-0.25]]),
        ),
        "mixed": MixedReports(
            n=2,
            numeric=np.array([[0.5], [0.0]]),
            categorical={
                "color": np.array([[0, 1], [1, 1]], dtype=np.uint8),
                "city": OLHReports(
                    seeds=np.array([5], dtype=np.uint64),
                    buckets=np.array([1], dtype=np.int64),
                ),
            },
        ),
    }


#: The v1 JSON every earlier SDK sends for :func:`_pinned_batches`.
#: Old clients keep working only while these bytes stay the same.
PINNED_V1 = {
    "array": (
        '{"type": "array", "array": {"dtype": "|u1", "shape": [2, 3], '
        '"data": "AQABAAEA"}}'
    ),
    "olh": (
        '{"type": "olh", "seeds": {"dtype": "<u8", "shape": [2], '
        '"data": "BwAAAAAAAAAAAAAAAAEAAA=="}, "buckets": {"dtype": "<i8", '
        '"shape": [2], "data": "AAAAAAAAAAADAAAAAAAAAA=="}}'
    ),
    "sampled-numeric": (
        '{"type": "sampled-numeric", "d": 3, "k": 1, "cols": {"dtype": '
        '"<i8", "shape": [2, 1], "data": "AgAAAAAAAAAAAAAAAAAAAA=="}, '
        '"values": {"dtype": "<f8", "shape": [2, 1], "data": '
        '"AAAAAAAA+D8AAAAAAADQvw=="}}'
    ),
    "mixed": (
        '{"type": "mixed", "n": 2, "numeric": {"dtype": "<f8", "shape": '
        '[2, 1], "data": "AAAAAAAA4D8AAAAAAAAAAA=="}, "categorical": '
        '{"color": {"type": "array", "array": {"dtype": "|u1", "shape": '
        '[2, 2], "data": "AAEBAQ=="}}, "city": {"type": "olh", "seeds": '
        '{"dtype": "<u8", "shape": [1], "data": "BQAAAAAAAAA="}, '
        '"buckets": {"dtype": "<i8", "shape": [1], "data": '
        '"AQAAAAAAAAA="}}}}'
    ),
}


class TestV1Bytes:
    @pytest.mark.parametrize("kind", sorted(PINNED_V1))
    def test_encode_reports_bytes_are_pinned(self, kind):
        reports = _pinned_batches()[kind]
        assert json.dumps(wire.encode_reports(reports)) == PINNED_V1[kind]

    @pytest.mark.parametrize("kind", sorted(PINNED_V1))
    def test_pinned_payload_decodes_to_the_batch_block(self, kind):
        reports = _pinned_batches()[kind]
        decoded = wire.decode_reports(json.loads(PINNED_V1[kind]))
        _assert_block_matches(reports, decoded)


class TestMalformedShapes:
    @pytest.mark.parametrize(
        "shape", [["2", 8], [None], [-2, -8], [2.0, 8], "16", [True, 16]]
    )
    def test_v1_array_shape_must_be_non_negative_ints(self, shape):
        payload = wire.encode_array(np.zeros((2, 8)))
        payload["shape"] = shape
        with pytest.raises(wire.WireFormatError, match="shape"):
            wire.decode_array(payload)

    def test_v2_negative_dims_rejected(self):
        block = ColumnBlock(
            kind="array", n=2, columns={"array": np.zeros((2, 8))}
        )
        frame = wire.pack_columns(block, "fp")
        (head_len,) = struct.unpack("<I", frame[4:8])
        header = json.loads(frame[8 : 8 + head_len])
        header["columns"][0]["shape"] = [-2, -8]  # product still 16
        head = json.dumps(header).encode("utf-8")
        forged = (
            frame[:4] + struct.pack("<I", len(head)) + head
            + frame[8 + head_len :]
        )
        with pytest.raises(wire.WireFormatError, match="shape"):
            wire.unpack_columns(forged)

    def test_shape_product_past_int64_rejected(self):
        payload = wire.encode_array(np.zeros(0))
        payload["shape"] = [2**62, 4]  # product wraps to 0 in int64
        with pytest.raises(wire.WireFormatError, match="needs"):
            wire.decode_array(payload)

    def test_object_dtype_rejected(self):
        payload = wire.encode_array(np.zeros(2))
        payload["dtype"] = "O"
        with pytest.raises(wire.WireFormatError, match="object"):
            wire.decode_array(payload)


class TestAccumulatorStateCodec:
    @pytest.mark.parametrize("name", sorted(_protocols()))
    def test_snapshot_round_trip_bitwise(self, name):
        protocol, values = _protocols()[name]
        workload = _workload(name, protocol, values)
        acc = protocol.server().absorb(
            protocol.client().encode_batch(workload, np.random.default_rng(7))
        )
        encoded = _json_round_trip(wire.encode_accumulator_state(acc))
        restored = wire.decode_accumulator_state(protocol.server(), encoded)
        assert restored.count == acc.count
        _assert_estimates_bitwise_equal(restored.estimate(), acc.estimate())

    def test_restored_accumulator_keeps_absorbing(self):
        protocol, values = _protocols()["mean"]
        encoder = protocol.client()
        first = encoder.encode_batch(values[:100], np.random.default_rng(0))
        second = encoder.encode_batch(values[100:], np.random.default_rng(1))

        uninterrupted = protocol.server().absorb(first).absorb(second)
        restored = wire.decode_accumulator_state(
            protocol.server(),
            wire.encode_accumulator_state(protocol.server().absorb(first)),
        ).absorb(second)
        assert restored.estimate() == uninterrupted.estimate()


class TestEstimateCodec:
    @pytest.mark.parametrize("name", sorted(_protocols()))
    def test_round_trip(self, name):
        protocol, values = _protocols()[name]
        workload = _workload(name, protocol, values)
        estimate = protocol.run(workload, rng=SEED)
        decoded = wire.decode_estimate(
            _json_round_trip(wire.encode_estimate(estimate))
        )
        _assert_estimates_bitwise_equal(estimate, decoded)


class TestEnvelope:
    def test_pack_unpack(self):
        fingerprint = wire.spec_fingerprint(
            Protocol.numeric_mean(1.0).spec
        )
        payload = wire.unpack(
            _json_round_trip(wire.pack({"x": 1}, fingerprint)), fingerprint
        )
        assert payload == {"x": 1}

    def test_unknown_wire_version_rejected(self):
        envelope = wire.pack({}, "f" * 64)
        envelope["wire_version"] = 99
        with pytest.raises(wire.WireFormatError, match="wire_version"):
            wire.unpack(envelope, "f" * 64)

    @pytest.mark.parametrize("key", [7, ["a"], {"k": 1}, 1.5, True])
    def test_non_string_idempotency_key_rejected(self, key):
        envelope = wire.pack({"idempotency_key": key}, "f" * 64)
        with pytest.raises(wire.WireFormatError, match="idempotency_key"):
            wire.unpack(envelope, "f" * 64)

    @pytest.mark.parametrize("key", [None, "batch-0"])
    def test_string_or_absent_idempotency_key_accepted(self, key):
        envelope = wire.pack({"idempotency_key": key}, "f" * 64)
        assert wire.unpack(envelope, "f" * 64)["idempotency_key"] == key

    def test_fingerprint_mismatch_rejected(self):
        spec_a = Protocol.numeric_mean(1.0, "hm").spec
        spec_b = Protocol.numeric_mean(1.0, "pm").spec
        envelope = wire.pack({}, wire.spec_fingerprint(spec_a))
        with pytest.raises(wire.SpecMismatchError):
            wire.unpack(envelope, wire.spec_fingerprint(spec_b))

    def test_fingerprint_is_deterministic_and_discriminating(self):
        spec = Protocol.frequency(1.0, domain=8).spec
        assert wire.spec_fingerprint(spec) == wire.spec_fingerprint(spec)
        assert wire.spec_fingerprint(spec) != wire.spec_fingerprint(
            Protocol.frequency(1.1, domain=8).spec
        )
        # Dict payloads fingerprint identically to the spec object.
        assert wire.spec_fingerprint(spec.to_dict()) == (
            wire.spec_fingerprint(spec)
        )

"""Unit tests for repro.stream.windows — panes, windows, decay."""

import numpy as np
import pytest

from repro.protocol import Protocol
from repro.protocol.reports import to_block
from repro.service import wire
from repro.stream import (
    DecayedWindowedAccumulator,
    WindowConfig,
    WindowedAccumulator,
    parse_duration,
)


def frequency_protocol(domain=8, oracle="grr"):
    return Protocol.frequency(epsilon=1.0, domain=domain, oracle=oracle)


def round_batches(protocol, rounds, per_round=40, domain=8, seed=0):
    """One encoded batch per round, deterministically seeded."""
    batches = []
    for r in range(rounds):
        rng = np.random.default_rng(seed + r)
        values = rng.integers(0, domain, size=per_round)
        batches.append(protocol.client().encode_batch(
            values, np.random.default_rng(1000 + seed + r)
        ))
    return batches


class TestParseDuration:
    def test_units(self):
        assert parse_duration("90s") == 90.0
        assert parse_duration("5m") == 300.0
        assert parse_duration("2h") == 7200.0
        assert parse_duration("1d") == 86400.0

    def test_bare_number_is_seconds(self):
        assert parse_duration("45") == 45.0

    def test_rejects_garbage(self):
        for bad in ("", "5x", "s", "-3s", "1h30m"):
            with pytest.raises(ValueError):
                parse_duration(bad)


class TestWindowConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            WindowConfig(panes=0)
        with pytest.raises(ValueError):
            WindowConfig(panes=3, pane_seconds=0)
        with pytest.raises(ValueError):
            WindowConfig(panes=3, decay=1.5)

    def test_round_trip(self):
        cfg = WindowConfig(panes=6, pane_seconds=30.0, decay=0.8)
        assert WindowConfig.from_dict(cfg.to_dict()) == cfg
        plain = WindowConfig(panes=2)
        assert WindowConfig.from_dict(plain.to_dict()) == plain

    def test_resolve_panes(self):
        cfg = WindowConfig(panes=10, pane_seconds=30.0)
        assert cfg.resolve_panes(None) == 10
        assert cfg.resolve_panes("") == 10
        assert cfg.resolve_panes("3") == 3
        assert cfg.resolve_panes("90s") == 3
        assert cfg.resolve_panes("100s") == 4  # ceil
        assert cfg.resolve_panes("1h") == 10  # clamped to ring
        with pytest.raises(ValueError):
            cfg.resolve_panes("0")

    def test_duration_needs_pane_seconds(self):
        cfg = WindowConfig(panes=4)
        assert cfg.resolve_panes("2") == 2
        with pytest.raises(ValueError):
            cfg.resolve_panes("90s")

    def test_build_picks_variant(self):
        proto = frequency_protocol()
        assert isinstance(
            WindowConfig(panes=2).build(proto.server), WindowedAccumulator
        )
        decayed = WindowConfig(panes=2, decay=0.5).build(proto.server)
        assert isinstance(decayed, DecayedWindowedAccumulator)
        assert decayed.decay == 0.5


class TestWindowedAccumulator:
    def test_window_estimate_bitwise_equals_fresh(self):
        proto = frequency_protocol()
        batches = round_batches(proto, rounds=4)
        acc = WindowConfig(panes=4).build(proto.server)
        for r, batch in enumerate(batches):
            acc.absorb_round(r, batch)

        for n in (1, 2, 4):
            fresh = proto.server()
            for batch in batches[-n:]:
                fresh.absorb(batch)
            assert np.array_equal(acc.window_estimate(n), fresh.estimate())
            assert acc.window_count(n) == fresh.count

    def test_all_time_estimate_ignores_windows(self):
        proto = frequency_protocol()
        batches = round_batches(proto, rounds=6)
        acc = WindowConfig(panes=2).build(proto.server)
        fresh = proto.server()
        for r, batch in enumerate(batches):
            acc.absorb_round(r, batch)
            fresh.absorb(batch)
        # four panes evicted into the expired tail; all-time unchanged
        assert acc.live_rounds() == [4, 5]
        assert np.array_equal(acc.estimate(), fresh.estimate())
        assert acc.count == fresh.count

    def test_roundless_absorb_lands_in_current_round(self):
        proto = frequency_protocol()
        b0, b1 = round_batches(proto, rounds=2)
        acc = WindowConfig(panes=3).build(proto.server)
        acc.absorb(b0)  # no data yet -> round 0
        assert acc.live_rounds() == [0]
        acc.absorb_round(2, b1)
        acc.absorb(b0)  # lands in round 2, the latest
        assert acc.pane_counts()[2] == 2 * len(np.asarray(b1))

    def test_late_arrival_folds_into_expired_tail(self):
        proto = frequency_protocol()
        batches = round_batches(proto, rounds=5)
        acc = WindowConfig(panes=2).build(proto.server)
        for r in (3, 4):
            acc.absorb_round(r, batches[r])
        windowed_before = acc.window_estimate()
        acc.absorb_round(0, batches[0])  # older than the ring floor
        # the window is unchanged, the all-time estimate includes it
        assert np.array_equal(acc.window_estimate(), windowed_before)
        fresh = proto.server()
        for r in (0, 3, 4):
            fresh.absorb(batches[r])
        assert acc.count == fresh.count

    def test_merge_aligns_rounds(self):
        proto = frequency_protocol()
        batches = round_batches(proto, rounds=4)
        left = WindowConfig(panes=4).build(proto.server)
        right = WindowConfig(panes=4).build(proto.server)
        for r in (0, 2):
            left.absorb_round(r, batches[r])
        for r in (1, 2, 3):
            right.absorb_round(r, batches[r])
        left.merge(right)
        single = WindowConfig(panes=4).build(proto.server)
        for r in (0, 1, 3):
            single.absorb_round(r, batches[r])
        single.absorb_round(2, batches[2])
        single.absorb_round(2, batches[2])
        assert left.pane_counts() == single.pane_counts()
        assert np.array_equal(left.window_estimate(2), single.window_estimate(2))

    def test_merge_rejects_mismatched_rings(self):
        proto = frequency_protocol()
        a = WindowConfig(panes=2).build(proto.server)
        b = WindowConfig(panes=3).build(proto.server)
        with pytest.raises(ValueError):
            a.merge(b)
        with pytest.raises(ValueError):
            a.merge(proto.server())

    def test_snapshot_round_trip_bitwise(self):
        proto = frequency_protocol()
        batches = round_batches(proto, rounds=5)
        acc = WindowConfig(panes=3).build(proto.server)
        for r, batch in enumerate(batches):
            acc.absorb_round(r, batch)
        state = acc.state_dict()
        clone = WindowConfig(panes=3).build(proto.server).load_state(state)
        assert wire.encode_accumulator_state(
            clone
        ) == wire.encode_accumulator_state(acc)
        assert clone.live_rounds() == acc.live_rounds()
        assert np.array_equal(clone.estimate(), acc.estimate())
        assert np.array_equal(clone.window_estimate(2), acc.window_estimate(2))
        # resumed accumulator keeps absorbing identically
        extra = round_batches(proto, rounds=1, seed=77)[0]
        acc.absorb_round(5, extra)
        clone.absorb_round(5, extra)
        assert wire.encode_accumulator_state(
            clone
        ) == wire.encode_accumulator_state(acc)

    def test_empty_window_raises(self):
        proto = frequency_protocol()
        acc = WindowConfig(panes=2).build(proto.server)
        with pytest.raises(ValueError):
            acc.window_estimate()
        with pytest.raises(ValueError):
            acc.estimate()

    def test_mean_protocol_windows(self):
        proto = Protocol.numeric_mean(epsilon=1.0, mechanism="pm")
        rng = np.random.default_rng(3)
        acc = WindowConfig(panes=2).build(proto.server)
        b0 = proto.client().encode_batch(
            rng.uniform(-1, 1, 30), np.random.default_rng(10)
        )
        b1 = proto.client().encode_batch(
            rng.uniform(-1, 1, 30), np.random.default_rng(11)
        )
        acc.absorb_round(0, b0).absorb_round(1, b1)
        fresh = proto.server().absorb(b1)
        assert acc.window_estimate(1) == fresh.estimate()

    def test_validate_delegates_to_template(self):
        proto = frequency_protocol(domain=4)
        acc = WindowConfig(panes=2).build(proto.server)
        with pytest.raises(ValueError):
            acc.validate_columns(to_block(np.array([0, 99])))

    def test_rejects_negative_round(self):
        proto = frequency_protocol()
        acc = WindowConfig(panes=2).build(proto.server)
        with pytest.raises(ValueError):
            acc.absorb_round(-1, np.array([0, 1]))


class TestDecayedWindowedAccumulator:
    def test_decay_one_matches_window_merge(self):
        proto = Protocol.numeric_mean(epsilon=1.0, mechanism="pm")
        rng = np.random.default_rng(5)
        acc = WindowConfig(panes=3, decay=1.0).build(proto.server)
        for r in range(3):
            acc.absorb_round(r, proto.client().encode_batch(
                rng.uniform(-1, 1, 25), np.random.default_rng(20 + r)
            ))
        # decay 1.0 weights panes by count only == plain window merge
        assert acc.estimate() == pytest.approx(acc.window_estimate(), abs=1e-12)

    def test_decay_weights_recent_panes(self):
        proto = Protocol.numeric_mean(epsilon=4.0, mechanism="pm")
        rng = np.random.default_rng(6)
        acc = WindowConfig(panes=2, decay=0.01).build(proto.server)
        low = proto.client().encode_batch(
            np.full(400, -0.8), np.random.default_rng(30)
        )
        high = proto.client().encode_batch(
            np.full(400, 0.8), np.random.default_rng(31)
        )
        acc.absorb_round(0, low).absorb_round(1, high)
        # near-total decay: the estimate ~ the latest pane alone
        latest = proto.server().absorb(high).estimate()
        assert acc.estimate() == pytest.approx(latest, abs=0.05)
        assert acc.all_time_estimate() == pytest.approx(
            proto.server().absorb(low).absorb(high).estimate(), abs=1e-12
        )

    def test_frequency_decay_is_convex_combination(self):
        proto = frequency_protocol()
        batches = round_batches(proto, rounds=2)
        acc = WindowConfig(panes=2, decay=0.5).build(proto.server)
        acc.absorb_round(0, batches[0]).absorb_round(1, batches[1])
        e0 = proto.server().absorb(batches[0]).estimate()
        e1 = proto.server().absorb(batches[1]).estimate()
        n = len(np.asarray(batches[0]))
        w0, w1 = 0.5 * n, 1.0 * n
        expected = (w0 * e0 + w1 * e1) / (w0 + w1)
        assert np.allclose(acc.estimate(), expected, atol=1e-12)

    def test_histogram_estimate_rejected(self):
        proto = Protocol.histogram(epsilon=1.0, bins=4, oracle="grr")
        acc = WindowConfig(panes=2, decay=0.9).build(proto.server)
        rng = np.random.default_rng(8)
        acc.absorb_round(0, proto.client().encode_batch(
            rng.uniform(-1, 1, 20), np.random.default_rng(40)
        ))
        with pytest.raises(TypeError):
            acc.estimate()
        # the undecayed paths still work
        acc.all_time_estimate()
        acc.window_estimate()

    def test_snapshot_interchanges_with_plain(self):
        proto = frequency_protocol()
        batches = round_batches(proto, rounds=3)
        decayed = WindowConfig(panes=3, decay=0.7).build(proto.server)
        for r, batch in enumerate(batches):
            decayed.absorb_round(r, batch)
        plain = WindowConfig(panes=3).build(proto.server)
        plain.load_state(decayed.state_dict())
        assert wire.encode_accumulator_state(
            plain
        ) == wire.encode_accumulator_state(decayed)

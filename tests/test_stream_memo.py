"""Unit tests for repro.stream.memo — longitudinal memoization."""

import numpy as np
import pytest

from repro.frequency.olh import OLHReports
from repro.protocol import Protocol
from repro.protocol.encoders import ClientEncoder
from repro.protocol.reports import SampledNumericReports, to_block
from repro.stream import MemoizedEncoder


def users(n):
    return [f"user-{i}" for i in range(n)]


class TestMemoizedEncoderBasics:
    def test_round_two_is_byte_identical_and_all_cached(self):
        proto = Protocol.frequency(epsilon=1.0, domain=8, oracle="grr")
        memo = MemoizedEncoder(proto.client())
        values = np.random.default_rng(0).integers(0, 8, size=30)
        r1, fresh1 = memo.encode_users(values, users(30), np.random.default_rng(1))
        r2, fresh2 = memo.encode_users(values, users(30), np.random.default_rng(2))
        assert all(fresh1) and not any(fresh2)
        assert np.array_equal(r1, r2)
        assert memo.hits == 30 and memo.misses == 30

    def test_changed_values_are_fresh_only_where_changed(self):
        proto = Protocol.frequency(epsilon=1.0, domain=8, oracle="grr")
        memo = MemoizedEncoder(proto.client())
        v1 = np.array([0, 1, 2, 3])
        r1, _ = memo.encode_users(v1, users(4), np.random.default_rng(1))
        v2 = np.array([0, 5, 2, 6])  # users 1 and 3 changed
        r2, fresh2 = memo.encode_users(v2, users(4), np.random.default_rng(2))
        assert fresh2 == [False, True, False, True]
        assert r2[0] == r1[0] and r2[2] == r1[2]

    def test_switching_back_reuses_original_report(self):
        proto = Protocol.frequency(epsilon=1.0, domain=8, oracle="grr")
        memo = MemoizedEncoder(proto.client())
        r1, _ = memo.encode_users([3], ["u"], np.random.default_rng(1))
        memo.encode_users([5], ["u"], np.random.default_rng(2))
        r3, fresh3 = memo.encode_users([3], ["u"], np.random.default_rng(3))
        assert fresh3 == [False]
        assert np.array_equal(r1, r3)
        assert memo.cache_size == 2

    def test_all_cached_round_never_touches_rng(self):
        proto = Protocol.frequency(epsilon=1.0, domain=8, oracle="grr")
        memo = MemoizedEncoder(proto.client())
        values = np.arange(8)
        memo.encode_users(values, users(8), np.random.default_rng(1))

        class ExplodingRng:
            def __getattr__(self, name):
                raise AssertionError("rng touched on an all-cached round")

        reports, fresh = memo.encode_users(values, users(8), ExplodingRng())
        assert not any(fresh)
        assert len(np.asarray(reports)) == 8

    def test_same_value_different_users_cached_separately(self):
        proto = Protocol.frequency(epsilon=1.0, domain=8, oracle="grr")
        memo = MemoizedEncoder(proto.client())
        _, fresh = memo.encode_users([4, 4], ["a", "b"], np.random.default_rng(1))
        assert fresh == [True, True]
        assert memo.cache_size == 2

    def test_empty_batch_is_noop(self):
        proto = Protocol.frequency(epsilon=1.0, domain=8, oracle="grr")
        memo = MemoizedEncoder(proto.client())
        reports, fresh = memo.encode_users([], [], np.random.default_rng(1))
        assert fresh == []
        assert len(np.asarray(reports)) == 0

    def test_mismatched_lengths_rejected(self):
        proto = Protocol.frequency(epsilon=1.0, domain=8, oracle="grr")
        memo = MemoizedEncoder(proto.client())
        with pytest.raises(ValueError):
            memo.encode_users([1, 2], ["only-one"], np.random.default_rng(1))

    def test_refuses_double_wrap(self):
        proto = Protocol.frequency(epsilon=1.0, domain=8, oracle="grr")
        with pytest.raises(ValueError):
            MemoizedEncoder(MemoizedEncoder(proto.client()))

    def test_forget_recharges_user(self):
        proto = Protocol.frequency(epsilon=1.0, domain=8, oracle="grr")
        memo = MemoizedEncoder(proto.client())
        memo.encode_users([1, 2], ["a", "b"], np.random.default_rng(1))
        assert memo.forget("a") == 1
        _, fresh = memo.encode_users([1, 2], ["a", "b"], np.random.default_rng(2))
        assert fresh == [True, False]
        assert memo.forget() == 2
        assert memo.cache_size == 0

    def test_plain_encode_batch_delegates(self):
        proto = Protocol.frequency(epsilon=1.0, domain=8, oracle="grr")
        memo = MemoizedEncoder(proto.client())
        direct = proto.client().encode_batch(
            np.arange(8), np.random.default_rng(9)
        )
        wrapped = memo.encode_batch(np.arange(8), np.random.default_rng(9))
        assert np.array_equal(direct, wrapped)
        assert memo.cache_size == 0


class TestMemoizedEncoderContainers:
    """Every supported report container round-trips through the cache."""

    def test_mean_float_reports(self):
        proto = Protocol.numeric_mean(epsilon=1.0, mechanism="pm")
        memo = MemoizedEncoder(proto.client())
        values = np.random.default_rng(0).uniform(-1, 1, 12)
        r1, _ = memo.encode_users(values, users(12), np.random.default_rng(1))
        r2, fresh = memo.encode_users(values, users(12), np.random.default_rng(2))
        assert not any(fresh)
        assert r1.dtype == r2.dtype and np.array_equal(r1, r2)
        acc = proto.server().absorb(r2)
        assert acc.count == 12

    def test_unary_bit_matrix(self):
        proto = Protocol.frequency(epsilon=1.0, domain=6, oracle="oue")
        memo = MemoizedEncoder(proto.client())
        values = np.random.default_rng(0).integers(0, 6, size=10)
        r1, _ = memo.encode_users(values, users(10), np.random.default_rng(1))
        r2, fresh = memo.encode_users(values, users(10), np.random.default_rng(2))
        assert not any(fresh)
        assert r1.shape == (10, 6) and np.array_equal(r1, r2)
        proto.server().absorb(r2).estimate()

    def test_olh_reports(self):
        proto = Protocol.frequency(epsilon=1.0, domain=16, oracle="olh")
        memo = MemoizedEncoder(proto.client())
        values = np.random.default_rng(0).integers(0, 16, size=10)
        r1, _ = memo.encode_users(values, users(10), np.random.default_rng(1))
        r2, fresh = memo.encode_users(values, users(10), np.random.default_rng(2))
        assert not any(fresh)
        assert r1.seeds.dtype == r2.seeds.dtype
        assert np.array_equal(r1.seeds, r2.seeds)
        assert np.array_equal(r1.buckets, r2.buckets)
        proto.server().absorb(r2).estimate()

    def test_sampled_numeric_reports(self):
        proto = Protocol.multidim(epsilon=1.0, d=5, k=2)
        memo = MemoizedEncoder(proto.client())
        values = np.random.default_rng(0).uniform(-1, 1, size=(8, 5))
        r1, _ = memo.encode_users(values, users(8), np.random.default_rng(1))
        r2, fresh = memo.encode_users(values, users(8), np.random.default_rng(2))
        assert not any(fresh)
        assert np.array_equal(r1.cols, r2.cols)
        assert np.array_equal(r1.values, r2.values)
        proto.server().absorb(r2).estimate()

    def test_partial_cache_mixes_rows_in_batch_order(self):
        proto = Protocol.multidim(epsilon=1.0, d=4, k=2)
        memo = MemoizedEncoder(proto.client())
        base = np.random.default_rng(0).uniform(-1, 1, size=(4, 4))
        r1, _ = memo.encode_users(base, users(4), np.random.default_rng(1))
        changed = base.copy()
        changed[2] = -changed[2]
        r2, fresh = memo.encode_users(changed, users(4), np.random.default_rng(2))
        assert fresh == [False, False, True, False]
        for i in (0, 1, 3):
            assert np.array_equal(r1.cols[i], r2.cols[i])
            assert np.array_equal(r1.values[i], r2.values[i])

    def test_mixed_tuples_rejected(self):
        from repro.data.schema import (
            CategoricalAttribute,
            NumericAttribute,
            Schema,
        )

        proto = Protocol.multidim(
            epsilon=1.0,
            schema=Schema([
                NumericAttribute("num", low=-1.0, high=1.0),
                CategoricalAttribute("cat", 4),
            ]),
        )
        with pytest.raises(TypeError):
            MemoizedEncoder(proto.client())


class TestDuplicatesAndForget:
    def test_repeated_pair_in_one_batch_is_perturbed_once(self):
        proto = Protocol.frequency(epsilon=1.0, domain=8, oracle="grr")
        memo = MemoizedEncoder(proto.client())
        reports, fresh = memo.encode_users(
            [3, 3, 5], ["a", "a", "b"], np.random.default_rng(1)
        )
        assert fresh == [True, False, True]
        assert reports[0] == reports[1]
        assert memo.misses == memo.cache_size == 2
        assert memo.hits == 1
        replay, fresh = memo.encode_users(
            [3, 3, 5], ["a", "a", "b"], np.random.default_rng(2)
        )
        assert fresh == [False, False, False]
        assert np.array_equal(replay, reports)

    def test_only_distinct_fresh_values_reach_the_inner_encoder(self):
        proto = Protocol.frequency(epsilon=1.0, domain=8, oracle="oue")
        memo = MemoizedEncoder(proto.client())
        values, batch_users = [1, 2, 1, 2, 1], ["a", "a", "a", "b", "a"]
        reports, fresh = memo.encode_users(
            values, batch_users, np.random.default_rng(7)
        )
        assert fresh == [True, True, False, True, False]
        # The distinct fresh values, in first-occurrence order, in one
        # encode call with the same rng.
        direct = proto.client().encode_batch(
            np.array([1, 2, 2]), np.random.default_rng(7)
        )
        assert np.array_equal(reports[[0, 1, 3]], direct)
        assert np.array_equal(reports[2], reports[0])
        assert np.array_equal(reports[4], reports[0])

    def test_forget_drops_exactly_one_users_entries(self):
        proto = Protocol.frequency(epsilon=1.0, domain=8, oracle="oue")
        memo = MemoizedEncoder(proto.client())
        names = ["a", "b", "c"]
        first, _ = memo.encode_users([1, 2, 3], names, np.random.default_rng(1))
        memo.encode_users([4, 5, 6], names, np.random.default_rng(2))
        assert memo.cache_size == 6
        assert memo.forget("b") == 2
        assert memo.forget("b") == 0
        assert memo.forget("nobody") == 0
        assert memo.cache_size == 4
        again, fresh = memo.encode_users(
            [1, 2, 3], names, np.random.default_rng(3)
        )
        assert fresh == [False, True, False]
        assert np.array_equal(again[[0, 2]], first[[0, 2]])
        assert memo.cache_size == 5


def _columns(reports):
    """Every column's (dtype, shape, bytes), by name."""
    block = to_block(reports)
    return {
        name: (col.dtype.str, col.shape, col.tobytes())
        for name, col in block.columns.items()
    }


KINDS = {
    "mean": (
        Protocol.numeric_mean(epsilon=1.0, mechanism="pm"),
        lambda rng, n: rng.uniform(-1, 1, n),
    ),
    "grr": (
        Protocol.frequency(epsilon=1.0, domain=8, oracle="grr"),
        lambda rng, n: rng.integers(0, 8, n),
    ),
    "oue": (
        Protocol.frequency(epsilon=1.0, domain=8, oracle="oue"),
        lambda rng, n: rng.integers(0, 8, n),
    ),
    "olh": (
        Protocol.frequency(epsilon=1.0, domain=16, oracle="olh"),
        lambda rng, n: rng.integers(0, 16, n),
    ),
    "multidim": (
        Protocol.multidim(epsilon=1.0, d=4, k=2),
        lambda rng, n: rng.uniform(-1, 1, (n, 4)),
    ),
}


class TestCacheIsolation:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_returned_reports_do_not_alias_the_cache(self, kind):
        proto, draw = KINDS[kind]
        memo = MemoizedEncoder(proto.client())
        values = draw(np.random.default_rng(0), 6)
        sent = values.copy()
        first, _ = memo.encode_users(values, users(6), np.random.default_rng(1))
        expected = _columns(first)
        for col in to_block(first).columns.values():
            col[...] = 0
        values[...] = draw(np.random.default_rng(9), 6)
        for seed in (2, 3):
            again, fresh = memo.encode_users(
                sent, users(6), np.random.default_rng(seed)
            )
            assert not any(fresh)
            assert _columns(again) == expected
            for col in to_block(again).columns.values():
                col[...] = 1

    def test_dtype_is_part_of_the_value(self):
        proto = Protocol.frequency(epsilon=1.0, domain=8, oracle="grr")
        memo = MemoizedEncoder(proto.client())
        _, fresh32 = memo.encode_users(
            np.array([3], dtype=np.int32), ["u"], np.random.default_rng(1)
        )
        _, fresh64 = memo.encode_users(
            np.array([3], dtype=np.int64), ["u"], np.random.default_rng(2)
        )
        assert fresh32 == [True] and fresh64 == [True]
        # Same bytes as the int64 value, different dtype: still fresh.
        _, fresh_u64 = memo.encode_users(
            np.array([3], dtype=np.uint64), ["u"], np.random.default_rng(3)
        )
        assert fresh_u64 == [True]
        assert memo.cache_size == 3

    def test_fresh_reports_must_keep_the_cached_layout(self):
        class Drifting(ClientEncoder):
            def __init__(self):
                self.dtype = np.int64

            def encode_batch(self, values, rng=None):
                return np.asarray(values, dtype=self.dtype)

            def new_accumulator(self):
                raise NotImplementedError

        inner = Drifting()
        memo = MemoizedEncoder(inner)
        memo.encode_users([1, 2], ["a", "b"])
        inner.dtype = np.int32
        with pytest.raises(TypeError):
            memo.encode_users([3], ["c"])


# ----------------------------------------------------------------------
# Reference: the per-row memoization algorithm, one numpy object per
# user.  The vectorized encoder must match it call for call.
# ----------------------------------------------------------------------
def _reference_key(row):
    arr = np.ascontiguousarray(row)
    return (
        str(arr.dtype.str).encode()
        + b"|"
        + repr(arr.shape).encode()
        + b"|"
        + arr.tobytes()
    )


def _reference_split(reports):
    block = to_block(reports)
    return [
        (block.kind, block.meta,
         {name: col[i] for name, col in block.columns.items()})
        for i in range(block.n)
    ]


def _reference_join(rows):
    kind, meta, first = rows[0]
    columns = {
        name: np.stack([np.asarray(row[2][name]) for row in rows])
        for name in first
    }
    if kind == "olh":
        return OLHReports(**columns)
    if kind == "sampled-numeric":
        return SampledNumericReports(d=meta["d"], k=meta["k"], **columns)
    return columns["array"]


class ReferenceMemo:
    def __init__(self, inner):
        self.inner = inner
        self.cache = {}
        self.hits = 0
        self.misses = 0

    def encode_users(self, values, batch_users, rng):
        matrix = np.asarray(values)
        n = matrix.shape[0]
        keys = [
            (batch_users[i], _reference_key(matrix[i])) for i in range(n)
        ]
        fresh = [key not in self.cache for key in keys]
        fresh_idx = [i for i in range(n) if fresh[i]]
        self.hits += n - len(fresh_idx)
        self.misses += len(fresh_idx)
        if fresh_idx:
            fresh_reports = self.inner.encode_batch(
                matrix[np.asarray(fresh_idx, dtype=np.intp)], rng
            )
            for row, i in zip(_reference_split(fresh_reports), fresh_idx):
                self.cache[keys[i]] = row
        return _reference_join([self.cache[key] for key in keys]), fresh


class TestMatchesPerRowReference:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_churn_schedule(self, kind, seed):
        proto, draw = KINDS[kind]
        schedule = np.random.default_rng(seed)
        population = 40
        # Each user moves among three candidate values, so churn both
        # introduces new values and switches back to earlier ones.
        pool = [draw(schedule, population) for _ in range(3)]
        held = schedule.integers(0, 3, population)
        memo = MemoizedEncoder(proto.client())
        reference = ReferenceMemo(proto.client())
        rng_memo = np.random.default_rng(100 + seed)
        rng_ref = np.random.default_rng(100 + seed)
        saw_partial = saw_switch_back = False
        last = {}
        for _ in range(8):
            moved = schedule.random(population) < 0.3
            held[moved] = schedule.integers(0, 3, moved.sum())
            # A random subset of users, in random order: some cached,
            # some fresh, some absent this round.
            size = int(schedule.integers(1, population + 1))
            who = schedule.permutation(population)[:size]
            values = np.stack([pool[held[i]][i] for i in who])
            batch_users = [f"user-{i}" for i in who]

            got, fresh = memo.encode_users(values, batch_users, rng_memo)
            want, want_fresh = reference.encode_users(
                values, batch_users, rng_ref
            )
            assert fresh == want_fresh
            assert type(got) is type(want)
            assert _columns(got) == _columns(want)
            assert (memo.hits, memo.misses) == (
                reference.hits, reference.misses
            )
            assert memo.cache_size == len(reference.cache)
            assert rng_memo.bit_generator.state == rng_ref.bit_generator.state
            saw_partial |= 0 < sum(fresh) < len(fresh)
            for i, is_fresh in zip(who, fresh):
                changed = last.get(i, held[i]) != held[i]
                saw_switch_back |= changed and not is_fresh
                last[i] = held[i]
        assert saw_partial and saw_switch_back

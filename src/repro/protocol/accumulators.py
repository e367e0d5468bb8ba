"""Server-side mergeable aggregation state.

A :class:`ServerAccumulator` holds only *sufficient statistics* (sums,
support counts, user counts — never a report), so its memory is O(state
dimension) regardless of how many reports it absorbs, and two partial
accumulations can be combined with :meth:`~ServerAccumulator.merge`.
This is what makes sharded and streaming aggregation trivial:

    acc = protocol.server()
    for batch in arriving_batches:
        acc.absorb(encoder.encode_batch(batch, rng))
    estimate = acc.estimate()

Determinism guarantee: counts (frequency protocols) are integral and
therefore exact, so any absorb/merge order yields bitwise-identical
estimates.  Float sums are folded batch-by-batch with plain addition,
so absorbing batches b1..bm into one accumulator equals absorbing them
into m accumulators and merging in the same order, *bitwise*; reordering
shards is exact for counts and agrees to ~1e-15 relative for sums.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import numpy as np

from repro.frequency.olh import OLHReports
from repro.frequency.oracle import FrequencyOracle
from repro.protocol.reports import ColumnBlock, to_block

# NOTE: repro.multidim is imported lazily (inside MixedAccumulator
# methods) because repro.multidim.streaming subclasses the accumulators
# defined here; a top-level import in either direction would cycle.

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.frequency.histogram import HistogramEstimate
    from repro.multidim.aggregator import MixedEstimates


class ServerAccumulator(abc.ABC):
    """Mergeable aggregation state for one protocol.

    The three-method contract:

    * :meth:`absorb_columns` folds one batch, as a
      :class:`~repro.protocol.reports.ColumnBlock`, into the state
      (:meth:`absorb` takes any report container and converts it);
    * :meth:`merge` folds another accumulator of the same protocol in
      (e.g. from a parallel shard);
    * :meth:`estimate` produces the current unbiased estimate.

    ``absorb``, ``absorb_columns`` and ``merge`` return ``self`` for
    chaining.
    """

    def absorb(self, reports: Any) -> "ServerAccumulator":
        """Fold in one batch of reports; retains no report.

        Takes any container :func:`~repro.protocol.reports.to_block`
        maps (or a block) and absorbs its columns.  Absorbing an
        *empty* batch (zero reports, e.g. from an empty shard or an
        encoder fed no values) is a uniform no-op across every
        accumulator: state and count are unchanged.  :meth:`estimate`
        still raises ``ValueError`` while the total count is zero.
        """
        return self.absorb_columns(to_block(reports))

    @abc.abstractmethod
    def absorb_columns(self, block: ColumnBlock) -> "ServerAccumulator":
        """Fold in one batch in canonical columnar form.

        Runs the checks of :meth:`validate_columns` first, so a batch
        it rejects leaves the state untouched.
        """

    @abc.abstractmethod
    def validate_columns(self, block: ColumnBlock) -> None:
        """Raise ``ValueError`` iff :meth:`absorb_columns` would.

        Never mutates state.  The server validates on the request path
        *before* charging budget, so the absorb that follows the charge
        cannot fail on client data.
        """

    @abc.abstractmethod
    def merge(self, other: "ServerAccumulator") -> "ServerAccumulator":
        """Fold another accumulator's state into this one."""

    @abc.abstractmethod
    def estimate(self) -> Any:
        """Current unbiased estimate; raises ``ValueError`` with no data."""

    @property
    @abc.abstractmethod
    def count(self) -> int:
        """Reports absorbed so far (via absorb and merge)."""

    # ------------------------------------------------------------------
    # Snapshot hooks (used by repro.service for wire transfer and
    # durable checkpoints).  ``state_dict`` returns plain python
    # scalars, dicts, and numpy arrays — raw sufficient statistics, no
    # configuration (that lives in the ProtocolSpec).  ``load_state``
    # restores them bitwise into a freshly built accumulator of the
    # same protocol.
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict:
        """Snapshot of the sufficient statistics; see :meth:`load_state`."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support state snapshots"
        )

    def load_state(self, state: Dict) -> "ServerAccumulator":
        """Restore :meth:`state_dict` output bitwise; returns ``self``."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support state snapshots"
        )

    def _require_reports(self) -> None:
        if self.count == 0:
            raise ValueError("no reports received yet")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(count={self.count})"


def _expect(block: ColumnBlock, owner: str, *kinds: str) -> None:
    """Check ``block`` is one of ``kinds`` with numeric columns of
    ``block.n`` rows."""
    if block.kind not in kinds:
        raise ValueError(
            f"{owner} absorbs {' or '.join(map(repr, kinds))} columns, "
            f"got {block.kind!r}"
        )
    block.check_columns()


class MeanAccumulator(ServerAccumulator):
    """Scalar running mean of 1-D numeric reports.

    Serves the ``mean`` protocol kind: every mechanism in
    :mod:`repro.core` is unbiased, so the estimator is the plain average
    of the perturbed reports (the legacy
    :meth:`repro.core.mechanism.NumericMechanism.estimate_mean`).
    """

    def __init__(self) -> None:
        self._sum = 0.0
        self._count = 0

    def _values(self, block: ColumnBlock) -> np.ndarray:
        _expect(block, "MeanAccumulator", "array")
        arr = np.asarray(block.column("array"), dtype=float)
        if arr.ndim != 1:
            raise ValueError(
                f"mean reports must be a flat array, got shape {arr.shape}"
            )
        return arr

    def validate_columns(self, block: ColumnBlock) -> None:
        self._values(block)

    def absorb_columns(self, block: ColumnBlock) -> "MeanAccumulator":
        arr = self._values(block)
        self._sum += float(arr.sum())
        self._count += arr.shape[0]
        return self

    def merge(self, other: "ServerAccumulator") -> "MeanAccumulator":
        if not isinstance(other, MeanAccumulator):
            raise ValueError(
                f"cannot merge {type(other).__name__} into MeanAccumulator"
            )
        self._sum += other._sum
        self._count += other._count
        return self

    @property
    def count(self) -> int:
        return self._count

    def state_dict(self) -> Dict:
        return {"sum": self._sum, "count": self._count}

    def load_state(self, state: Dict) -> "MeanAccumulator":
        self._sum = float(state["sum"])
        self._count = int(state["count"])
        return self

    def estimate(self) -> float:
        self._require_reports()
        return self._sum / self._count


class MultidimMeanAccumulator(ServerAccumulator):
    """Per-attribute running means over d-dimensional numeric reports.

    Absorbs either compact ``sampled-numeric`` blocks or legacy dense
    (m, d) submission matrices; both keep only the d running sums and
    the user count.
    """

    def __init__(self, d: int) -> None:
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        self.d = int(d)
        self._sums = np.zeros(self.d)
        self._count = 0

    def _checked(
        self, block: ColumnBlock
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Validated ``(cols, values)`` of a sampled-numeric block, or
        ``(matrix, None)`` of a dense one."""
        _expect(block, "MultidimMeanAccumulator", "sampled-numeric", "array")
        if block.kind == "array":
            arr = np.asarray(block.column("array"), dtype=float)
            # Uniform empty-batch no-op: a size-0 array is accepted in
            # any shape (an empty list cannot carry a column count).
            if arr.size == 0:
                return np.zeros((0, self.d)), None
            if arr.ndim == 1:  # a single dense row
                arr = arr.reshape(1, -1)
            if arr.ndim != 2 or arr.shape[1] != self.d:
                raise ValueError(
                    f"batch must be (m, {self.d}), got shape {arr.shape}"
                )
            return arr, None
        d, k = block.meta.get("d"), block.meta.get("k")
        if type(d) is not int or type(k) is not int:
            raise ValueError(
                f"sampled-numeric block needs integer d/k metadata, got "
                f"d={d!r}, k={k!r}"
            )
        if d != self.d:
            raise ValueError(
                f"reports cover d={d} attributes, accumulator expects "
                f"d={self.d}"
            )
        cols = np.asarray(block.column("cols"), dtype=np.int64)
        values = np.asarray(block.column("values"), dtype=float)
        if cols.ndim != 2 or cols.shape != values.shape:
            raise ValueError(
                f"cols and values must be matching (n, k) matrices, "
                f"got {cols.shape} and {values.shape}"
            )
        if cols.shape[1] != k:
            raise ValueError(
                f"expected k={k} sampled attributes per row, got "
                f"{cols.shape[1]}"
            )
        if cols.size and (cols.min() < 0 or cols.max() >= self.d):
            raise ValueError(
                f"sampled indices must lie in [0, {self.d - 1}]"
            )
        return cols, values

    def validate_columns(self, block: ColumnBlock) -> None:
        self._checked(block)

    def absorb_columns(
        self, block: ColumnBlock
    ) -> "MultidimMeanAccumulator":
        rows, values = self._checked(block)
        if values is None:
            self._sums += rows.sum(axis=0)
        else:
            self._sums += np.bincount(
                rows.ravel(), weights=values.ravel(), minlength=self.d
            )
        self._count += rows.shape[0]
        return self

    def merge(self, other: "ServerAccumulator") -> "MultidimMeanAccumulator":
        if not isinstance(other, MultidimMeanAccumulator) or other.d != self.d:
            raise ValueError("cannot merge aggregators of different d")
        self._sums += other._sums
        self._count += other._count
        return self

    @property
    def count(self) -> int:
        return self._count

    def state_dict(self) -> Dict:
        # Copies: a snapshot must stay stable while absorbs continue.
        return {"sums": self._sums.copy(), "count": self._count}

    def load_state(self, state: Dict) -> "MultidimMeanAccumulator":
        sums = np.asarray(state["sums"], dtype=float)
        if sums.shape != (self.d,):
            raise ValueError(
                f"state covers {sums.shape} sums, accumulator expects "
                f"({self.d},)"
            )
        self._sums = sums.copy()
        self._count = int(state["count"])
        return self

    def estimate(self) -> np.ndarray:
        self._require_reports()
        return self._sums / self._count


class FrequencyAccumulator(ServerAccumulator):
    """Running debiased support counts for one categorical attribute.

    Works with any registered oracle; the state is the oracle's length-k
    support-count vector plus the report count.  Counts are integral, so
    absorb/merge order never changes the estimate.
    """

    def __init__(self, oracle: FrequencyOracle) -> None:
        self.oracle = oracle
        self._support = np.zeros(oracle.k)
        self._count = 0

    def _reports(self, block: ColumnBlock) -> Any:
        """The oracle's input for one validated block: a zero-copy
        ``OLHReports`` view over the seed/bucket columns, or the report
        vector/matrix."""
        _expect(block, "FrequencyAccumulator", "array", "olh")
        if block.kind == "olh":
            return OLHReports.from_columns(block.columns)
        arr = block.column("array")
        if arr.ndim == 2:
            if arr.shape[1] != self.oracle.k:
                raise ValueError(
                    f"report matrix is (n, {arr.shape[1]}), oracle "
                    f"domain is k={self.oracle.k}"
                )
        elif arr.ndim == 1:
            if arr.size and not np.issubdtype(arr.dtype, np.integer) \
                    and not np.all(arr == np.floor(arr)):
                raise ValueError(
                    "integer-valued reports required for this oracle"
                )
            if arr.size and (arr.min() < 0 or arr.max() >= self.oracle.k):
                raise ValueError(
                    f"report values must lie in [0, {self.oracle.k - 1}]"
                )
        else:
            raise ValueError(
                f"frequency reports must be a vector or matrix, got "
                f"shape {arr.shape}"
            )
        return arr

    def validate_columns(self, block: ColumnBlock) -> None:
        self._reports(block)

    def absorb_columns(self, block: ColumnBlock) -> "FrequencyAccumulator":
        reports = self._reports(block)
        if block.n:
            self._support += self.oracle.support_counts(reports)
            self._count += block.n
        return self

    def merge(self, other: "ServerAccumulator") -> "FrequencyAccumulator":
        if not isinstance(other, FrequencyAccumulator):
            raise ValueError(
                f"cannot merge {type(other).__name__} into "
                "FrequencyAccumulator"
            )
        if other.oracle.k != self.oracle.k:
            raise ValueError("cannot merge aggregators of different domains")
        if (
            other.oracle.support_probabilities
            != self.oracle.support_probabilities
        ):
            raise ValueError(
                "cannot merge aggregators with different oracle "
                "support probabilities"
            )
        self._support += other._support
        self._count += other._count
        return self

    @property
    def count(self) -> int:
        return self._count

    def state_dict(self) -> Dict:
        # Copies: a snapshot must stay stable while absorbs continue.
        return {"support": self._support.copy(), "count": self._count}

    def load_state(self, state: Dict) -> "FrequencyAccumulator":
        support = np.asarray(state["support"], dtype=float)
        if support.shape != (self.oracle.k,):
            raise ValueError(
                f"state covers {support.shape} support counts, "
                f"accumulator expects ({self.oracle.k},)"
            )
        self._support = support.copy()
        self._count = int(state["count"])
        return self

    def debiased_counts(self) -> np.ndarray:
        """Sum of unbiased per-report indicators, per domain value."""
        p, q = self.oracle.support_probabilities
        return (self._support - self._count * q) / (p - q)

    def estimate(self) -> np.ndarray:
        self._require_reports()
        return self.debiased_counts() / self._count


class HistogramAccumulator(FrequencyAccumulator):
    """Frequency accumulation over histogram buckets, with projection.

    Same sufficient statistics as :class:`FrequencyAccumulator`;
    :meth:`estimate` additionally post-processes the raw frequency
    vector into a valid histogram over the given bin edges, exactly as
    :meth:`repro.frequency.histogram.LDPHistogram.estimate` does.
    """

    def __init__(
        self, oracle: FrequencyOracle, edges: Any, postprocess: str
    ) -> None:
        super().__init__(oracle)
        self.edges = np.asarray(edges, dtype=float)
        if self.edges.shape != (oracle.k + 1,):
            raise ValueError(
                f"edges must have length k+1={oracle.k + 1}, got "
                f"{self.edges.shape}"
            )
        self.postprocess = postprocess

    def merge(self, other: "ServerAccumulator") -> "HistogramAccumulator":
        if not isinstance(other, HistogramAccumulator):
            raise ValueError(
                f"cannot merge {type(other).__name__} into "
                "HistogramAccumulator"
            )
        if (
            not np.array_equal(other.edges, self.edges)
            or other.postprocess != self.postprocess
        ):
            raise ValueError(
                "cannot merge histogram accumulators with different bin "
                "edges or post-processing"
            )
        super().merge(other)
        return self

    def estimate(self) -> "HistogramEstimate":
        from repro.frequency.histogram import HistogramEstimate, LDPHistogram
        from repro.frequency.postprocess import postprocess as run_postprocess

        self._require_reports()
        raw = self.debiased_counts() / self._count
        if self.postprocess == "none":
            projected = LDPHistogram._project(raw)
        else:
            projected = run_postprocess(raw, self.postprocess)
        return HistogramEstimate(
            histogram=projected, raw=raw, edges=self.edges
        )


class MixedAccumulator(ServerAccumulator):
    """Mergeable server state for the Section IV-C mixed protocol.

    State: one running-sum vector over the numeric attributes, one
    :class:`FrequencyAccumulator` per categorical attribute, and the
    user count.  Produces the same :class:`MixedEstimates` as the
    legacy one-shot ``MixedMultidimCollector.aggregate`` (same
    debiasing, same d/k scaling).
    """

    def __init__(
        self,
        schema: Any,
        oracles: Dict[str, FrequencyOracle],
        d: int,
        k: int,
    ) -> None:
        self.schema = schema
        self.d = int(d)
        self.k = int(k)
        self._numeric_sums = np.zeros(len(schema.numeric))
        self._frequency: Dict[str, FrequencyAccumulator] = {
            a.name: FrequencyAccumulator(oracles[a.name])
            for a in schema.categorical
        }
        self._users = 0

    @classmethod
    def for_collector(cls, collector: Any) -> "MixedAccumulator":
        """The accumulator matching a ``MixedMultidimCollector``."""
        return cls(
            schema=collector.schema,
            oracles=collector.oracles,
            d=collector.d,
            k=collector.k,
        )

    def _checked(
        self, block: ColumnBlock
    ) -> Tuple[np.ndarray, List[Tuple[FrequencyAccumulator, ColumnBlock]]]:
        """Validated numeric matrix plus ``(sub-accumulator,
        sub-block)`` pairs in the header's categorical (encoding)
        order."""
        _expect(block, "MixedAccumulator", "mixed")
        numeric = np.asarray(block.column("numeric"), dtype=float)
        width = self._numeric_sums.shape[0]
        if numeric.ndim != 2 or numeric.shape[1] != width:
            raise ValueError(
                f"numeric block must be (m, {width}), got shape "
                f"{numeric.shape}"
            )
        categorical = block.meta.get("categorical")
        if not isinstance(categorical, dict):
            raise ValueError("mixed block carries no 'categorical' map")
        subs = []
        for name, kind in categorical.items():
            if name not in self._frequency:
                raise ValueError(
                    f"reports carry categorical attribute {name!r} not "
                    f"in this accumulator's schema "
                    f"{[a.name for a in self.schema.categorical]}"
                )
            sub = block.sub_block(name, str(kind))
            self._frequency[name].validate_columns(sub)
            subs.append((self._frequency[name], sub))
        return numeric, subs

    def validate_columns(self, block: ColumnBlock) -> None:
        self._checked(block)

    def absorb_columns(self, block: ColumnBlock) -> "MixedAccumulator":
        numeric, subs = self._checked(block)
        self._numeric_sums += numeric.sum(axis=0)
        for acc, sub in subs:
            acc.absorb_columns(sub)
        self._users += block.n
        return self

    def merge(self, other: "ServerAccumulator") -> "MixedAccumulator":
        if (
            not isinstance(other, MixedAccumulator)
            or other.schema.names != self.schema.names
            or other.d != self.d
            or other.k != self.k
        ):
            raise ValueError(
                "cannot merge accumulators over different protocols"
            )
        self._numeric_sums += other._numeric_sums
        for name, acc in self._frequency.items():
            acc.merge(other._frequency[name])
        self._users += other._users
        return self

    @property
    def count(self) -> int:
        return self._users

    def state_dict(self) -> Dict:
        # Copies: a snapshot must stay stable while absorbs continue.
        return {
            "numeric_sums": self._numeric_sums.copy(),
            "frequency": {
                name: acc.state_dict()
                for name, acc in self._frequency.items()
            },
            "users": self._users,
        }

    def load_state(self, state: Dict) -> "MixedAccumulator":
        sums = np.asarray(state["numeric_sums"], dtype=float)
        if sums.shape != self._numeric_sums.shape:
            raise ValueError(
                f"state covers {sums.shape} numeric sums, accumulator "
                f"expects {self._numeric_sums.shape}"
            )
        frequency = state["frequency"]
        if set(frequency) != set(self._frequency):
            raise ValueError(
                f"state covers categorical attributes "
                f"{sorted(frequency)}, accumulator expects "
                f"{sorted(self._frequency)}"
            )
        self._numeric_sums = sums.copy()
        for name, sub in frequency.items():
            self._frequency[name].load_state(sub)
        self._users = int(state["users"])
        return self

    def estimate(self) -> "MixedEstimates":
        from repro.multidim.aggregator import MixedEstimates

        self._require_reports()
        means = {
            a.name: float(self._numeric_sums[i] / self._users)
            for i, a in enumerate(self.schema.numeric)
        }
        scale = self.d / self.k
        frequencies = {
            name: scale * acc.debiased_counts() / self._users
            for name, acc in self._frequency.items()
        }
        return MixedEstimates(means=means, frequencies=frequencies)

"""Report containers exchanged between protocol clients and servers.

A *report* is exactly what one user transmits; the server never needs
anything else.  Most protocol kinds reuse library-native report types
(perturbed-value arrays for 1-D numeric, bit matrices / ``OLHReports``
for frequency oracles, :class:`repro.multidim.collector.MixedReports`
for mixed tuples).  This module adds the compact wire format for
Algorithm 4:

:class:`SampledNumericReports` stores, per user, only the k sampled
attribute indices and the k scaled perturbed values — O(n k) memory
instead of the legacy dense (n, d) matrix whose entries are mostly
zeros.  ``to_dense()`` recovers the legacy layout when needed.

Columnar form
-------------

Every report batch has one *canonical columnar form*: a
:class:`ColumnBlock` holding the container kind, the user count, the
JSON-scalar metadata (``d``/``k``, per-attribute sub-kinds) and the
named numpy columns.  :func:`to_block` is the one map from report
containers to blocks; it reuses the containers' own arrays, so nothing
is copied.  Blocks are the only batch form server-side state consumes
(``ServerAccumulator.absorb_columns``), and both wire formats carry
them: v2 frames the columns as packed arrays, v1 writes the same
columns as JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.frequency.olh import OLHReports


@dataclass
class ColumnBlock:
    """One report batch in canonical columnar form.

    Attributes
    ----------
    kind:
        Container kind tag — ``"array"``, ``"olh"``,
        ``"sampled-numeric"`` or ``"mixed"`` — the same vocabulary the
        v1 JSON codec uses.
    n:
        Number of reporting users in the batch.
    meta:
        JSON-scalar metadata needed to rebuild the container (e.g.
        ``d``/``k`` for sampled-numeric, the per-attribute sub-kinds
        for mixed).  Never carries arrays.
    columns:
        Flat name -> numpy array mapping.  Nested containers (mixed
        tuples) flatten with ``cat.<attribute>.<column>`` names.
    """

    kind: str
    n: int
    meta: Dict[str, Any] = field(default_factory=dict)
    columns: Dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.n = int(self.n)
        if self.n < 0:
            raise ValueError(f"n must be non-negative, got {self.n}")
        for name, arr in self.columns.items():
            self.columns[name] = np.asarray(arr)

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise ValueError(
                f"columnar {self.kind!r} block is missing column "
                f"{name!r} (has {sorted(self.columns)})"
            ) from None

    def check_columns(self) -> None:
        """Raise ``ValueError`` unless the columns are numeric and hold
        ``n`` users.

        Every column of a flat block has one row per user.  A mixed
        block's ``numeric`` matrix has ``n`` rows and each
        ``cat.<name>.*`` column at most ``n`` (the users who sampled
        that attribute).  This is what ties the rows absorbed to the
        ``n`` users the ledger charges.
        """
        for name, arr in self.columns.items():
            if arr.dtype.kind not in "biuf":
                raise ValueError(
                    f"column {name!r} has non-numeric dtype {arr.dtype.str!r}"
                )
            rows = arr.shape[0] if arr.ndim else -1
            if self.kind == "mixed" and name.startswith("cat."):
                ok = 0 <= rows <= self.n
            else:
                ok = rows == self.n
            if not ok:
                raise ValueError(
                    f"{self.kind!r} block declares n={self.n} users but "
                    f"column {name!r} has shape {arr.shape}"
                )

    def sub_block(
        self, prefix: str, kind: str, n: Optional[int] = None
    ) -> "ColumnBlock":
        """The nested block under ``cat.<prefix>.`` (mixed flattening).

        ``n`` defaults to the row count of the nested columns: only the
        users who sampled the attribute report it.
        """
        head = f"cat.{prefix}."
        columns = {
            name[len(head):]: arr
            for name, arr in self.columns.items()
            if name.startswith(head)
        }
        if n is None:
            first = next(iter(columns.values()), np.zeros(0))
            n = first.shape[0] if first.ndim else 0
        return ColumnBlock(kind=kind, n=n, meta={}, columns=columns)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ColumnBlock(kind={self.kind!r}, n={self.n}, "
            f"columns={sorted(self.columns)})"
        )


@dataclass
class SampledNumericReports:
    """Algorithm 4 submissions in compact (indices, values) form.

    Attributes
    ----------
    d:
        Total number of attributes in the sampling universe.
    k:
        Attributes sampled (and reported) per user.
    cols:
        (n, k) integer matrix; row i holds user i's sampled attribute
        indices (distinct, in [0, d)).
    values:
        (n, k) float matrix; entry (i, j) is the user's perturbed value
        for attribute ``cols[i, j]``, already scaled by d/k so that the
        server-side estimator is a plain average.
    """

    d: int
    k: int
    cols: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.cols = np.asarray(self.cols, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=float)
        if self.cols.ndim != 2 or self.cols.shape != self.values.shape:
            raise ValueError(
                f"cols and values must be matching (n, k) matrices, got "
                f"{self.cols.shape} and {self.values.shape}"
            )
        if self.cols.shape[1] != self.k:
            raise ValueError(
                f"expected k={self.k} sampled attributes per row, got "
                f"{self.cols.shape[1]}"
            )
        if self.cols.size and (
            self.cols.min() < 0 or self.cols.max() >= self.d
        ):
            raise ValueError(
                f"sampled indices must lie in [0, {self.d - 1}]"
            )

    @property
    def n(self) -> int:
        """Number of reporting users."""
        return int(self.cols.shape[0])

    def __len__(self) -> int:
        return self.n

    # ------------------------------------------------------------------
    # Columnar form
    # ------------------------------------------------------------------
    def to_columns(self) -> Dict[str, np.ndarray]:
        """Canonical columnar form: the two (n, k) matrices by name.

        The container metadata (``d``, ``k``) travels separately, in
        the :class:`ColumnBlock` meta.
        """
        return {"cols": self.cols, "values": self.values}

    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """The legacy (n, d) submission matrix (zeros at unsampled entries)."""
        out = np.zeros((self.n, self.d))
        rows = np.repeat(np.arange(self.n), self.k)
        out[rows, self.cols.ravel()] = self.values.ravel()
        return out

    def split(self, sections: int) -> List["SampledNumericReports"]:
        """Split the users into ``sections`` contiguous shards."""
        if sections < 1:
            raise ValueError(f"sections must be >= 1, got {sections}")
        parts = zip(
            np.array_split(self.cols, sections),
            np.array_split(self.values, sections),
        )
        return [
            SampledNumericReports(d=self.d, k=self.k, cols=c, values=v)
            for c, v in parts
        ]


def to_block(reports: Any) -> ColumnBlock:
    """The canonical :class:`ColumnBlock` of any report batch.

    The one map from report containers to columns: plain arrays
    (numeric perturbed values, GRR integers, unary bit matrices; a
    scalar becomes one row), :class:`~repro.frequency.olh.OLHReports`,
    :class:`SampledNumericReports` and
    :class:`~repro.multidim.collector.MixedReports`.  A block passes
    through unchanged.  The block's columns are the container's own
    buffers; nothing is copied.
    """
    if isinstance(reports, ColumnBlock):
        return reports
    if isinstance(reports, SampledNumericReports):
        return ColumnBlock(
            kind="sampled-numeric",
            n=reports.n,
            meta={"d": int(reports.d), "k": int(reports.k)},
            columns=reports.to_columns(),
        )
    if isinstance(reports, OLHReports):
        return ColumnBlock(
            kind="olh", n=len(reports), columns=reports.to_columns()
        )
    if not isinstance(reports, np.ndarray):
        # Lazy: the collector module pulls in the client-side
        # mechanisms, which the server tier never needs.
        from repro.multidim.collector import MixedReports

        if isinstance(reports, MixedReports):
            # Each attribute's sub-block flattens under
            # ``cat.<name>.<column>``; the separator is load-bearing.
            columns = {"numeric": np.asarray(reports.numeric)}
            kinds = {}
            for name, sub in reports.categorical.items():
                if "." in name:
                    raise ValueError(
                        f"categorical attribute {name!r} contains '.', "
                        f"which the columnar flattening reserves"
                    )
                sub_block = to_block(sub)
                kinds[name] = sub_block.kind
                for key, arr in sub_block.columns.items():
                    columns[f"cat.{name}.{key}"] = arr
            return ColumnBlock(
                kind="mixed",
                n=int(reports.n),
                meta={"categorical": kinds},
                columns=columns,
            )
    arr = np.asarray(reports)
    if arr.dtype == object:
        raise ValueError(
            f"cannot encode report container of type "
            f"{type(reports).__name__}"
        )
    if arr.ndim == 0:
        arr = arr.reshape(1)
    return ColumnBlock(kind="array", n=arr.shape[0], columns={"array": arr})

"""Longitudinal memoized perturbation (client-side).

:class:`MemoizedEncoder` wraps any
:class:`~repro.protocol.encoders.ClientEncoder` and caches, per
``(user, value)``, the perturbed report produced the *first* time that
user reported that value.  Re-reporting an unchanged value across
rounds resends the byte-identical cached report, so the adversary's
view of that user across rounds collapses to a single perturbation —
one epsilon charge, not one per round.  The client marks each batch
entry with a ``fresh`` flag; the server's ledger charges only the
fresh ones (see DESIGN.md for the trust argument: the SDK runs on the
user's own device and is the agent protecting the user's own budget,
exactly like the perturbation itself).

The cache is per-encoder, and clients hold one encoder per campaign —
so the memoization key is effectively ``(campaign, user, value)``, the
granularity the privacy argument needs.  A user switching to a *new*
value is perturbed fresh (and charged); switching back to a previously
reported value reuses that value's original report without further
charge (classic permanent memoization à la RAPPOR).  A ``(user, value)``
repeated within one batch is perturbed once, fresh at its first entry.

Supported report containers: numeric arrays (mean protocol), GRR index
arrays, unary-encoding bit matrices, :class:`~repro.frequency.olh.OLHReports`
and :class:`~repro.protocol.reports.SampledNumericReports`.  Mixed-tuple
reports are rejected — their per-attribute sampling makes a cached row
unrepresentative, so memoizing them would silently change the protocol.

Cache layout: ``{user: {value key: row}}``, so ``forget(user)`` touches
that user's entries only.  A batch costs one pass to key its values
(dtype, row shape, then bytes: ``int32`` 3 and ``int64`` 3 differ), one
dict probe per user and one ``bytes`` join per report column.

This module is client-side by design: it imports encoders and is NOT
part of the QA201 server tier.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.frequency.olh import OLHReports
from repro.protocol.accumulators import ServerAccumulator
from repro.protocol.encoders import ClientEncoder, MixedEncoder
from repro.protocol.reports import SampledNumericReports, to_block
from repro.utils.rng import RngLike

_Row = Tuple[bytes, ...]  # one cached report: bytes per report column
_NOTHING: Dict[bytes, _Row] = {}


def _row_bytes(arr: np.ndarray, prefix: bytes = b"") -> List[bytes]:
    """Each row (axis 0) of ``arr`` as one ``bytes`` led by ``prefix``."""
    n, lead = len(arr), len(prefix)
    width = arr.dtype.itemsize * math.prod(arr.shape[1:])
    out = np.empty((n, lead + width), np.uint8)
    out[:, :lead] = np.frombuffer(prefix, np.uint8)
    out[:, lead:] = np.ascontiguousarray(arr).view(np.uint8).reshape(n, width)
    return out.view(np.dtype((np.void, lead + width))).ravel().tolist()


class MemoizedEncoder(ClientEncoder):
    """Permanent per-``(user, value)`` report memoization wrapper.

    Wraps ``inner`` without changing its single-round distribution:
    fresh values are encoded by ``inner`` exactly as before (the fresh
    subset is perturbed as one vectorized batch, so an all-cached round
    never touches the rng at all — round-2 encode cost ~0).
    """

    def __init__(self, inner: ClientEncoder) -> None:
        if isinstance(inner, MemoizedEncoder):
            raise ValueError("refusing to memoize a MemoizedEncoder")
        if isinstance(inner, MixedEncoder):
            raise TypeError(
                "mixed-tuple protocols cannot be memoized: each round "
                "re-samples which attributes a user reports, so a cached "
                "row is unrepresentative"
            )
        self.inner = inner
        self._cache: Dict[Hashable, Dict[bytes, _Row]] = {}
        # (kind, meta, ((column, dtype, row shape), ...)) of all rows.
        self._layout: Optional[Tuple[str, Dict[str, Any], tuple]] = None
        self._hits = 0
        self._misses = 0

    def encode_batch(self, values: Any, rng: RngLike = None) -> Any:
        """Plain (user-less) encode: no identity, nothing to memoize."""
        return self.inner.encode_batch(values, rng)

    def new_accumulator(self) -> ServerAccumulator:
        return self.inner.new_accumulator()

    def encode_users(
        self,
        values: Any,
        users: Sequence[Hashable],
        rng: RngLike = None,
    ) -> Tuple[Any, List[bool]]:
        """Encode one round for named users; flag which reports are new.

        Returns ``(reports, fresh)`` where ``reports`` is the full
        report container in batch order (cached rows byte-identical to
        their first transmission) and ``fresh[i]`` says whether user
        ``i``'s report was perturbed this round — the server charges
        epsilon only for fresh entries.
        """
        matrix = np.asarray(values)
        if matrix.ndim == 0:
            matrix = matrix.reshape(1)
        n = matrix.shape[0]
        if len(users) != n:
            raise ValueError(
                f"got {n} values for {len(users)} users; they must pair up"
            )
        if n == 0:
            return self.inner.encode_batch(values, rng), []

        keys = _row_bytes(
            matrix, f"{matrix.dtype.str}|{matrix.shape[1:]!r}|".encode()
        )
        cache = self._cache
        rows = [cache.get(u, _NOTHING).get(k) for u, k in zip(users, keys)]
        missed = [i for i, row in enumerate(rows) if row is None]
        firsts: Dict[Tuple[Hashable, bytes], int] = {}
        fresh = [False] * n
        for i in missed:
            fresh[i] = firsts.setdefault((users[i], keys[i]), i) == i

        if firsts:
            fresh_rows = self._split(self.inner.encode_batch(
                matrix[list(firsts.values())], rng
            ))
            for i, row in zip(firsts.values(), fresh_rows):
                cache.setdefault(users[i], {})[keys[i]] = row
            for i in missed:
                rows[i] = cache[users[i]][keys[i]]
        self._hits += n - len(firsts)
        self._misses += len(firsts)
        return self._join(rows), fresh

    def _split(self, reports: Any) -> List[_Row]:
        """One cacheable row per user of a fresh report batch."""
        block = to_block(reports)
        if block.kind == "mixed":
            raise TypeError("memoization does not support mixed-tuple reports")
        layout = (block.kind, block.meta, tuple(
            (name, col.dtype, col.shape[1:])
            for name, col in block.columns.items()
        ))
        if self._layout not in (None, layout):
            raise TypeError(f"reports {layout} differ from {self._layout}")
        self._layout = layout
        return list(zip(*map(_row_bytes, block.columns.values())))

    def _join(self, rows: Sequence[_Row]) -> Any:
        """Reassemble rows (batch order) into a report container."""
        kind, meta, layout = self._layout  # type: ignore[misc]
        columns = {
            name: np.frombuffer(b"".join(column), dtype)
            .reshape((len(rows), *shape)).copy()
            for (name, dtype, shape), column in zip(layout, zip(*rows))
        }
        if kind == "olh":
            return OLHReports(**columns)
        if kind == "sampled-numeric":
            return SampledNumericReports(d=meta["d"], k=meta["k"], **columns)
        return columns["array"]

    @property
    def cache_size(self) -> int:
        """Distinct ``(user, value)`` pairs memoized so far."""
        return sum(len(rows) for rows in self._cache.values())

    @property
    def hits(self) -> int:
        """Reports served from cache (no perturbation, no charge)."""
        return self._hits

    @property
    def misses(self) -> int:
        """Reports perturbed fresh (charged by the ledger)."""
        return self._misses

    def forget(self, user: Optional[Hashable] = None) -> int:
        """Drop cached reports (one user's, or everyone's); returns
        the number of entries removed.  A forgotten value will be
        re-perturbed — and re-charged — on next report."""
        if user is not None:
            return len(self._cache.pop(user, ()))
        removed, self._cache = self.cache_size, {}
        return removed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MemoizedEncoder({self.inner!r}, cached={self.cache_size}, "
            f"hits={self._hits}, misses={self._misses})"
        )

"""Optimized Local Hashing (OLH), Wang et al. USENIX'17.

Each user draws a random hash seed, hashes her value into a small domain
of size g = round(e^eps) + 1, and reports the seed together with a
GRR-perturbed hash bucket.  Communication is O(1) instead of OUE's O(k),
with (asymptotically) the same estimator variance.  Included as an
ablation alternative to OUE inside the Section IV-C collector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.frequency.oracle import FrequencyOracle, register_oracle
from repro.utils.rng import RngLike, ensure_rng

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

#: Working-set bound for vectorized support counting: domain values are
#: processed in blocks of ~this many (user, value) hash evaluations.
#: Sized so each block's uint64 temporaries stay L2-resident — larger
#: blocks go DRAM-bound and run slower than the per-value loop they
#: replace.
_SUPPORT_BLOCK_ELEMENTS = 65_536


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer: a fast, well-mixed 64-bit hash."""
    x = x.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(30)
    x *= _MIX1
    x ^= x >> np.uint64(27)
    x *= _MIX2
    x ^= x >> np.uint64(31)
    return x


@dataclass
class OLHReports:
    """Per-user OLH reports: a hash seed and a perturbed hash bucket."""

    seeds: np.ndarray
    buckets: np.ndarray

    def __post_init__(self):
        if self.seeds.ndim != 1 or self.seeds.shape != self.buckets.shape:
            raise ValueError("seeds and buckets must be equal-length vectors")

    def __len__(self) -> int:
        return int(self.seeds.shape[0])

    # ------------------------------------------------------------------
    # Columnar form (see repro.protocol.reports.to_block)
    # ------------------------------------------------------------------
    def to_columns(self) -> dict:
        """Canonical columnar form: the two per-user vectors by name."""
        return {"seeds": self.seeds, "buckets": self.buckets}

    @classmethod
    def from_columns(cls, columns: dict) -> "OLHReports":
        """Zero-copy view over :meth:`to_columns` output (bitwise)."""
        if not {"seeds", "buckets"} <= set(columns):
            raise ValueError(f"OLH needs seeds/buckets, got {sorted(columns)}")
        return cls(
            seeds=np.asarray(columns["seeds"]),
            buckets=np.asarray(columns["buckets"]),
        )


@register_oracle
class OptimizedLocalHashing(FrequencyOracle):
    """OLH frequency oracle with the variance-optimal g = e^eps + 1."""

    name = "olh"

    def __init__(self, epsilon: float, k: int, g: int = None):
        super().__init__(epsilon, k)
        if g is None:
            g = int(round(math.exp(self.epsilon))) + 1
        if g < 2:
            raise ValueError(f"hash range g must be >= 2, got {g}")
        self.g = g

    @property
    def support_probabilities(self) -> Tuple[float, float]:
        e = math.exp(self.epsilon)
        p = e / (e + self.g - 1.0)
        # For a non-true value, the (random) hash collides with the
        # reported bucket with probability exactly 1/g.
        return p, 1.0 / self.g

    def _hash(self, seeds: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Hash (seed, value) pairs into buckets [0, g)."""
        with np.errstate(over="ignore"):
            mixed = _splitmix64(
                seeds.astype(np.uint64)
                + (values.astype(np.uint64) + np.uint64(1)) * _GOLDEN
            )
        return (mixed % np.uint64(self.g)).astype(np.int64)

    def privatize(self, values, rng: RngLike = None) -> OLHReports:
        gen = ensure_rng(rng)
        truth = self._check_values(values)
        n = truth.shape[0]
        seeds = gen.integers(0, 2**63 - 1, size=n, dtype=np.int64).astype(
            np.uint64
        )
        hashed = self._hash(seeds, truth)
        # GRR over the hash domain [0, g).
        e = math.exp(self.epsilon)
        keep = gen.random(n) < e / (e + self.g - 1.0)
        others = gen.integers(0, self.g - 1, size=n)
        others = np.where(others >= hashed, others + 1, others)
        buckets = np.where(keep, hashed, others)
        return OLHReports(seeds=seeds, buckets=buckets)

    def support_counts(self, reports: OLHReports) -> np.ndarray:
        """Support counting over cache-sized blocks of domain values.

        Hashes blocks of ~``_SUPPORT_BLOCK_ELEMENTS`` (user, value)
        pairs per numpy call: for n below the block budget this folds
        many domain values into one 2-D hash (the win over the old
        per-value loop — up to ~2.5x when k is large relative to n);
        for larger n the block degenerates to one value at a time,
        which matches the old loop's shape but still avoids its
        per-value ``np.full``/``astype`` allocations.  Blocks larger
        than ~L2 measurably *lose* to the loop (DRAM-bound
        temporaries), hence the small budget.  Bitwise-identical to the
        per-value loop in all regimes.
        """
        if not isinstance(reports, OLHReports):
            raise TypeError("OLH expects OLHReports from privatize()")
        n = len(reports)
        counts = np.zeros(self.k)
        if n == 0:
            return counts
        block = max(1, _SUPPORT_BLOCK_ELEMENTS // n)
        seeds = reports.seeds.astype(np.uint64)[np.newaxis, :]
        buckets = reports.buckets[np.newaxis, :]
        for start in range(0, self.k, block):
            values = np.arange(
                start, min(start + block, self.k), dtype=np.int64
            )
            with np.errstate(over="ignore"):
                mixed = _splitmix64(
                    seeds
                    + (values.astype(np.uint64)[:, np.newaxis] + np.uint64(1))
                    * _GOLDEN
                )
            hashed = (mixed % np.uint64(self.g)).astype(np.int64)
            counts[start : start + values.shape[0]] = (
                (hashed == buckets).sum(axis=1).astype(float)
            )
        return counts

"""The paper's multidimensional collectors (Algorithm 4 and Section IV-C).

Two collectors are provided:

* :class:`MultidimNumericCollector` — Algorithm 4 verbatim: each user
  samples k = max(1, min(d, floor(eps/2.5))) of her d numeric attributes,
  perturbs each with PM or HM at budget eps/k, scales by d/k and submits;
  unsampled entries are zero.  The aggregator's column average is an
  unbiased mean estimate per attribute.

* :class:`MixedMultidimCollector` — the Section IV-C extension to tuples
  mixing numeric and categorical attributes: sampled numeric attributes
  go through PM/HM at eps/k, sampled categorical attributes through any
  single-attribute frequency oracle (OUE by default) at eps/k; frequency
  estimates are scaled by d/k.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.mechanism import NumericMechanism, get_mechanism
from repro.core.validation import check_dimension, check_epsilon, check_matrix
from repro.data.schema import Dataset, Schema
from repro.frequency.oracle import FrequencyOracle, get_oracle
from repro.multidim.aggregator import MixedEstimates
from repro.theory.constants import optimal_k
from repro.theory.variance import hm_md_variance, pm_md_variance
from repro.utils.rng import RngLike, ensure_rng


def sample_attribute_matrix(
    n: int, d: int, k: int, rng: RngLike = None
) -> np.ndarray:
    """(n, k) matrix: each row is k distinct attribute indices from [0, d).

    Uniform sampling without replacement per user (Algorithm 4, line 3),
    vectorized via per-row random ranking.  ``n = 0`` is allowed and
    yields an empty (0, k) matrix without consuming the rng, so an
    empty batch flows through the protocol layer as a uniform no-op.
    """
    if not 1 <= k <= d:
        raise ValueError(f"need 1 <= k <= d, got k={k}, d={d}")
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if n == 0:
        return np.empty((0, k), dtype=np.int64)
    gen = ensure_rng(rng)
    return np.argsort(gen.random((n, d)), axis=1)[:, :k]


def sample_and_perturb(
    mechanism: NumericMechanism,
    tuples,
    d: int,
    k: int,
    rng: RngLike = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Algorithm 4's vectorized client-side hot path.

    Samples k of d attributes per user and perturbs the sampled entries
    with ``mechanism`` in one vectorized call.  Returns ``(sampled,
    noisy)``: the (n, k) index matrix and the matching (n, k) perturbed
    (unscaled) values.  Shared by the legacy dense ``privatize`` and the
    protocol layer's compact encoder so both consume the rng stream
    identically.
    """
    gen = ensure_rng(rng)
    t = check_matrix(tuples, d)
    n = t.shape[0]
    sampled = sample_attribute_matrix(n, d, k, gen)
    rows = np.repeat(np.arange(n), k)
    noisy = mechanism.privatize(t[rows, sampled.ravel()], gen)
    return sampled, noisy.reshape(n, k)


class MultidimNumericCollector:
    """Algorithm 4: k-sampled multidimensional numeric collection.

    Parameters
    ----------
    epsilon:
        Total privacy budget for the whole d-dimensional tuple.
    d:
        Number of numeric attributes.
    mechanism:
        Registered 1-D mechanism name used per sampled attribute
        ("pm" or "hm" per the paper; any registered name is accepted
        for ablations).
    k:
        Override of the number of sampled attributes (defaults to
        Eq. 12's optimum).
    """

    def __init__(
        self,
        epsilon: float,
        d: int,
        mechanism: str = "hm",
        k: Optional[int] = None,
    ):
        self.epsilon = check_epsilon(epsilon)
        self.d = check_dimension(d)
        if k is None:
            k = optimal_k(self.epsilon, self.d)
        if not 1 <= k <= self.d:
            raise ValueError(f"need 1 <= k <= d, got k={k}, d={self.d}")
        self.k = int(k)
        self.mechanism_name = mechanism
        self.mechanism: NumericMechanism = get_mechanism(
            mechanism, self.epsilon / self.k
        )

    # ------------------------------------------------------------------
    def privatize(self, tuples, rng: RngLike = None) -> np.ndarray:
        """Perturb an (n, d) matrix of tuples in [-1, 1]^d.

        Returns the (n, d) matrix of submissions: entry (i, j) is
        (d/k) * x_ij for sampled attributes and 0 otherwise.
        """
        sampled, noisy = sample_and_perturb(
            self.mechanism, tuples, self.d, self.k, rng
        )
        n = sampled.shape[0]
        out = np.zeros((n, self.d))
        out[np.repeat(np.arange(n), self.k), sampled.ravel()] = (
            (self.d / self.k) * noisy
        ).ravel()
        return out

    def estimate_means(self, reports) -> np.ndarray:
        """Unbiased per-attribute means: plain column averages."""
        arr = np.asarray(reports, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != self.d or arr.shape[0] == 0:
            raise ValueError(
                f"reports must be a non-empty (n, {self.d}) matrix"
            )
        return arr.mean(axis=0)

    def collect(self, tuples, rng: RngLike = None) -> np.ndarray:
        """privatize + estimate_means in one call.

        .. deprecated:: 1.1
            Monolithic client+server shortcut.  Use the protocol API
            instead: ``repro.protocol.Protocol.multidim(epsilon, d=d,
            mechanism=...)`` with ``client().encode_batch`` and
            ``server().absorb(...).estimate()``.
        """
        warnings.warn(
            "MultidimNumericCollector.collect() is deprecated; use "
            "repro.protocol.Protocol.multidim(...) (client/server API) "
            "instead",
            DeprecationWarning,
            stacklevel=2,
        )
        from repro.protocol.accumulators import MultidimMeanAccumulator

        return (
            MultidimMeanAccumulator(self.d)
            .absorb(self.privatize(tuples, rng))
            .estimate()
        )

    # ------------------------------------------------------------------
    def per_coordinate_variance(self, t) -> np.ndarray:
        """Closed-form Var[t*[j] | t[j]] (Eq. 14 for PM, Eq. 15 for HM)."""
        if self.mechanism_name == "pm":
            return pm_md_variance(t, self.epsilon, self.d, self.k)
        if self.mechanism_name == "hm":
            return hm_md_variance(t, self.epsilon, self.d, self.k)
        # Generic first-principles fallback for ablation mechanisms:
        # Var = (d/k) (Var_mech(t; eps/k) + t^2) - t^2.
        t = np.asarray(t, dtype=float)
        ratio = self.d / self.k
        return ratio * (self.mechanism.variance(t) + t**2) - t**2

    def worst_case_variance(self) -> float:
        """Max of :meth:`per_coordinate_variance` over t in [-1, 1].

        Evaluated on a dense grid: the generic fallback branch inherits
        the wrapped mechanism's variance shape, which need not be
        monotone in |t| for ablation mechanisms.
        """
        from repro.core.mechanism import variance_grid

        return float(np.max(self.per_coordinate_variance(variance_grid())))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MultidimNumericCollector(epsilon={self.epsilon!r}, d={self.d}, "
            f"mechanism={self.mechanism_name!r}, k={self.k})"
        )


# ----------------------------------------------------------------------
# Mixed numeric + categorical collection (Section IV-C)
# ----------------------------------------------------------------------


@dataclass
class MixedReports:
    """Perturbed submissions from n users over a mixed schema.

    ``numeric`` is the Algorithm 4 style (n, d_numeric) matrix (zeros at
    unsampled entries, scaled by d/k).  ``categorical`` maps attribute
    name to the oracle reports of the users who sampled that attribute.
    """

    n: int
    numeric: np.ndarray
    categorical: Dict[str, object]


class MixedMultidimCollector:
    """Section IV-C: collect tuples with numeric + categorical attributes.

    Parameters
    ----------
    schema:
        Attribute schema (order defines the sampling universe of size d).
    epsilon:
        Total budget per user for the whole tuple.
    numeric_mechanism:
        1-D mechanism name for numeric attributes ("pm" or "hm").
    oracle:
        Frequency oracle name for categorical attributes ("oue" is the
        paper's choice; "grr"/"sue"/"olh" for ablations).
    k:
        Override of Eq. 12's sampling parameter.
    """

    def __init__(
        self,
        schema: Schema,
        epsilon: float,
        numeric_mechanism: str = "hm",
        oracle: str = "oue",
        k: Optional[int] = None,
    ):
        self.schema = schema
        self.epsilon = check_epsilon(epsilon)
        self.d = schema.d
        if k is None:
            k = optimal_k(self.epsilon, self.d)
        if not 1 <= k <= self.d:
            raise ValueError(f"need 1 <= k <= d, got k={k}, d={self.d}")
        self.k = int(k)
        self.numeric_mechanism_name = numeric_mechanism
        self.oracle_name = oracle
        budget = self.epsilon / self.k
        self.numeric_mechanism: NumericMechanism = get_mechanism(
            numeric_mechanism, budget
        )
        self.oracles: Dict[str, FrequencyOracle] = {
            a.name: get_oracle(oracle, budget, a.cardinality)
            for a in schema.categorical
        }
        # Map schema position -> (is_numeric, position within its block).
        self._numeric_pos = {}
        self._categorical_name = {}
        num_i = 0
        for j, attr in enumerate(schema.attributes):
            if attr.is_numeric:
                self._numeric_pos[j] = num_i
                num_i += 1
            else:
                self._categorical_name[j] = attr.name

    # ------------------------------------------------------------------
    def privatize(self, dataset: Dataset, rng: RngLike = None) -> MixedReports:
        """Perturb every user's tuple; returns the raw submissions."""
        if dataset.schema.names != self.schema.names:
            raise ValueError("dataset schema does not match collector schema")
        gen = ensure_rng(rng)
        n = dataset.n
        numeric_matrix = dataset.numeric_matrix()
        categorical_matrix = dataset.categorical_matrix()
        cat_col = {
            a.name: i for i, a in enumerate(self.schema.categorical)
        }

        sampled = sample_attribute_matrix(n, self.d, self.k, gen)
        hit = np.zeros((n, self.d), dtype=bool)
        hit[np.repeat(np.arange(n), self.k), sampled.ravel()] = True

        numeric_out = np.zeros((n, len(self.schema.numeric)))
        categorical_out: Dict[str, object] = {}
        scale = self.d / self.k

        for j in range(self.d):
            users = np.nonzero(hit[:, j])[0]
            if users.size == 0:
                continue
            if j in self._numeric_pos:
                col = self._numeric_pos[j]
                noisy = self.numeric_mechanism.privatize(
                    numeric_matrix[users, col], gen
                )
                numeric_out[users, col] = scale * noisy
            else:
                name = self._categorical_name[j]
                truth = categorical_matrix[users, cat_col[name]]
                categorical_out[name] = self.oracles[name].privatize(
                    truth, gen
                )
        return MixedReports(
            n=n, numeric=numeric_out, categorical=categorical_out
        )

    # ------------------------------------------------------------------
    def aggregate(self, reports: MixedReports) -> MixedEstimates:
        """Unbiased means and frequency tables from the submissions.

        Thin wrapper over the mergeable protocol-layer state; see
        :class:`repro.protocol.accumulators.MixedAccumulator` for the
        sharded / streaming version.
        """
        from repro.protocol.accumulators import MixedAccumulator

        return MixedAccumulator.for_collector(self).absorb(reports).estimate()

    def collect(self, dataset: Dataset, rng: RngLike = None) -> MixedEstimates:
        """privatize + aggregate in one call.

        .. deprecated:: 1.1
            Monolithic client+server shortcut.  Use
            ``repro.protocol.Protocol.multidim(epsilon, schema=schema)``
            with ``client().encode_batch`` and
            ``server().absorb(...).estimate()`` instead.
        """
        warnings.warn(
            "MixedMultidimCollector.collect() is deprecated; use "
            "repro.protocol.Protocol.multidim(..., schema=...) "
            "(client/server API) instead",
            DeprecationWarning,
            stacklevel=2,
        )
        return self.aggregate(self.privatize(dataset, rng))

    # ------------------------------------------------------------------
    def per_coordinate_variance(self, t) -> np.ndarray:
        """Closed-form Var[t*[j] | t[j]] for the *numeric* attributes
        (Eq. 14 for PM, Eq. 15 for HM, first principles otherwise)."""
        if self.numeric_mechanism_name == "pm":
            return pm_md_variance(t, self.epsilon, self.d, self.k)
        if self.numeric_mechanism_name == "hm":
            return hm_md_variance(t, self.epsilon, self.d, self.k)
        t = np.asarray(t, dtype=float)
        ratio = self.d / self.k
        return ratio * (self.numeric_mechanism.variance(t) + t**2) - t**2

    def worst_case_variance(self) -> float:
        """Worst-case per-coordinate variance of a numeric mean report.

        Dense-grid evaluation, for the same reason as
        :meth:`MultidimNumericCollector.worst_case_variance`.
        """
        from repro.core.mechanism import variance_grid

        return float(np.max(self.per_coordinate_variance(variance_grid())))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MixedMultidimCollector(d={self.d}, epsilon={self.epsilon!r}, "
            f"numeric={self.numeric_mechanism_name!r}, "
            f"oracle={self.oracle_name!r}, k={self.k})"
        )

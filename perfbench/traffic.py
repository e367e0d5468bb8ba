"""Seeded traffic for the three workloads.

Everything the server will see is derived here from the workload seed:
report values, user ids, churn and round contents.  The server only
ever receives the resulting HTTP requests.  :class:`InputDigest` hashes
what was generated (and, for ``stream``, the reports actually sent), so
two runs on one seed can be shown to have sent identical traffic.
"""

from __future__ import annotations

import hashlib
from typing import Any, List

import numpy as np

BATCH = 2_000


class InputDigest:
    """SHA-256 over user ids, values and report bytes, in send order."""

    def __init__(self, workload: str, seed: int) -> None:
        self._hash = hashlib.sha256(f"{workload}:{seed}".encode("ascii"))

    def users(self, users: List[str]) -> None:
        self._hash.update("\n".join(users).encode("ascii"))

    def text(self, text: str) -> None:
        self._hash.update(text.encode("utf-8"))

    def array(self, arr: Any) -> None:
        arr = np.ascontiguousarray(arr)
        self._hash.update(f"{arr.dtype.str}{arr.shape}".encode("ascii"))
        self._hash.update(arr.tobytes())

    def reports(self, reports: Any) -> None:
        # Report containers expose their columns; plain oracles return
        # one array.  (Not wire.reports_to_columns: the traced run
        # times that function as SDK encode work.)
        if hasattr(reports, "to_columns"):
            columns = reports.to_columns()
            for name in sorted(columns):
                self._hash.update(name.encode("ascii"))
                self.array(columns[name])
        else:
            self.array(reports)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def id_token(rng: np.random.Generator) -> str:
    """Seed-derived prefix shared by one run's user ids."""
    return f"u{int(rng.integers(2**32)):08x}"


def user_ids(token: str, batch: int, count: int) -> List[str]:
    """Ids unique per (batch, position), so batches never share users."""
    return [f"{token}-{batch}-{i}" for i in range(count)]


def zipf_probabilities(domain: int, exponent: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, domain + 1) ** exponent
    return weights / weights.sum()


def churn_schedule(
    rng: np.random.Generator,
    users: int,
    rounds: int,
    domain: int,
    churn: float,
    exponent: float,
) -> np.ndarray:
    """``(rounds, users)`` values: Zipf at round 0, then each round a
    ``churn`` share of users moves to a different Zipf-drawn value."""
    p = zipf_probabilities(domain, exponent)
    schedule = np.empty((rounds, users), dtype=np.int64)
    schedule[0] = rng.choice(domain, size=users, p=p)
    movers = int(round(churn * users))
    for r in range(1, rounds):
        row = schedule[r - 1].copy()
        who = rng.choice(users, size=movers, replace=False)
        new = rng.choice(domain, size=movers, p=p)
        same = new == row[who]
        new[same] = (row[who][same] + 1 + rng.integers(
            domain - 1, size=int(same.sum())
        )) % domain
        row[who] = new
        schedule[r] = row
    return schedule


def distinct_per_user(schedule: np.ndarray) -> np.ndarray:
    """How many distinct values each user held: its fresh-report count
    under memoization, hence its epsilon spend in units of one report."""
    ordered = np.sort(schedule, axis=0)
    return 1 + (np.diff(ordered, axis=0) != 0).sum(axis=0)

"""Per-user privacy budget accounting (sequential composition).

LDP deployments repeatedly query the same population: today a mean,
tomorrow a frequency table, next week gradients.  Under sequential
composition the per-user losses add up; the accountant is the ledger
that enforces a lifetime cap — the reason the paper's SGD has each user
participate in exactly one iteration (Section V's m = 1 argument).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Tuple

from repro.core.validation import check_epsilon


class BudgetExceededError(RuntimeError):
    """Raised when a charge would push a user past the lifetime cap."""


@dataclass(frozen=True)
class Charge:
    """One user's total spend under one label."""

    user: str
    total: float
    label: str


@dataclass
class PrivacyAccountant:
    """Tracks cumulative eps spent per user under sequential composition.

    State is two maps: each user's total (``_spent``, the only thing
    enforcement reads) and, label-major, each label's per-user totals
    (``_by_label``, for attribution).  Both are O(users x labels); no
    per-charge history is kept.

    Parameters
    ----------
    lifetime_epsilon:
        Hard cap on any single user's total budget.
    """

    lifetime_epsilon: float
    _spent: Dict[str, float] = field(default_factory=dict)
    _by_label: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def __post_init__(self):
        self.lifetime_epsilon = check_epsilon(self.lifetime_epsilon)

    # ------------------------------------------------------------------
    def spent(self, user: str) -> float:
        """Total eps already consumed by ``user``."""
        return self._spent.get(user, 0.0)

    def spent_many(self, users: Iterable[str]) -> List[float]:
        """Bulk :meth:`spent` — one bound ``dict.get`` per user, no
        per-user method dispatch (metrics hot path reads whole batches)."""
        get = self._spent.get
        return [get(user, 0.0) for user in users]

    def remaining(self, user: str) -> float:
        """Budget left before ``user`` hits the lifetime cap."""
        return self.lifetime_epsilon - self.spent(user)

    def can_charge(self, user: str, epsilon: float) -> bool:
        """Whether a charge of ``epsilon`` fits within the cap."""
        return check_epsilon(epsilon) <= self.remaining(user) + 1e-12

    def charge(self, user: str, epsilon: float, label: str = "") -> float:
        """Record a charge; raises BudgetExceededError if it overdraws."""
        epsilon = check_epsilon(epsilon)
        spent = self._spent.get(user, 0.0)
        if not epsilon <= (self.lifetime_epsilon - spent) + 1e-12:
            raise BudgetExceededError(
                f"user {user!r}: charge {epsilon:g} exceeds remaining "
                f"budget {self.lifetime_epsilon - spent:g} "
                f"(lifetime {self.lifetime_epsilon:g})"
            )
        spent += epsilon
        self._spent[user] = spent
        totals = self._by_label.get(label)
        if totals is None:
            totals = self._by_label[label] = {}
        totals[user] = totals.get(user, 0.0) + epsilon
        return self.lifetime_epsilon - spent

    def charge_group(
        self, users, epsilon: float, label: str = "", atomic: bool = False
    ) -> Tuple[str, ...]:
        """Charge every user that still has room; returns those charged.

        This is the SGD recruitment pattern: only users with budget left
        may join an iteration's group.

        With ``atomic=True`` the group is all-or-nothing: a dry run
        first walks the group at multiplicity (the same name twice must
        afford 2x) with the same overdraw test :meth:`charge` applies,
        and if any charge would fail it raises
        :class:`BudgetExceededError` before anything is charged, so a
        refused group leaves the state bitwise as it was.
        """
        epsilon = check_epsilon(epsilon)
        users = list(users)
        if atomic:
            trial: Dict[str, float] = {}
            for user in users:
                spent = trial.get(user, self.spent(user))
                if not epsilon <= (self.lifetime_epsilon - spent) + 1e-12:
                    raise BudgetExceededError(
                        f"user {user!r}: group charge {epsilon:g} "
                        f"exceeds remaining budget "
                        f"{self.lifetime_epsilon - spent:g} (lifetime "
                        f"{self.lifetime_epsilon:g})"
                    )
                trial[user] = spent + epsilon
        charged = []
        for user in users:
            if self.can_charge(user, epsilon):
                self.charge(user, epsilon, label)
                charged.append(user)
        return tuple(charged)

    # ------------------------------------------------------------------
    @property
    def ledger(self) -> Tuple[Charge, ...]:
        """Immutable view of the spend totals: one :class:`Charge` per
        (label, user) pair, labels in the order each was first charged
        and users within a label likewise."""
        return tuple(
            Charge(user=user, total=total, label=label)
            for label, totals in self._by_label.items()
            for user, total in totals.items()
        )

    def entry_count(self) -> int:
        """Number of (label, user) totals held — ``len(ledger)``
        without building it."""
        return sum(len(totals) for totals in self._by_label.values())

    def total_spent(self) -> float:
        """Sum of eps across all users (a deployment-level cost figure)."""
        return float(sum(self._spent.values()))

    def spent_by_label(self, user: str) -> Dict[str, float]:
        """Breakdown of ``user``'s spend by charge label.

        Labels are whatever callers recorded — query names for ad-hoc
        analysis, campaign fingerprints for the service's
        cross-campaign ledger.  Keys follow the order in which each
        label was first charged (to anyone); each value is the sum of
        ``user``'s charges under that label, in charge order.
        """
        return {
            label: totals[user]
            for label, totals in self._by_label.items()
            if user in totals
        }

    def users(self) -> Tuple[str, ...]:
        """Every user with at least one recorded charge."""
        return tuple(self._spent)

    def user_count(self) -> int:
        """``len(users())`` without copying them."""
        return len(self._spent)

    def exhausted_users(self) -> Tuple[str, ...]:
        """Users with (numerically) no budget left."""
        return tuple(
            sorted(u for u in self._spent if self.remaining(u) < 1e-12)
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly snapshot of the full accounting state.

        Carries the per-user spent map and the per-label totals, so its
        size is O(users x labels) however many charges were made;
        :meth:`from_dict` round-trips exactly (floats survive JSON
        bitwise — ``json`` serializes them via ``repr`` round-trip).
        """
        return {
            "lifetime_epsilon": self.lifetime_epsilon,
            "spent": dict(self._spent),
            "by_label": {
                label: dict(totals)
                for label, totals in self._by_label.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "PrivacyAccountant":
        """Rebuild an accountant from :meth:`to_dict` output.

        Also reads the older encoding, a ``"ledger"`` list with one
        ``{"user", "epsilon", "label"}`` entry per charge: the entries
        are summed into the per-label totals in list order, which is
        the order they were charged.
        """
        accountant = cls(lifetime_epsilon=float(payload["lifetime_epsilon"]))
        accountant._spent = {
            str(user): float(eps)
            for user, eps in payload.get("spent", {}).items()
        }
        by_label = accountant._by_label = {
            str(label): {
                str(user): float(total) for user, total in totals.items()
            }
            for label, totals in payload.get("by_label", {}).items()
        }
        for entry in payload.get("ledger", ()):
            totals = by_label.setdefault(str(entry.get("label", "")), {})
            user = str(entry["user"])
            totals[user] = totals.get(user, 0.0) + float(entry["epsilon"])
        return accountant

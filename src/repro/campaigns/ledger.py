"""Cross-campaign privacy ledger: one budget per user, many campaigns.

Sequential composition does not care *which* collection consumed a
user's budget — epsilon spent in campaign A and epsilon spent in
campaign B add up on the same person.  The
:class:`CrossCampaignLedger` therefore wraps a single
:class:`~repro.analysis.accountant.PrivacyAccountant` shared by every
campaign on a server: each accepted report charges its campaign's
``spec.epsilon`` against the user's one global ``lifetime_epsilon``,
with the campaign fingerprint as the charge label, so the accountant
keeps a per-campaign total for every user and the spend can be broken
down per campaign after the fact.

Batch semantics mirror the single-campaign server: a batch is charged
atomically — either every user in it (at multiplicity) has room and
all are charged, or :meth:`rejected_users` is non-empty and the caller
rejects the whole batch (HTTP 429) without touching the ledger.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.accountant import PrivacyAccountant


def batch_multiplicity(users: Iterable[str]) -> Dict[str, int]:
    """How many reports each user contributes to one batch.

    Multiplicity matters for atomic budget checks: a user appearing
    twice must afford 2x the per-report epsilon.
    """
    multiplicity: Dict[str, int] = {}
    for user in users:
        name = str(user)
        multiplicity[name] = multiplicity.get(name, 0) + 1
    return multiplicity


class CrossCampaignLedger:
    """Per-user global budget enforcement across all campaigns."""

    def __init__(
        self,
        lifetime_epsilon: float,
        accountant: Optional[PrivacyAccountant] = None,
    ):
        self.accountant = (
            PrivacyAccountant(lifetime_epsilon=lifetime_epsilon)
            if accountant is None
            else accountant
        )

    # ------------------------------------------------------------------
    @property
    def lifetime_epsilon(self) -> float:
        return self.accountant.lifetime_epsilon

    def spent(self, user: str) -> float:
        return self.accountant.spent(user)

    def spent_many(self, users: Iterable[str]) -> List[float]:
        return self.accountant.spent_many(users)

    def remaining(self, user: str) -> float:
        return self.accountant.remaining(user)

    def users(self) -> Tuple[str, ...]:
        return self.accountant.users()

    def spent_by_campaign(self, user: str) -> Dict[str, float]:
        """Per-campaign breakdown of ``user``'s total spend (the
        accountant's labels are campaign fingerprints)."""
        return self.accountant.spent_by_label(user)

    # ------------------------------------------------------------------
    def rejected_users(
        self, multiplicity: Dict[str, int], epsilon: float
    ) -> List[str]:
        """Users whose *cross-campaign* remaining budget cannot cover
        their share of this batch.  Non-empty means the whole batch
        must be rejected."""
        return [
            user
            for user, count in multiplicity.items()
            if not self.accountant.can_charge(user, count * epsilon)
        ]

    def charge_batch(
        self,
        multiplicity: Dict[str, int],
        epsilon: float,
        campaign: str,
    ) -> None:
        """Charge one pre-checked batch, labelled by campaign.

        Callers must have verified :meth:`rejected_users` is empty —
        the underlying accountant still raises
        :class:`~repro.analysis.accountant.BudgetExceededError` on an
        overdraw, so a missed pre-check cannot corrupt the ledger.
        """
        for user, count in multiplicity.items():
            self.accountant.charge(user, count * epsilon, label=campaign)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-friendly snapshot (bitwise round-trip via the
        accountant's float-exact serialization)."""
        return {"type": "cross-campaign-ledger", **self.accountant.to_dict()}

    @classmethod
    def from_dict(cls, payload: Dict) -> "CrossCampaignLedger":
        return cls(
            lifetime_epsilon=float(payload["lifetime_epsilon"]),
            accountant=PrivacyAccountant.from_dict(payload),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CrossCampaignLedger(lifetime_epsilon="
            f"{self.lifetime_epsilon:g}, users={self.accountant.user_count()})"
        )

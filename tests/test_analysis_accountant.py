"""Tests for the per-user privacy budget accountant."""

import json

import pytest

from repro.analysis.accountant import (
    BudgetExceededError,
    PrivacyAccountant,
)


class TestCharging:
    def test_initial_state(self):
        acc = PrivacyAccountant(lifetime_epsilon=4.0)
        assert acc.spent("u1") == 0.0
        assert acc.remaining("u1") == 4.0

    def test_charge_accumulates(self):
        acc = PrivacyAccountant(4.0)
        acc.charge("u1", 1.0, "mean query")
        acc.charge("u1", 2.0, "freq query")
        assert acc.spent("u1") == pytest.approx(3.0)
        assert acc.remaining("u1") == pytest.approx(1.0)

    def test_overdraft_rejected_and_state_unchanged(self):
        acc = PrivacyAccountant(2.0)
        acc.charge("u1", 1.5)
        with pytest.raises(BudgetExceededError):
            acc.charge("u1", 1.0)
        assert acc.spent("u1") == pytest.approx(1.5)

    def test_exact_exhaustion_allowed(self):
        acc = PrivacyAccountant(2.0)
        acc.charge("u1", 2.0)
        assert acc.remaining("u1") == pytest.approx(0.0)
        assert "u1" in acc.exhausted_users()

    def test_users_independent(self):
        acc = PrivacyAccountant(1.0)
        acc.charge("u1", 1.0)
        assert acc.can_charge("u2", 1.0)
        assert not acc.can_charge("u1", 0.5)

    def test_invalid_epsilon_rejected(self):
        acc = PrivacyAccountant(1.0)
        with pytest.raises(ValueError):
            acc.charge("u1", 0.0)
        with pytest.raises(ValueError):
            PrivacyAccountant(-1.0)


class TestGroupCharging:
    def test_only_funded_users_charged(self):
        acc = PrivacyAccountant(1.0)
        acc.charge("u1", 1.0)  # exhausted
        charged = acc.charge_group(["u1", "u2", "u3"], 0.5, "sgd iter 1")
        assert charged == ("u2", "u3")

    def test_sgd_single_participation_pattern(self):
        """The Section V pattern: with lifetime = per-iteration eps,
        every user participates in exactly one iteration."""
        acc = PrivacyAccountant(1.0)
        users = [f"u{i}" for i in range(10)]
        first = acc.charge_group(users, 1.0, "iter 1")
        second = acc.charge_group(users, 1.0, "iter 2")
        assert len(first) == 10
        assert second == ()

    def test_atomic_group_all_funded(self):
        acc = PrivacyAccountant(2.0)
        charged = acc.charge_group(
            ["u1", "u2"], 1.0, "batch", atomic=True
        )
        assert charged == ("u1", "u2")
        assert acc.spent("u1") == pytest.approx(1.0)

    def test_atomic_group_partial_failure_rolls_back(self):
        """A user failing mid-group undoes every charge already made:
        the spent map AND the ledger end exactly as they began."""
        acc = PrivacyAccountant(2.0)
        acc.charge("u1", 1.0, "earlier")
        spent_before = {u: acc.spent(u) for u in ("u1", "u2", "u3")}
        ledger_before = acc.ledger
        # u2 and u3 are funded; u1 fails AFTER both were charged
        # (iteration order is list order), forcing a real rollback.
        with pytest.raises(BudgetExceededError):
            acc.charge_group(
                ["u2", "u3", "u1"], 1.5, "batch", atomic=True
            )
        assert acc.ledger == ledger_before
        for user, spent in spent_before.items():
            assert acc.spent(user) == pytest.approx(spent)
        # The accountant still works normally afterwards.
        assert acc.charge_group(["u2"], 1.5, atomic=True) == ("u2",)

    def test_atomic_group_duplicate_user_rolls_back(self):
        """Multiplicity inside one group: each listed occurrence is a
        charge, so a duplicate can overdraw even when a per-user
        precheck passes — exactly the case rollback must cover."""
        acc = PrivacyAccountant(1.0)
        with pytest.raises(BudgetExceededError):
            acc.charge_group(["dup", "dup"], 0.7, atomic=True)
        assert acc.spent("dup") == 0.0
        assert acc.ledger == ()
        assert acc.users() == ()

    def test_atomic_group_rollback_is_bitwise(self):
        """A refused atomic group leaves every total exactly as it was:
        0.1 + 0.7 - 0.7 != 0.1 in floating point, so undoing by
        subtraction would not."""
        acc = PrivacyAccountant(1.0)
        acc.charge("u", 0.1, "earlier")
        spent_before = {"u": acc.spent("u"), "v": acc.spent("v")}
        ledger_before = acc.ledger
        state_before = acc.to_dict()
        # v and the first u fit; the second u (0.8 + 0.7) does not.
        with pytest.raises(BudgetExceededError):
            acc.charge_group(["v", "u", "u"], 0.7, "batch", atomic=True)
        assert {"u": acc.spent("u"), "v": acc.spent("v")} == spent_before
        assert acc.spent("u") == 0.1
        assert acc.ledger == ledger_before
        assert acc.to_dict() == state_before
        assert acc.users() == ("u",)

    def test_non_atomic_group_keeps_skip_semantics(self):
        acc = PrivacyAccountant(1.0)
        acc.charge("u1", 1.0)
        charged = acc.charge_group(["u1", "u2"], 0.5, atomic=False)
        assert charged == ("u2",)
        assert acc.spent("u2") == pytest.approx(0.5)


class TestLedger:
    def test_ledger_records_everything(self):
        acc = PrivacyAccountant(4.0)
        acc.charge("u1", 1.0, "a")
        acc.charge("u2", 2.0, "b")
        assert len(acc.ledger) == 2
        assert acc.ledger[0].label == "a"
        assert acc.total_spent() == pytest.approx(3.0)

    def test_repeat_charges_fold_into_one_total(self):
        acc = PrivacyAccountant(4.0)
        for _ in range(10):
            acc.charge("u1", 0.1, "a")
        acc.charge("u1", 0.5, "b")
        acc.charge("u2", 0.1, "a")
        # One total per (label, user), labels in first-charge order.
        assert [(c.label, c.user) for c in acc.ledger] == [
            ("a", "u1"),
            ("a", "u2"),
            ("b", "u1"),
        ]
        expected = 0.0
        for _ in range(10):
            expected += 0.1
        assert acc.ledger[0].total == expected
        assert acc.spent_by_label("u1") == {"a": expected, "b": 0.5}
        assert acc.spent("u1") == expected + 0.5
        assert acc.entry_count() == len(acc.ledger) == 3
        assert acc.user_count() == len(acc.users()) == 2

    def test_ledger_is_immutable_view(self):
        acc = PrivacyAccountant(4.0)
        acc.charge("u1", 1.0)
        ledger = acc.ledger
        assert isinstance(ledger, tuple)

    def test_spent_by_label_breakdown(self):
        acc = PrivacyAccountant(4.0)
        acc.charge("u1", 1.0, "campaign-a")
        acc.charge("u1", 0.5, "campaign-b")
        acc.charge("u1", 0.25, "campaign-a")
        acc.charge("u2", 2.0, "campaign-b")
        assert acc.spent_by_label("u1") == {
            "campaign-a": pytest.approx(1.25),
            "campaign-b": pytest.approx(0.5),
        }
        assert acc.spent_by_label("u2") == {
            "campaign-b": pytest.approx(2.0)
        }
        assert acc.spent_by_label("stranger") == {}

    def test_spent_by_label_preserves_first_charge_order(self):
        acc = PrivacyAccountant(4.0)
        acc.charge("u1", 1.0, "z-last-alphabetically")
        acc.charge("u1", 1.0, "a-first-alphabetically")
        assert list(acc.spent_by_label("u1")) == [
            "z-last-alphabetically",
            "a-first-alphabetically",
        ]


class TestSerialization:
    def _populated(self):
        acc = PrivacyAccountant(4.0)
        acc.charge("u1", 1.0, "mean query")
        acc.charge("u1", 0.5, "freq query")
        acc.charge("u2", 4.0, "sgd")
        return acc

    def test_round_trip_preserves_state(self):
        acc = self._populated()
        rebuilt = PrivacyAccountant.from_dict(acc.to_dict())
        assert rebuilt.lifetime_epsilon == acc.lifetime_epsilon
        assert rebuilt.spent("u1") == acc.spent("u1")
        assert rebuilt.spent("u2") == acc.spent("u2")
        assert rebuilt.ledger == acc.ledger
        assert rebuilt.users() == acc.users()

    def test_round_trip_survives_json(self):
        acc = self._populated()
        rebuilt = PrivacyAccountant.from_dict(
            json.loads(json.dumps(acc.to_dict()))
        )
        assert rebuilt.to_dict() == acc.to_dict()

    def test_rebuilt_accountant_keeps_enforcing(self):
        acc = self._populated()
        rebuilt = PrivacyAccountant.from_dict(acc.to_dict())
        # u2 is exhausted in the original; stays exhausted after reload.
        with pytest.raises(BudgetExceededError):
            rebuilt.charge("u2", 0.5)
        rebuilt.charge("u1", 2.5)  # exactly the remaining budget
        assert rebuilt.remaining("u1") == pytest.approx(0.0)

    def test_empty_accountant_round_trips(self):
        acc = PrivacyAccountant(2.0)
        rebuilt = PrivacyAccountant.from_dict(acc.to_dict())
        assert rebuilt.to_dict() == acc.to_dict()
        assert rebuilt.users() == ()

    def test_payload_size_independent_of_charge_count(self):
        acc = PrivacyAccountant(100.0)
        acc.charge("u1", 0.5, "a")
        few = len(json.dumps(acc.to_dict()))
        for _ in range(99):
            acc.charge("u1", 0.5, "a")
        assert len(json.dumps(acc.to_dict())) <= few + 2  # "50.0" vs "0.5"
        assert len(acc.to_dict()["by_label"]["a"]) == 1

    def test_legacy_charge_list_folds_in_list_order(self):
        """Snapshots written with one ledger entry per charge still
        load: entries are summed per (label, user) in list order."""
        charges = [
            ("u1", 0.1, "b"),
            ("u2", 0.3, "a"),
            ("u1", 0.2, "a"),
            ("u1", 0.1, "b"),
            ("u1", 0.7, "b"),
        ]
        spent = {}
        by_label = {}
        for user, eps, label in charges:
            spent[user] = spent.get(user, 0.0) + eps
            totals = by_label.setdefault(label, {})
            totals[user] = totals.get(user, 0.0) + eps
        legacy = {
            "lifetime_epsilon": 2.0,
            "spent": spent,
            "ledger": [
                {"user": u, "epsilon": e, "label": lab}
                for u, e, lab in charges
            ],
        }
        rebuilt = PrivacyAccountant.from_dict(json.loads(json.dumps(legacy)))
        for user in ("u1", "u2"):
            assert rebuilt.spent(user) == spent[user]
        assert rebuilt.spent_by_label("u1") == {
            "b": by_label["b"]["u1"],
            "a": by_label["a"]["u1"],
        }
        assert list(rebuilt.spent_by_label("u1")) == ["b", "a"]
        assert rebuilt.to_dict() == {
            "lifetime_epsilon": 2.0,
            "spent": spent,
            "by_label": by_label,
        }

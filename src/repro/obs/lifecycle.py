"""Graceful-drain lifecycle: signal plumbing and drain bookkeeping.

Production shutdown is a *sequence*, not an event: stop admitting new
work, finish what is in flight, persist state, then exit 0 so the
orchestrator knows the stop was clean.  This module holds the generic
half of that sequence — the service layer owns the specific steps
(answer ``POST /report`` with 503, write the final checkpoint), see
:meth:`repro.service.server.IngestionServer.drain`.

The contract that makes drain *graceful* rather than merely polite:
the snapshot a drained server leaves behind is **bitwise-equal** to
the one an uninterrupted server would write after the same accepted
batches.  Drain adds no state of its own — it only stops admission and
runs the same checkpoint path early.

:class:`DrainState` is the three-step ladder (serving → draining →
drained; strictly forward), :class:`SignalDrain` turns POSIX signals
into an awaitable event on the loop, and :class:`DrainResult` is the
receipt the drain path returns (what was persisted, how long it
took).
"""

from __future__ import annotations

import asyncio
import enum
import signal as _signal
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

__all__ = ["DrainResult", "DrainState", "SignalDrain"]


class DrainState(enum.Enum):
    """Where a service is on the shutdown ladder (strictly forward)."""

    SERVING = "serving"
    DRAINING = "draining"
    DRAINED = "drained"


_ORDER = [DrainState.SERVING, DrainState.DRAINING, DrainState.DRAINED]


def advance(current: DrainState, target: DrainState) -> DrainState:
    """Move down the ladder; backwards moves raise (idempotent on
    same-state)."""
    if _ORDER.index(target) < _ORDER.index(current):
        raise ValueError(
            f"cannot move from {current.value} back to {target.value}"
        )
    return target


@dataclass(frozen=True)
class DrainResult:
    """Receipt for one completed drain.

    ``checkpoint_seq`` is ``None`` when the server runs without a
    snapshot store (nothing durable to write).
    """

    checkpoint_seq: Optional[int]
    batches_accepted: int
    seconds: float


class SignalDrain:
    """Await POSIX shutdown signals as an asyncio event.

    Usage (from an entrypoint, inside the running loop):

        drain = SignalDrain().install()
        ...
        signum = await drain.wait()   # blocks until SIGTERM/SIGINT


    ``install()`` registers loop-level handlers (not the default
    Python signal handlers), so delivery is prompt even mid-select and
    never interrupts a handler in an inconsistent state.  The second
    signal of the same kind is deliberately left at its default
    disposition-by-flag: :attr:`count` lets callers implement
    "second SIGTERM = abort now" policies.
    """

    def __init__(
        self, signals: Iterable[int] = (_signal.SIGTERM,)
    ) -> None:
        self.signals: Tuple[int, ...] = tuple(signals)
        self._event = asyncio.Event()
        self._received: Optional[int] = None
        self.count = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    def _trigger(self, signum: int) -> None:
        self.count += 1
        if self._received is None:
            self._received = signum
        self._event.set()

    def install(self) -> "SignalDrain":
        """Register handlers on the *running* loop (call from inside)."""
        loop = asyncio.get_running_loop()
        for signum in self.signals:
            loop.add_signal_handler(signum, self._trigger, signum)
        self._loop = loop
        return self

    def uninstall(self) -> None:
        """Restore default handling (idempotent; safe if never installed)."""
        if self._loop is None:
            return
        for signum in self.signals:
            try:
                self._loop.remove_signal_handler(signum)
            except (ValueError, RuntimeError):  # pragma: no cover
                pass
        self._loop = None

    @property
    def triggered(self) -> bool:
        return self._event.is_set()

    @property
    def signal(self) -> Optional[int]:
        """The first signal received, or ``None``."""
        return self._received

    async def wait(self) -> int:
        """Block until a registered signal arrives; returns its number."""
        await self._event.wait()
        assert self._received is not None
        return self._received

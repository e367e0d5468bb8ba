"""In-memory spans around public entry points of the ``repro`` package.

Only the traced run installs these.  The server launcher calls
:func:`install_server_spans`, the traffic generator calls
:func:`install_client_spans`; nothing under ``src/`` is edited.  A span
records its name, start, end, the span that was open when it started
(its parent), and the request id that ``repro.obs.logging`` had bound
at that moment, so spans of one HTTP request can be grouped.  The
spans stay in memory and are written out once, when the process is
done (:meth:`Tracer.dump`).
"""

from __future__ import annotations

import functools
import json
import time
from typing import Any, Callable, List, Optional, Union

NameLike = Union[str, Callable[[tuple], str]]
ValueHook = Callable[[tuple, Any], float]

# Span record layout: [name, start, end, parent index, request id, value]
NAME, START, END, PARENT, REQUEST, VALUE = range(6)


class Tracer:
    """Collects nested spans from one thread of one process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        # Off: wrapped entry points call straight through, unrecorded.
        self.enabled = True

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: NameLike,
        value: Optional[ValueHook] = None,
    ) -> None:
        """Replace ``owner.attr`` by a version that records a span.

        ``name`` may be a function of the call's positional arguments
        (one entry point serving two layers).  ``value`` computes a
        number stored with the span after the timed call returns, so
        its own cost is not inside the span.
        """
        from repro.obs.logging import context_fields

        original = getattr(owner, attr)
        tracer, stack, clock = self, self._stack, time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            spans = tracer.spans
            label = name(args) if callable(name) else name
            index = len(spans)
            spans.append([
                label, clock(), 0.0, stack[-1] if stack else -1,
                context_fields().get("request_id"), None,
            ])
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][END] = clock()
            if value is not None:
                spans[index][VALUE] = value(args, result)
            return result

        setattr(owner, attr, traced)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans}, handle)


def install_server_spans(tracer: Tracer) -> None:
    """Spans on the server's side of the report and read paths."""
    from repro.campaigns.ledger import CrossCampaignLedger
    from repro.campaigns.registry import Campaign
    from repro.obs.metrics import MetricsRegistry
    from repro.service import wire
    from repro.service.server import IngestionServer
    from repro.service.store import SnapshotStore
    from repro.stream.heavy import HeavyHitterTracker
    from repro.stream.windows import WindowedAccumulator

    # The server calls wire.unpack on v1 envelopes and on the
    # envelope-shaped dict a v2 frame decodes to; the version decides
    # which decode layer the call belongs to.
    def unpack_name(args: tuple) -> str:
        if args[0].get("wire_version") == wire.WIRE_VERSION_COLUMNAR:
            return "wire.decode_v2"
        return "wire.decode_v1"

    tracer.wrap(wire, "unpack_columns", "wire.decode_v2")
    tracer.wrap(wire, "unpack", unpack_name)
    tracer.wrap(wire, "decode_reports", "wire.decode_v1")
    tracer.wrap(Campaign, "validate_batch", "campaign.validate")
    tracer.wrap(Campaign, "absorb_shard", "campaign.absorb")
    tracer.wrap(CrossCampaignLedger, "rejected_users", "ledger.admit")
    tracer.wrap(
        CrossCampaignLedger, "charge_batch", "ledger.charge",
        value=lambda args, _: len(args[1]),
    )
    tracer.wrap(IngestionServer, "checkpoint_now", "checkpoint")
    tracer.wrap(Campaign, "snapshot_payload", "campaign.snapshot")
    tracer.wrap(CrossCampaignLedger, "to_dict", "ledger.to_dict")
    tracer.wrap(
        SnapshotStore, "save", "store.save",
        value=lambda _, path: path.stat().st_size,
    )
    tracer.wrap(SnapshotStore, "load_latest", "recover.load")
    tracer.wrap(SnapshotStore, "load", "recover.load")
    tracer.wrap(Campaign, "merged_window", "window.merge")
    tracer.wrap(WindowedAccumulator, "window_estimate", "window.estimate")
    tracer.wrap(HeavyHitterTracker, "update", "heavy.update")
    tracer.wrap(MetricsRegistry, "render", "obs.render")
    # The server observes through labelled children
    # (``Histogram.labels(...).observe_many``); wrap the class those
    # children are instances of.
    child = MetricsRegistry().histogram(
        "probe_seconds", "probe", labels=("l",)
    ).labels(l="x")
    tracer.wrap(type(child), "observe_many", "obs.observe_many")
    tracer.wrap(
        IngestionServer, "drain", "drain",
        value=lambda args, _: len(args[0].ledger.accountant.ledger),
    )


def install_client_spans(tracer: Tracer) -> None:
    """Spans on the SDK side: submit, report framing, memoization."""
    from repro.service import wire
    from repro.service.client import ServiceClient
    from repro.stream.memo import MemoizedEncoder

    tracer.wrap(ServiceClient, "submit_reports", "sdk.submit")
    tracer.wrap(wire, "reports_to_columns", "sdk.encode_v2")
    tracer.wrap(wire, "pack_columns", "sdk.encode_v2")
    tracer.wrap(wire, "encode_reports", "sdk.encode_v1")
    tracer.wrap(wire, "pack", "sdk.encode_v1")
    tracer.wrap(MemoizedEncoder, "encode_users", "memo.encode")


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def attribute_requests(spans: List[list]) -> None:
    """Give unbound v2 decode spans the id of the request they served.

    The server decodes a columnar frame before it binds the request
    id, so that span carries none.  The benchmark's single closed-loop
    client has one request in flight at a time, so the next span that
    carries an id belongs to the same request.
    """
    pending: List[list] = []
    for span in spans:
        if span[REQUEST] is None and span[NAME] == "wire.decode_v2":
            pending.append(span)
        elif span[REQUEST] is not None and pending:
            for waiting in pending:
                waiting[REQUEST] = span[REQUEST]
            pending = []


def load(path: str) -> List[list]:
    with open(path, encoding="utf-8") as handle:
        spans = json.load(handle)["spans"]
    attribute_requests(spans)
    return spans


"""Per-layer numbers from one traced run.

Times are self times (a span's duration minus its child spans), in
milliseconds.  "Per batch" numbers cover the timed window's report
batches only; read-path numbers are per read request that reached the
layer; checkpoint parts are per checkpoint.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Set, Tuple

from spans import END, NAME, PARENT, REQUEST, START, VALUE, self_times

# (metric, unit) in the order BENCHMARK.json lists them.
METRICS: List[Tuple[str, str]] = [
    ("sdk.submit_ms", "ms"),
    ("sdk.encode_v1_ms", "ms"),
    ("sdk.encode_v2_ms", "ms"),
    ("sdk.retries", "count"),
    ("memo.encode_ms", "ms"),
    ("memo.hit_ratio", "ratio"),
    ("wire.decode_v1_ms", "ms"),
    ("wire.decode_v2_ms", "ms"),
    ("campaign.validate_ms", "ms"),
    ("campaign.absorb_ms", "ms"),
    ("ledger.admit_ms", "ms"),
    ("ledger.charge_ms", "ms"),
    ("ledger.charged_users", "count"),
    ("ledger.entries", "count"),
    ("checkpoint.count", "count"),
    ("checkpoint.ms_p50", "ms"),
    ("checkpoint.ms_first", "ms"),
    ("checkpoint.ms_last", "ms"),
    ("checkpoint.last_over_first", "ratio"),
    ("campaign.snapshot_ms", "ms"),
    ("ledger.to_dict_ms", "ms"),
    ("store.save_ms", "ms"),
    ("store.bytes_last", "bytes"),
    ("recover.load_ms", "ms"),
    ("window.merge_ms", "ms"),
    ("window.estimate_ms", "ms"),
    ("heavy.update_ms", "ms"),
    ("obs.render_ms", "ms"),
    ("obs.observe_many_ms", "ms"),
    ("http.remainder_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
]

# Server spans on the report path, timed per window batch.
BATCH_LAYERS = {
    "wire.decode_v1": "wire.decode_v1_ms",
    "wire.decode_v2": "wire.decode_v2_ms",
    "campaign.validate": "campaign.validate_ms",
    "campaign.absorb": "campaign.absorb_ms",
    "ledger.admit": "ledger.admit_ms",
    "ledger.charge": "ledger.charge_ms",
    "obs.observe_many": "obs.observe_many_ms",
}
# Server spans on the read path, timed per read that reached them.
READ_LAYERS = {
    "window.merge": "window.merge_ms",
    "window.estimate": "window.estimate_ms",
    "heavy.update": "heavy.update_ms",
    "obs.render": "obs.render_ms",
}
# Parts of a checkpoint, timed per checkpoint.
CHECKPOINT_PARTS = {
    "campaign.snapshot": "campaign.snapshot_ms",
    "ledger.to_dict": "ledger.to_dict_ms",
    "store.save": "store.save_ms",
}


def _duration(span: list) -> float:
    return span[END] - span[START]


def _ratio(top: float, base: float) -> float:
    return top / base if base else 0.0


class _Layers:
    def __init__(self) -> None:
        self.values: Dict[str, float] = {}
        self.detail: Dict[str, dict] = {}

    def add(self, metric: str, value: float, **base) -> None:
        self.values[metric] = float(value)
        self.detail[metric] = {"value": float(value), **base}

    def per_unit(
        self,
        metric: str,
        spans: List[list],
        own: List[float],
        name: str,
        requests: Optional[Set[str]] = None,
        units: Optional[int] = None,
    ) -> None:
        """Total self time of ``name`` spans over the units they served:
        distinct requests unless ``units`` is given."""
        chosen = [
            i for i, span in enumerate(spans)
            if span[NAME] == name
            and (requests is None or span[REQUEST] in requests)
        ]
        if units is None:
            units = len({
                spans[i][REQUEST] if spans[i][REQUEST] is not None else -i - 1
                for i in chosen
            })
        total_ms = 1e3 * sum(own[i] for i in chosen)
        self.add(
            metric, total_ms / units if units else 0.0,
            calls=len(chosen), units=units, self_ms_total=total_ms,
        )


def per_layer(
    client: List[list],
    server: List[list],
    restart: List[list],
    window_batches: int,
    memo: Tuple[int, int],
    retries: int,
    rate: float,
    base_rate: float,
) -> _Layers:
    """Every metric of :data:`METRICS` from the generator's spans, the
    main server's spans and the restarted server's spans."""
    layers = _Layers()
    c_own, s_own, r_own = (
        self_times(spans) for spans in (client, server, restart)
    )

    # Report requests in arrival order; the window's come first.
    order = list(dict.fromkeys(
        span[REQUEST] for span in server
        if span[NAME].startswith("wire.decode_")
    ))
    window_requests = order[:window_batches]
    in_window = set(window_requests)
    submits = [
        i for i, span in enumerate(client) if span[NAME] == "sdk.submit"
    ][:window_batches]
    children: Dict[int, List[int]] = {i: [] for i in submits}
    for j, span in enumerate(client):
        if span[PARENT] in children:
            children[span[PARENT]].append(j)

    layers.add(
        "sdk.submit_ms",
        1e3 * statistics.fmean(_duration(client[i]) for i in submits)
        if submits else 0.0,
        batches=len(submits), inclusive=True,
    )
    for name in ("sdk.encode_v1", "sdk.encode_v2"):
        with_layer = [
            i for i in submits
            if any(client[j][NAME] == name for j in children[i])
        ]
        layers.per_unit(
            f"{name}_ms", client, c_own, name, units=len(with_layer)
        )
    layers.add("sdk.retries", retries)
    layers.per_unit("memo.encode_ms", client, c_own, "memo.encode")
    hits, misses = memo
    layers.add(
        "memo.hit_ratio", _ratio(hits, hits + misses),
        hits=hits, base=hits + misses,
    )

    for name, metric in BATCH_LAYERS.items():
        layers.per_unit(metric, server, s_own, name, requests=in_window)
    charged = [
        span[VALUE] for span in server
        if span[NAME] == "ledger.charge" and span[REQUEST] in in_window
    ]
    layers.add(
        "ledger.charged_users",
        statistics.fmean(charged) if charged else 0.0,
        batches=len(charged), total=sum(charged),
    )
    drains = [span for span in server if span[NAME] == "drain"]
    layers.add("ledger.entries", drains[-1][VALUE] if drains else 0)

    checkpoints = [i for i, s in enumerate(server) if s[NAME] == "checkpoint"]
    ms = [1e3 * _duration(server[i]) for i in checkpoints]
    layers.add("checkpoint.count", len(ms))
    layers.add("checkpoint.ms_p50", statistics.median(ms) if ms else 0.0)
    layers.add("checkpoint.ms_first", ms[0] if ms else 0.0)
    layers.add("checkpoint.ms_last", ms[-1] if ms else 0.0)
    layers.add(
        "checkpoint.last_over_first",
        _ratio(ms[-1], ms[0]) if ms else 0.0,
        last_ms=ms[-1] if ms else 0.0, first_ms=ms[0] if ms else 0.0,
    )
    for name, metric in CHECKPOINT_PARTS.items():
        layers.per_unit(metric, server, s_own, name, units=len(checkpoints))
    layers.add(
        "store.bytes_last",
        sum(
            span[VALUE] for span in server
            if span[NAME] == "store.save" and checkpoints
            and span[PARENT] == checkpoints[-1]
        ),
    )
    layers.per_unit("recover.load_ms", restart, r_own, "recover.load", units=1)

    for name, metric in READ_LAYERS.items():
        layers.per_unit(metric, server, s_own, name)

    # What no span covers inside a window batch's round trip: sockets,
    # HTTP parsing, JSON bodies, idempotency keys, the event loop.
    server_ms: Dict[str, float] = {}
    for span in server:
        if span[PARENT] < 0 and span[REQUEST] in in_window:
            server_ms[span[REQUEST]] = (
                server_ms.get(span[REQUEST], 0.0) + _duration(span)
            )
    remainders = [
        _duration(client[i])
        - sum(_duration(client[j]) for j in children[i])
        - server_ms.get(request, 0.0)
        for i, request in zip(submits, window_requests)
    ]
    layers.add(
        "http.remainder_ms",
        1e3 * statistics.fmean(remainders) if remainders else 0.0,
        batches=len(remainders),
    )
    layers.add(
        "trace.overhead_ratio", _ratio(rate, base_rate),
        traced_reports_per_s=rate, untraced_reports_per_s=base_rate,
    )
    return layers

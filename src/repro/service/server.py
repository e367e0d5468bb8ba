"""Stdlib-only asyncio HTTP ingestion server (multi-tenant).

The aggregator half of the paper's deployment, as an actual network
service.  One :class:`IngestionServer` owns

* a :class:`~repro.campaigns.registry.CampaignRegistry` of concurrent
  collection campaigns — each campaign is a
  :class:`~repro.protocol.facade.Protocol` with its own
  :class:`~repro.protocol.accumulators.ServerAccumulator`,
  idempotency-key set, and lifecycle state
  (``open -> sealed -> estimated``),
* a :class:`~repro.campaigns.ledger.CrossCampaignLedger` charging every
  accepted report against the submitting user's single *global* budget
  (no matter how many campaigns they report into) — over-budget users
  get the whole batch rejected with HTTP 429 and nothing is charged or
  absorbed,
* an optional :class:`~repro.service.store.SnapshotStore` for periodic
  durable checkpoints and resume-on-restart: the root store holds a
  manifest (specs, lifecycle states, counters, the ledger), one child
  namespace per campaign holds its accumulator payload.

Endpoints (all JSON):

======================  ================================================
``GET  /healthz``        liveness, uptime, snapshot seq/age, counters
``GET  /campaigns``      list all campaigns and their states
``POST /campaigns``      register a campaign from a ``{"spec": ...}``
``POST /campaigns/<fp>/seal``  close a campaign to ingestion
``GET  /spec``           spec + fingerprint (``?campaign=<fp>``)
``GET  /estimate``       current estimate (``?campaign=<fp>``); windowed
                         campaigns also take ``?window=<panes|duration>``
                         and ``?decay=<gamma>`` for sliding/decayed views
``GET  /heavy-hitters``  live top-k + churn for frequency campaigns
                         (``?campaign=<fp>&k=<n>[&window=...]``)
``POST /report``         enveloped report batch (batch, idempotent)
``POST /checkpoint``     force a snapshot now; returns its sequence
======================  ================================================

Streaming: a campaign constructed (or registered) with a
:class:`~repro.stream.windows.WindowConfig` buckets reports by the
``round`` their envelope carries into ring-buffer panes (see
:mod:`repro.stream.windows`), enabling sliding-window and
exponentially-decayed estimates without giving up the exact all-time
answer.  Envelopes may also carry a per-user ``fresh`` vector from the
client-side :class:`~repro.stream.memo.MemoizedEncoder`: users replaying
a memoized report are charged **zero** additional epsilon in the
cross-campaign ledger.  Both keys are optional on both wire versions —
round-less, window-unaware v1 clients keep working unchanged.

Campaign routing: a report envelope may carry a ``campaign``
fingerprint; without one it routes to the *default* campaign (the one
the server was constructed with), which is how pre-campaign v1 clients
keep working unchanged.  The envelope fingerprint is always checked
against the **addressed** campaign's spec — a mismatch is HTTP 409,
never a silent mis-aggregation.

Report batches arrive in either wire format: v1 JSON envelopes
(``application/json``) or v2 columnar frames
(``application/x-repro-columnar``, see :func:`repro.service.wire.
pack_columns`); both are checked by the same envelope machinery and
counted per wire version in ``/healthz``.

Ingestion is strictly ordered: request handlers run on the event loop
and absorb synchronously, so each campaign's accumulator sees batches
in arrival order and an estimate or checkpoint always reads a
quiescent state — which is what keeps kill-and-resume and drain
bitwise.

The HTTP layer is a deliberately minimal HTTP/1.1 implementation over
``asyncio.start_server`` (no third-party dependency, connection per
request), sufficient for the SDK in :mod:`repro.service.client`.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import threading
import time
import urllib.parse
from typing import Any, Dict, Iterable, Optional, Tuple, Union

from repro.campaigns.ledger import CrossCampaignLedger, batch_multiplicity
from repro.campaigns.registry import (
    Campaign,
    CampaignRegistry,
    UnknownCampaignError,
)
from repro.obs.lifecycle import DrainResult, DrainState, advance
from repro.obs.logging import bind_campaign, bound_context, get_logger
from repro.obs.metrics import (
    CONTENT_TYPE_LATEST,
    MetricsRegistry,
    null_registry,
)
from repro.protocol.facade import Protocol
from repro.protocol.reports import ColumnBlock
from repro.protocol.spec import ProtocolSpec
from repro.service import wire
from repro.service.store import SnapshotStore
from repro.stream.windows import WindowConfig

_log = get_logger("repro.service.server")

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Upper bound on accepted request bodies (64 MiB of JSON).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: ``Retry-After`` (seconds) suggested while the server is draining —
#: long enough that a well-behaved client gives up on this replica.
DRAINING_RETRY_AFTER = 5

SpecLike = Union[Protocol, ProtocolSpec, Dict[str, Any]]

#: Fixed route labels for request metrics (unknown paths collapse to
#: "other" so a URL-scanning client cannot inflate label cardinality).
_KNOWN_ENDPOINTS = {
    "/healthz",
    "/metrics",
    "/spec",
    "/estimate",
    "/heavy-hitters",
    "/campaigns",
    "/report",
    "/checkpoint",
}

#: Budget-spend buckets: epsilon is O(1), not O(milliseconds), so the
#: default latency buckets would put every user in the last bucket.
_EPSILON_BUCKETS = (
    0.125, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 16.0,
)


class ServerMetrics:
    """Every instrument the ingestion server owns, on one registry.

    Two groups, one registry:

    * **State counters/gauges** (always live, whatever ``instrument``
      says) — ``/healthz`` and the checkpoint logic *read these back*,
      so they are the single source of truth: batches accepted (which
      doubles as the snapshot sequence and is restored on resume),
      duplicates, per-wire-version batch counts, checkpoint
      latency/size, and campaign/ledger views.
    * **Request-path observation** (``instrument=False`` swaps these
      for no-ops) — per-campaign ingest throughput, batch-handling and
      request latency histograms, HTTP rejection counters, per-user
      budget-spend distribution.  This is the group whose cost the
      benchmark's instrumented-vs-uninstrumented row bounds (≤ 5 %).
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        instrument: bool = True,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.instrumented = bool(instrument) and self.registry.enabled
        observed = self.registry if self.instrumented else null_registry()

        # -- state (always live; healthz is a view over these) --------
        self.batches_accepted = self.registry.counter(
            "repro_batches_accepted_total",
            "Report batches accepted, by campaign; the sum over "
            "campaigns doubles as the snapshot sequence number and "
            "therefore resumes across restarts (per-child restore).",
            labels=("campaign",),
        )
        self.duplicate_batches = self.registry.counter(
            "repro_duplicate_batches_total",
            "Batches answered 'duplicate' via their idempotency key; "
            "resumes across restarts.",
        )
        self.wire_batches = self.registry.counter(
            "repro_ingest_batches_total",
            "Accepted batches by wire format version.",
            labels=("wire_version",),
        )
        for version in wire.SUPPORTED_WIRE_VERSIONS:
            # Pre-seed both series so /metrics shows an explicit zero
            # (and healthz its key) before the first batch arrives.
            self.wire_batches.labels(wire_version=str(version))
        self.checkpoints = self.registry.counter(
            "repro_checkpoints_total",
            "Snapshots written (periodic, explicit, and drain-time).",
        )
        self.checkpoint_seconds = self.registry.histogram(
            "repro_checkpoint_seconds",
            "Wall-clock latency of one full checkpoint (campaign "
            "payloads + manifest).",
        )
        self.checkpoint_bytes = self.registry.gauge(
            "repro_checkpoint_last_bytes",
            "Total bytes of the most recent checkpoint (manifest plus "
            "every campaign payload written in that round).",
        )
        self.campaign_reports = self.registry.gauge(
            "repro_campaign_reports",
            "Reports absorbed per campaign (live view of the "
            "accumulators).",
            labels=("campaign",),
        )
        self.campaigns = self.registry.gauge(
            "repro_campaigns",
            "Registered campaigns on this server.",
        )
        self.users_charged = self.registry.gauge(
            "repro_users_charged",
            "Distinct users with nonzero spend in the cross-campaign "
            "ledger.",
        )
        self.ledger_entries = self.registry.gauge(
            "repro_ledger_entries",
            "(user, campaign) spend totals held by the cross-campaign "
            "ledger; its checkpoint payload grows with this, not with "
            "the number of charges.",
        )
        self.uptime = self.registry.gauge(
            "repro_uptime_seconds",
            "Seconds since this server object was constructed.",
        )
        self.draining = self.registry.gauge(
            "repro_draining",
            "1 while the server is draining (new batches get 503), "
            "else 0.",
        )

        # -- request-path observation (instrument-gated) ---------------
        self.ingest_reports = observed.counter(
            "repro_ingest_reports_total",
            "Individual LDP reports accepted, by campaign and wire "
            "format version.",
            labels=("campaign", "wire_version"),
        )
        self.batch_seconds = observed.histogram(
            "repro_batch_handle_seconds",
            "POST /report handling latency per batch (decode, "
            "validate, charge, absorb), by campaign.",
            labels=("campaign",),
        )
        self.request_seconds = observed.histogram(
            "repro_request_seconds",
            "HTTP request handling latency by endpoint.",
            labels=("endpoint",),
        )
        self.http_responses = observed.counter(
            "repro_http_responses_total",
            "HTTP responses by endpoint and status code (the 400/404/"
            "409/429 series are the rejection counters).",
            labels=("endpoint", "status"),
        )
        self.rejected_batches = observed.counter(
            "repro_rejected_batches_total",
            "POST /report batches rejected, by reason.",
            labels=("reason",),
        )
        self.budget_spend = observed.histogram(
            "repro_user_budget_spent_epsilon",
            "Cumulative per-user epsilon spend, observed for every "
            "*charged* user in each accepted batch after the charge "
            "(memoized re-reports charge nobody), by campaign.",
            buckets=_EPSILON_BUCKETS,
            labels=("campaign",),
        )
        self.campaign_window_latest = self.registry.gauge(
            "repro_campaign_window_latest_round",
            "Highest streaming round absorbed per windowed campaign "
            "(-1 before any data; absent for unwindowed campaigns).",
            labels=("campaign",),
        )
        self.campaign_window_panes = self.registry.gauge(
            "repro_campaign_window_live_panes",
            "Distinct live ring panes per windowed campaign.",
            labels=("campaign",),
        )
        self.campaign_window_reports = self.registry.gauge(
            "repro_campaign_window_reports",
            "Reports currently held in live (in-window) panes per "
            "windowed campaign; the all-time total is "
            "repro_campaign_reports.",
            labels=("campaign",),
        )

    # ------------------------------------------------------------------
    def track_server(self, server: "IngestionServer") -> None:
        """Point the live-view gauges at the server's real state."""
        self.campaigns.set_function(lambda: len(server.registry))
        self.users_charged.set_function(
            lambda: server.accountant.user_count()
        )
        self.ledger_entries.set_function(
            lambda: server.accountant.entry_count()
        )
        self.uptime.set_function(
            lambda: time.monotonic() - server._started_at
        )
        self.draining.set_function(
            lambda: 0.0 if server.drain_state is DrainState.SERVING else 1.0
        )

    def track_campaign(self, campaign: Campaign) -> None:
        fp = campaign.fingerprint
        self.campaign_reports.labels(campaign=fp).set_function(
            lambda: campaign.reports
        )
        # Pre-seed the per-campaign series so exposition shows explicit
        # zeros (deterministically, children render sorted by label).
        self.batches_accepted.labels(campaign=fp)
        self.budget_spend.labels(campaign=fp)
        if campaign.windowed:
            self.campaign_window_latest.labels(campaign=fp).set_function(
                campaign.window_latest_round
            )
            self.campaign_window_panes.labels(campaign=fp).set_function(
                campaign.window_live_panes
            )
            self.campaign_window_reports.labels(campaign=fp).set_function(
                campaign.window_reports
            )


class IngestionServer:
    """Networked LDP aggregator for one or many campaigns.

    Parameters
    ----------
    protocol_or_spec:
        The *default* campaign — a :class:`Protocol`, a
        :class:`ProtocolSpec`, or a spec dict.  Campaign-unaware (v1)
        envelopes route here.  ``None`` starts a server with no
        default; every request must then address a campaign.
    lifetime_epsilon:
        Per-user **global** budget cap, shared across every campaign
        (cross-campaign sequential composition).  Defaults to the
        default campaign's epsilon (each user reports once, the
        paper's m = 1 policy), else the registered campaigns' max;
        required when the server starts with no campaigns at all.
    store:
        Snapshot store for durable checkpoints; when it already holds
        a manifest the server resumes *all* campaigns plus the ledger
        from it (fingerprint-checked per campaign).
    checkpoint_every:
        Write a snapshot after every this-many accepted batches
        (requires ``store``; ``None`` disables periodic checkpoints).
        Campaign registrations and seals checkpoint immediately.
    host / port:
        Bind address; port 0 picks a free port (see :attr:`port` after
        :meth:`start`).
    campaigns:
        Additional (non-default) campaign specs to register at boot.
    metrics_registry:
        Mount the server's instruments on an existing
        :class:`~repro.obs.metrics.MetricsRegistry` (embedding hosts
        share one ``/metrics`` page this way).  ``None`` creates a
        private registry; see :attr:`metrics`.
    instrument:
        ``False`` swaps the request-path observation instruments
        (latency/spend histograms, per-campaign counters) for no-ops.
        State counters stay live either way — healthz and the
        checkpoint sequence read them.
    window:
        Optional :class:`~repro.stream.windows.WindowConfig` (or its
        dict form) applied to every campaign registered at boot.  The
        campaigns then accumulate into ring-buffer panes keyed by the
        envelope's streaming round and answer
        ``GET /estimate?window=...`` and ``GET /heavy-hitters``;
        campaigns registered later via ``POST /campaigns`` choose their
        own window in the request body.
    """

    def __init__(
        self,
        protocol_or_spec: Optional[SpecLike] = None,
        lifetime_epsilon: Optional[float] = None,
        store: Optional[SnapshotStore] = None,
        checkpoint_every: Optional[int] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        campaigns: Optional[Iterable[SpecLike]] = None,
        metrics_registry: Optional[MetricsRegistry] = None,
        instrument: bool = True,
        window: Optional[Union[WindowConfig, Dict[str, Any]]] = None,
    ):
        if checkpoint_every is not None:
            if checkpoint_every < 1:
                raise ValueError(
                    f"checkpoint_every must be >= 1, got {checkpoint_every}"
                )
            if store is None:
                raise ValueError("checkpoint_every requires a store")
        self.metrics = ServerMetrics(metrics_registry, instrument)
        self.registry = CampaignRegistry()
        if window is not None and not isinstance(window, WindowConfig):
            window = WindowConfig.from_dict(window)
        self.window = window
        if protocol_or_spec is not None:
            campaign, _ = self.registry.register(
                protocol_or_spec, default=True, window=window
            )
            self.metrics.track_campaign(campaign)
        for spec in campaigns or ():
            campaign, _ = self.registry.register(spec, window=window)
            self.metrics.track_campaign(campaign)
        if lifetime_epsilon is None:
            if len(self.registry) == 0:
                raise ValueError(
                    "a server starting with no campaigns needs an "
                    "explicit lifetime_epsilon"
                )
            default = self.registry.default
            lifetime_epsilon = (
                default.spec.epsilon
                if default is not None
                else max(c.spec.epsilon for c in self.registry)
            )
        self.ledger = CrossCampaignLedger(lifetime_epsilon)
        self.store = store
        self.checkpoint_every = checkpoint_every
        self.host = host
        self.port = port
        self._drain_state = DrainState.SERVING
        self._request_seq = itertools.count(1)
        self._resumed_from: Optional[int] = None
        self._started_at = time.monotonic()
        self._asyncio_server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self.metrics.track_server(self)
        if self.store is not None:
            self._maybe_resume()

    # ------------------------------------------------------------------
    # Single-campaign (v1) compatibility surface
    # ------------------------------------------------------------------
    @property
    def protocol(self) -> Optional[Protocol]:
        """The default campaign's protocol (``None`` without one)."""
        default = self.registry.default
        return default.protocol if default is not None else None

    @property
    def spec(self) -> Optional[ProtocolSpec]:
        default = self.registry.default
        return default.spec if default is not None else None

    @property
    def fingerprint(self) -> Optional[str]:
        default = self.registry.default
        return default.fingerprint if default is not None else None

    @property
    def accountant(self):
        """The cross-campaign ledger's underlying accountant."""
        return self.ledger.accountant

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def _maybe_resume(self) -> None:
        loaded = self.store.load_latest()
        if loaded is None:
            return
        seq, snapshot = loaded
        if "campaigns" in snapshot:
            self._resume_manifest(seq, snapshot)
        else:
            self._resume_legacy(seq, snapshot)
        self._resumed_from = seq

    def _resume_manifest(self, seq: int, snapshot: Dict[str, Any]) -> None:
        """Restore every campaign + the ledger from a campaign manifest."""
        manifest_default = snapshot.get("default")
        configured = self.registry.default
        if (
            configured is not None
            and manifest_default is not None
            and configured.fingerprint != manifest_default
        ):
            raise wire.SpecMismatchError(
                f"snapshot {seq} in {self.store.directory} has default "
                f"campaign {str(manifest_default)[:12]!r}..., this server "
                f"was configured with {configured.fingerprint[:12]!r}..."
            )
        for fp, entry in snapshot["campaigns"].items():
            if fp in self.registry:
                campaign = self.registry.get(fp)
            else:
                campaign, _ = self.registry.register(
                    entry["spec"],
                    default=(fp == manifest_default),
                    window=entry.get("window"),
                )
                self.metrics.track_campaign(campaign)
            if campaign.fingerprint != fp:
                raise wire.SpecMismatchError(
                    f"manifest entry {str(fp)[:12]!r}... does not match "
                    f"its own spec (fingerprint "
                    f"{campaign.fingerprint[:12]!r}...)"
                )
            # The sequence counter is labelled by campaign; restore each
            # child so both the per-campaign series and the summed
            # snapshot seq come back exact.
            self.metrics.batches_accepted.labels(campaign=fp).restore(
                int(entry.get("batches_accepted", 0))
            )
            saved_seq = entry.get("seq")
            if saved_seq is None:  # registered but never checkpointed
                continue
            payload = self.store.namespace(fp).load(int(saved_seq))
            campaign.restore(entry, payload)
        self.ledger = CrossCampaignLedger.from_dict(snapshot["ledger"])
        self.metrics.duplicate_batches.restore(
            int(snapshot.get("duplicates", 0))
        )
        _log.info(
            "resumed from snapshot",
            extra={
                "seq": seq,
                "campaigns": len(self.registry),
                "batches_accepted": int(snapshot["batches_accepted"]),
            },
        )

    def _resume_legacy(self, seq: int, snapshot: Dict[str, Any]) -> None:
        """Restore a pre-campaign (PR 3) single-protocol snapshot into
        the default campaign."""
        default = self.registry.default
        if default is None or snapshot.get("fingerprint") != (
            default.fingerprint
        ):
            raise wire.SpecMismatchError(
                f"snapshot {seq} in {self.store.directory} was written "
                f"by a different protocol (fingerprint "
                f"{str(snapshot.get('fingerprint'))[:12]!r}...)"
            )
        wire.decode_accumulator_state(
            default.accumulator, snapshot["accumulator"]
        )
        self.ledger = CrossCampaignLedger.from_dict(snapshot["accountant"])
        default.seen_keys = set(snapshot.get("idempotency_keys", []))
        default.batches_accepted = int(snapshot["batches_accepted"])
        default.dirty = True
        self.metrics.batches_accepted.labels(
            campaign=default.fingerprint
        ).restore(default.batches_accepted)
        _log.info(
            "resumed from legacy snapshot",
            extra={
                "seq": seq,
                "batches_accepted": default.batches_accepted,
            },
        )

    def checkpoint_now(self) -> int:
        """Write a full snapshot — every dirty campaign's payload into
        its namespace, then the root manifest — and return its seq.

        The manifest lands last, so a crash mid-checkpoint leaves the
        previous manifest pointing at campaign payloads that are still
        retained (``keep`` >= 2 guarantees the window).
        """
        if self.store is None:
            raise RuntimeError("server has no snapshot store")
        started = time.perf_counter()
        seq = self.metrics.batches_accepted.value_int()
        written_bytes = 0
        for campaign in self.registry:
            if not campaign.dirty:
                continue
            namespace = self.store.namespace(campaign.fingerprint)
            path = namespace.save(seq, campaign.snapshot_payload())
            written_bytes += path.stat().st_size
            campaign.saved_seq = seq
            campaign.dirty = False
        default = self.registry.default
        manifest_path = self.store.save(
            seq,
            {
                "wire_version": wire.WIRE_VERSION,
                "type": "campaign-manifest",
                "default": default.fingerprint if default else None,
                "campaigns": {
                    c.fingerprint: c.manifest_entry() for c in self.registry
                },
                "ledger": self.ledger.to_dict(),
                "batches_accepted": seq,
                "duplicates": self.metrics.duplicate_batches.value_int(),
            },
        )
        written_bytes += manifest_path.stat().st_size
        elapsed = time.perf_counter() - started
        self.metrics.checkpoints.inc()
        self.metrics.checkpoint_seconds.observe(elapsed)
        self.metrics.checkpoint_bytes.set(written_bytes)
        _log.info(
            "checkpoint written",
            extra={
                "seq": seq,
                "bytes": written_bytes,
                "seconds": round(elapsed, 6),
            },
        )
        return seq

    def _checkpoint_if_durable(self) -> None:
        """Persist registry mutations (register/seal) immediately."""
        if self.store is not None:
            self.checkpoint_now()

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    def _resolve(
        self, campaign_id: Optional[str]
    ) -> Tuple[Optional[Campaign], Optional[Tuple[int, Dict[str, Any]]]]:
        """Route to a campaign; returns (campaign, error_response)."""
        try:
            return self.registry.resolve(campaign_id), None
        except UnknownCampaignError as exc:
            return None, (
                404,
                {
                    "error": "unknown_campaign",
                    "campaign": campaign_id,
                    "detail": str(exc.args[0]) if exc.args else str(exc),
                },
            )

    def _handle_healthz(self) -> Tuple[int, Dict[str, Any]]:
        """Liveness view, read back out of the metrics registry.

        Everything numeric here is a registry sample — the server keeps
        no parallel healthz bookkeeping.  ``/metrics`` is the same data
        with history (histograms) and labels; this endpoint stays for
        humans and cheap liveness probes.
        """
        m = self.metrics
        snapshot_info = None
        if self.store is not None:
            info = self.store.latest_info()
            if info is not None:
                seq, mtime = info
                snapshot_info = {
                    "latest_seq": seq,
                    "age_seconds": max(0.0, time.time() - mtime),
                }
        return 200, {
            "status": (
                "ok"
                if self._drain_state is DrainState.SERVING
                else self._drain_state.value
            ),
            "uptime_seconds": m.uptime.value,
            "reports": self.registry.total_reports(),
            "batches_accepted": m.batches_accepted.value_int(),
            "duplicates": m.duplicate_batches.value_int(),
            "wire_versions": {
                str(v): m.wire_batches.labels(
                    wire_version=str(v)
                ).value_int()
                for v in wire.SUPPORTED_WIRE_VERSIONS
            },
            "resumed_from_snapshot": self._resumed_from,
            "users_charged": int(m.users_charged.value),
            "lifetime_epsilon": self.ledger.lifetime_epsilon,
            "snapshot": snapshot_info,
            "campaigns": {
                c.fingerprint: {
                    "kind": c.spec.kind,
                    "state": c.state.value,
                    "default": c.default,
                    "reports": c.reports,
                    "batches_accepted": c.batches_accepted,
                    "duplicates": c.duplicates,
                }
                for c in self.registry
            },
        }

    def _handle_metrics(self) -> Tuple[int, str]:
        """``GET /metrics`` — Prometheus text exposition v0.0.4."""
        return 200, self.metrics.registry.render()

    def _handle_spec(
        self, query: Dict[str, str]
    ) -> Tuple[int, Dict[str, Any]]:
        campaign, error = self._resolve(query.get("campaign"))
        if error is not None:
            return error
        return 200, {
            # ``wire_version`` stays 1 — old clients equality-check it;
            # version-2-capable clients negotiate on ``wire_versions``.
            "wire_version": wire.WIRE_VERSION,
            "wire_versions": list(wire.SUPPORTED_WIRE_VERSIONS),
            "fingerprint": campaign.fingerprint,
            "campaign": campaign.fingerprint,
            "state": campaign.state.value,
            "spec": campaign.spec.to_dict(),
            "epsilon_per_report": campaign.spec.epsilon,
            "lifetime_epsilon": self.ledger.lifetime_epsilon,
            # Window-unaware clients ignore this; window-aware ones
            # learn the pane geometry for their ?window= queries.
            "window": (
                campaign.window.to_dict()
                if campaign.window is not None
                else None
            ),
        }

    def _handle_estimate(
        self, query: Dict[str, str]
    ) -> Tuple[int, Dict[str, Any]]:
        campaign, error = self._resolve(query.get("campaign"))
        if error is not None:
            return error
        if query.get("window") is not None or query.get("decay") is not None:
            return self._handle_window_estimate(campaign, query)
        if campaign.reports == 0:
            return 409, {
                "error": "no_reports",
                "campaign": campaign.fingerprint,
            }
        # Serving an estimate from a *sealed* campaign finalizes it;
        # an open campaign may be estimated at any time, but the result
        # is explicitly non-final (more reports can still arrive).
        final = not campaign.accepts_reports
        if final and campaign.state.value == "sealed":
            campaign.mark_estimated()
            self._checkpoint_if_durable()
        try:
            estimate = campaign.accumulator.estimate()
        except TypeError as exc:
            # A decay-configured campaign whose protocol kind has no
            # linear estimate (histogram projection, mixed tuples).
            return 400, {
                "error": "bad_estimate",
                "campaign": campaign.fingerprint,
                "detail": str(exc),
            }
        return 200, wire.pack(
            {
                "estimate": wire.encode_estimate(estimate),
                "reports": campaign.reports,
                "state": campaign.state.value,
                "final": final,
            },
            campaign.fingerprint,
            campaign=campaign.fingerprint,
        )

    def _handle_window_estimate(
        self, campaign: Campaign, query: Dict[str, str]
    ) -> Tuple[int, Dict[str, Any]]:
        """``GET /estimate?window=<panes|duration>[&decay=<gamma>]``.

        Windowed estimates never finalize a campaign — they are live
        monitoring views, not the collection's final answer.
        """
        if not campaign.windowed:
            return 409, {
                "error": "not_windowed",
                "campaign": campaign.fingerprint,
                "detail": "campaign has no window config; only the "
                "all-time estimate is available",
            }
        try:
            panes = campaign.window.resolve_panes(query.get("window"))
            decay = (
                float(query["decay"]) if query.get("decay") is not None
                else None
            )
        except ValueError as exc:
            return 400, {"error": "bad_window", "detail": str(exc)}
        merged = campaign.merged_window()
        try:
            if decay is not None:
                estimate = merged.decayed_estimate(decay, panes)
            else:
                estimate = merged.window_estimate(panes)
        except ValueError as exc:
            return 409, {
                "error": "no_reports",
                "campaign": campaign.fingerprint,
                "detail": str(exc),
            }
        except TypeError as exc:
            return 400, {"error": "bad_window", "detail": str(exc)}
        latest = merged.latest_round
        return 200, wire.pack(
            {
                "estimate": wire.encode_estimate(estimate),
                "reports": merged.window_count(panes),
                "state": campaign.state.value,
                "final": False,
                "window": {
                    "panes": panes,
                    "latest_round": latest,
                    "decay": decay,
                },
            },
            campaign.fingerprint,
            campaign=campaign.fingerprint,
        )

    def _handle_heavy_hitters(
        self, query: Dict[str, str]
    ) -> Tuple[int, Dict[str, Any]]:
        """``GET /heavy-hitters?[campaign=..&k=..&window=..]`` — top-k
        categories with churn against the previous round.

        Frequency-shaped campaigns only.  Windowed campaigns rank over
        the current window (the live view heavy hitters are *for*);
        plain campaigns rank over the all-time estimate.
        """
        campaign, error = self._resolve(query.get("campaign"))
        if error is not None:
            return error
        if campaign.spec.kind not in ("frequency", "histogram"):
            return 409, {
                "error": "not_frequency",
                "campaign": campaign.fingerprint,
                "detail": f"heavy hitters need a frequency-shaped "
                f"campaign, not {campaign.spec.kind!r}",
            }
        try:
            k = int(query.get("k", 10))
        except ValueError:
            return 400, {
                "error": "bad_request",
                "detail": f"k must be an integer, got {query.get('k')!r}",
            }
        if k < 1:
            return 400, {
                "error": "bad_request",
                "detail": f"k must be >= 1, got {k}",
            }
        panes: Optional[int] = None
        if campaign.windowed:
            try:
                panes = campaign.window.resolve_panes(query.get("window"))
            except ValueError as exc:
                return 400, {"error": "bad_window", "detail": str(exc)}
        round_: Optional[int] = None
        try:
            if campaign.windowed:
                merged = campaign.merged_window()
                windowed_view = merged.window_accumulator(panes)
                if windowed_view.count == 0:
                    raise ValueError("no reports in window")
                estimate = windowed_view.estimate()
                round_ = merged.latest_round
                reports = int(windowed_view.count)
            else:
                if query.get("window") is not None:
                    return 409, {
                        "error": "not_windowed",
                        "campaign": campaign.fingerprint,
                        "detail": "campaign has no window config",
                    }
                if campaign.reports == 0:
                    raise ValueError("no reports received yet")
                estimate = campaign.accumulator.estimate()
                reports = int(campaign.reports)
        except ValueError as exc:
            return 409, {
                "error": "no_reports",
                "campaign": campaign.fingerprint,
                "detail": str(exc),
            }
        # Histogram estimates carry the projected probability vector;
        # frequency estimates are already the frequency vector.
        frequencies = getattr(estimate, "histogram", estimate)
        view = campaign.heavy_tracker(k).update(
            frequencies, round_=round_, k=k
        )
        return 200, {
            "campaign": campaign.fingerprint,
            "reports": reports,
            **view.to_dict(),
        }

    def _handle_campaign_list(self) -> Tuple[int, Dict[str, Any]]:
        return 200, {
            "campaigns": self.registry.describe(),
            "lifetime_epsilon": self.ledger.lifetime_epsilon,
        }

    def _handle_campaign_register(
        self, body: Optional[Dict[str, Any]]
    ) -> Tuple[int, Dict[str, Any]]:
        if body is None or not isinstance(body.get("spec"), dict):
            return 400, {
                "error": "bad_request",
                "detail": "POST /campaigns requires a JSON body with a "
                "'spec' object (ProtocolSpec.to_dict())",
            }
        window = body.get("window")
        if window is not None and not isinstance(window, dict):
            return 400, {
                "error": "bad_request",
                "detail": "'window' must be a WindowConfig object "
                "(panes / pane_seconds / decay)",
            }
        try:
            campaign, created = self.registry.register(
                body["spec"], window=window
            )
        except ValueError as exc:
            if "already registered" in str(exc):
                # Same spec, conflicting window config: the campaign
                # exists, so this is a conflict, not a bad request.
                return 409, {"error": "window_conflict", "detail": str(exc)}
            return 400, {"error": "bad_spec", "detail": str(exc)}
        except (KeyError, TypeError) as exc:
            return 400, {"error": "bad_spec", "detail": str(exc)}
        if created:
            self.metrics.track_campaign(campaign)
            _log.info(
                "campaign registered",
                extra={
                    "campaign": campaign.fingerprint,
                    "kind": campaign.spec.kind,
                },
            )
            self._checkpoint_if_durable()
        return 200, {
            "campaign": campaign.fingerprint,
            "state": campaign.state.value,
            "epsilon": campaign.spec.epsilon,
            "created": created,
        }

    def _handle_campaign_seal(
        self, fingerprint: str
    ) -> Tuple[int, Dict[str, Any]]:
        campaign, error = self._resolve(fingerprint)
        if error is not None:
            return error
        was = campaign.state
        state = campaign.seal()
        if state is not was:
            _log.info(
                "campaign sealed",
                extra={
                    "campaign": campaign.fingerprint,
                    "reports": campaign.reports,
                },
            )
            self._checkpoint_if_durable()
        return 200, {
            "campaign": campaign.fingerprint,
            "state": state.value,
            "reports": campaign.reports,
        }

    def _handle_report(
        self, body: Dict[str, Any]
    ) -> Tuple[int, Dict[str, Any]]:
        """Drain gate + instrumentation around the batch handler."""
        if self._drain_state is not DrainState.SERVING:
            self.metrics.rejected_batches.labels(reason="draining").inc()
            return 503, {
                "error": "draining",
                "retry_after": DRAINING_RETRY_AFTER,
                "detail": "server is draining; no new batches accepted",
            }
        started = time.perf_counter()
        status, payload = self._handle_report_inner(body)
        if self.metrics.instrumented:
            self.metrics.batch_seconds.labels(
                campaign=str(payload.get("campaign") or "")
            ).observe(time.perf_counter() - started)
            if status != 200:
                reason = str(payload.get("error") or f"http_{status}")
                self.metrics.rejected_batches.labels(reason=reason).inc()
                _log.info(
                    "batch rejected",
                    extra={"status": status, "reason": reason},
                )
        return status, payload

    def _handle_report_inner(
        self, body: Dict[str, Any]
    ) -> Tuple[int, Dict[str, Any]]:
        try:
            campaign_id = wire.envelope_campaign(body)
        except wire.WireFormatError as exc:
            return 400, {"error": "bad_envelope", "detail": str(exc)}
        campaign, error = self._resolve(campaign_id)
        if error is not None:
            return error
        bind_campaign(campaign.fingerprint)
        try:
            payload = wire.unpack(body, campaign.fingerprint)
        except wire.SpecMismatchError as exc:
            return 409, {"error": "spec_mismatch", "detail": str(exc)}
        except wire.WireFormatError as exc:
            return 400, {"error": "bad_envelope", "detail": str(exc)}

        if not campaign.accepts_reports:
            return 409, {
                "error": "campaign_sealed",
                "campaign": campaign.fingerprint,
                "state": campaign.state.value,
                "detail": "campaign no longer accepts reports",
            }

        key = payload.get("idempotency_key")
        if key is not None and key in campaign.seen_keys:
            campaign.duplicates += 1
            self.metrics.duplicate_batches.inc()
            return 200, {
                "status": "duplicate",
                "accepted": 0,
                "campaign": campaign.fingerprint,
                "total_reports": campaign.reports,
            }

        users = payload.get("users")
        if not isinstance(users, list) or not users:
            return 400, {
                "error": "bad_request",
                "detail": "payload must carry a non-empty 'users' list",
            }

        # Streaming extensions (both optional, both wire versions):
        # 'round' buckets the batch into a window pane, 'fresh' marks
        # which users' reports were newly perturbed this round — only
        # those are charged (memoized replays are privacy-free, see
        # DESIGN.md "Streaming analytics").
        round_ = payload.get("round")
        if round_ is not None:
            if not isinstance(round_, int) or isinstance(round_, bool) \
                    or round_ < 0:
                return 400, {
                    "error": "bad_request",
                    "detail": f"'round' must be a non-negative integer, "
                    f"got {round_!r}",
                }
        fresh = payload.get("fresh")
        if fresh is not None:
            if (
                not isinstance(fresh, list)
                or len(fresh) != len(users)
                or not all(isinstance(f, bool) for f in fresh)
            ):
                return 400, {
                    "error": "bad_request",
                    "detail": "'fresh' must be a list of booleans, one "
                    "per user",
                }
        batch = payload.get("columns")
        if isinstance(batch, ColumnBlock):
            wire_version = wire.WIRE_VERSION_COLUMNAR
        else:
            wire_version = wire.WIRE_VERSION
            try:
                batch = wire.decode_reports(payload["reports"])
            except (KeyError, ValueError) as exc:
                return 400, {"error": "bad_reports", "detail": str(exc)}
        n = batch.n
        if n != len(users):
            return 400, {
                "error": "bad_request",
                "detail": f"batch carries {n} reports for {len(users)} "
                f"users",
            }

        # Validate before charging: a shape/protocol violation the
        # codec could not catch must not consume anyone's budget.
        try:
            campaign.validate_batch(batch)
        except ValueError as exc:
            return 400, {"error": "bad_reports", "detail": str(exc)}

        # Budget enforcement is atomic per batch *against the global
        # cross-campaign ledger*: either every user has room for all
        # their reports in the batch (at multiplicity) on top of what
        # they already spent in ANY campaign, or nothing happens.
        # Memoized replays ('fresh' flag False) cost zero epsilon —
        # they are byte-identical to a report already paid for.
        epsilon = campaign.spec.epsilon
        charged_users = (
            [u for u, f in zip(users, fresh) if f]
            if fresh is not None else users
        )
        multiplicity = batch_multiplicity(charged_users)
        rejected = self.ledger.rejected_users(multiplicity, epsilon)
        if rejected:
            return 429, {
                "error": "budget_exceeded",
                "campaign": campaign.fingerprint,
                "rejected_users": rejected,
                "lifetime_epsilon": self.ledger.lifetime_epsilon,
            }

        try:
            campaign.absorb_shard(batch, round_)
        except ValueError as exc:  # pragma: no cover - validated
            return 400, {"error": "bad_reports", "detail": str(exc)}
        self.ledger.charge_batch(
            multiplicity, epsilon, campaign=campaign.fingerprint
        )
        m = self.metrics
        m.wire_batches.labels(wire_version=str(wire_version)).inc()
        campaign.batches_accepted += 1
        campaign.dirty = True
        m.batches_accepted.labels(campaign=campaign.fingerprint).inc()
        if m.instrumented:
            m.ingest_reports.labels(
                campaign=campaign.fingerprint,
                wire_version=str(wire_version),
            ).inc(n)
            # Bulk-observe every charged user's *cumulative* spend:
            # one lock, sort + bisect, ~100 µs for a 2k-user batch.
            if multiplicity:
                m.budget_spend.labels(
                    campaign=campaign.fingerprint
                ).observe_many(self.ledger.spent_many(multiplicity))
        if _log.isEnabledFor(10):  # DEBUG — skip extra-dict on hot path
            _log.debug(
                "batch accepted",
                extra={"reports": n, "wire_version": wire_version},
            )
        if key is not None:
            campaign.seen_keys.add(key)
        if (
            self.checkpoint_every is not None
            and m.batches_accepted.value_int() % self.checkpoint_every == 0
        ):
            self.checkpoint_now()
        return 200, {
            "status": "accepted",
            "accepted": n,
            "campaign": campaign.fingerprint,
            "total_reports": campaign.reports,
        }

    def _handle_checkpoint(self) -> Tuple[int, Dict[str, Any]]:
        if self.store is None:
            return 409, {"error": "no_store"}
        return 200, {"status": "ok", "seq": self.checkpoint_now()}

    def _dispatch(
        self,
        method: str,
        path: str,
        query: Dict[str, str],
        body: Optional[Dict[str, Any]],
    ) -> Tuple[int, Any]:
        """Route + request-level instrumentation (latency, responses)."""
        endpoint = path if path in _KNOWN_ENDPOINTS else (
            "/campaigns/seal" if path.startswith("/campaigns/") else "other"
        )
        started = time.perf_counter()
        status, payload = self._route(method, path, query, body)
        if self.metrics.instrumented:
            self.metrics.request_seconds.labels(endpoint=endpoint).observe(
                time.perf_counter() - started
            )
            self.metrics.http_responses.labels(
                endpoint=endpoint, status=str(status)
            ).inc()
        return status, payload

    def _route(
        self,
        method: str,
        path: str,
        query: Dict[str, str],
        body: Optional[Dict[str, Any]],
    ) -> Tuple[int, Any]:
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "method_not_allowed"}
            return self._handle_healthz()
        if path == "/metrics":
            if method != "GET":
                return 405, {"error": "method_not_allowed"}
            return self._handle_metrics()
        if path == "/spec":
            if method != "GET":
                return 405, {"error": "method_not_allowed"}
            return self._handle_spec(query)
        if path == "/estimate":
            if method != "GET":
                return 405, {"error": "method_not_allowed"}
            return self._handle_estimate(query)
        if path == "/heavy-hitters":
            if method != "GET":
                return 405, {"error": "method_not_allowed"}
            return self._handle_heavy_hitters(query)
        if path == "/campaigns":
            if method == "GET":
                return self._handle_campaign_list()
            if method == "POST":
                return self._handle_campaign_register(body)
            return 405, {"error": "method_not_allowed"}
        parts = [p for p in path.split("/") if p]
        if len(parts) == 3 and parts[0] == "campaigns" and (
            parts[2] == "seal"
        ):
            if method != "POST":
                return 405, {"error": "method_not_allowed"}
            return self._handle_campaign_seal(parts[1])
        if path == "/report":
            if method != "POST":
                return 405, {"error": "method_not_allowed"}
            if body is None:
                return 400, {
                    "error": "bad_request",
                    "detail": "POST /report requires a JSON body",
                }
            return self._handle_report(body)
        if path == "/checkpoint":
            if method != "POST":
                return 405, {"error": "method_not_allowed"}
            return self._handle_checkpoint()
        return 404, {"error": "not_found", "path": path}

    # ------------------------------------------------------------------
    # Minimal HTTP/1.1 plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            status, payload = await self._process_request(reader)
        except Exception as exc:  # noqa: BLE001 - report, don't crash loop
            status, payload = 500, {
                "error": "internal",
                "detail": f"{type(exc).__name__}: {exc}",
            }
        try:
            if isinstance(payload, str):
                # /metrics: pre-rendered text exposition, not JSON.
                body = payload.encode("utf-8")
                content_type = CONTENT_TYPE_LATEST
            else:
                body = json.dumps(payload).encode("utf-8")
                content_type = "application/json"
            extra = ""
            if status == 503 and payload.get("retry_after") is not None:
                extra = f"Retry-After: {int(payload['retry_after'])}\r\n"
            writer.write(
                (
                    f"HTTP/1.1 {status} "
                    f"{_STATUS_TEXT.get(status, 'Unknown')}\r\n"
                    f"Content-Type: {content_type}\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    f"{extra}"
                    f"Connection: close\r\n\r\n"
                ).encode("ascii")
                + body
            )
            await writer.drain()
        except (ConnectionError, BrokenPipeError):  # pragma: no cover
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):  # pragma: no cover
                pass

    async def _process_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[int, Any]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        parts = request_line.split()
        if len(parts) != 3:
            return 400, {"error": "bad_request_line"}
        method = parts[0].upper()
        path, _, raw_query = parts[1].partition("?")
        query = {
            name: values[-1]
            for name, values in urllib.parse.parse_qs(raw_query).items()
        }
        content_length = 0
        content_type = "application/json"
        while True:
            line = (await reader.readline()).decode("latin-1").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            header = name.strip().lower()
            if header == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    return 400, {"error": "bad_content_length"}
            elif header == "content-type":
                content_type = value.strip().lower()
        if content_length > MAX_BODY_BYTES:
            return 413, {"error": "payload_too_large"}
        body = None
        if content_length:
            raw = await reader.readexactly(content_length)
            if content_type.startswith(wire.COLUMNAR_CONTENT_TYPE):
                try:
                    body = wire.unpack_columns(raw)
                except wire.WireFormatError as exc:
                    return 400, {"error": "bad_envelope", "detail": str(exc)}
            else:
                try:
                    body = json.loads(raw)
                except json.JSONDecodeError as exc:
                    return 400, {"error": "bad_json", "detail": str(exc)}
        with bound_context(request_id=f"r-{next(self._request_seq)}"):
            return self._dispatch(method, path, query, body)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def drain_state(self) -> DrainState:
        return self._drain_state

    @property
    def draining(self) -> bool:
        return self._drain_state is not DrainState.SERVING

    def begin_drain(self) -> None:
        """Stop admitting new batches (``POST /report`` answers 503).

        Reads (``/spec``, ``/estimate``, ``/healthz``, ``/metrics``)
        keep working — a draining server can still be scraped and can
        still serve its final estimate.  Idempotent.
        """
        if self._drain_state is DrainState.SERVING:
            self._drain_state = advance(
                self._drain_state, DrainState.DRAINING
            )
            _log.info(
                "drain started",
                extra={
                    "batches_accepted": (
                        self.metrics.batches_accepted.value_int()
                    ),
                },
            )

    def drain(self) -> DrainResult:
        """Graceful drain: refuse new batches, write the final
        checkpoint, and report what was persisted.

        The snapshot this leaves behind is **bitwise-equal** to the one
        an uninterrupted server would write after the same accepted
        batches — drain adds no state, it only runs the ordinary
        checkpoint path early.  Idempotent: a second call (with a
        store) rewrites the same sequence.
        """
        started = time.perf_counter()
        self.begin_drain()
        checkpoint_seq: Optional[int] = None
        if self.store is not None:
            checkpoint_seq = self.checkpoint_now()
        self._drain_state = advance(self._drain_state, DrainState.DRAINED)
        result = DrainResult(
            checkpoint_seq=checkpoint_seq,
            batches_accepted=self.metrics.batches_accepted.value_int(),
            seconds=time.perf_counter() - started,
        )
        _log.info(
            "drain complete",
            extra={
                "checkpoint_seq": result.checkpoint_seq,
                "batches_accepted": result.batches_accepted,
                "seconds": round(result.seconds, 6),
            },
        )
        return result

    async def start(self) -> "IngestionServer":
        """Bind and start accepting connections (non-blocking)."""
        self._asyncio_server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port
        )
        self.port = self._asyncio_server.sockets[0].getsockname()[1]
        # DEBUG, not INFO: the CLI banner is the contract-bearing
        # startup line (tests parse it), and merged-stream consumers
        # must see the banner first.
        _log.debug(
            "listening",
            extra={
                "host": self.host,
                "port": self.port,
                "campaigns": len(self.registry),
            },
        )
        return self

    async def serve_forever(self) -> None:
        """Start (if needed) and serve until cancelled."""
        if self._asyncio_server is None:
            await self.start()
        async with self._asyncio_server:
            await self._asyncio_server.serve_forever()

    async def aclose(self) -> None:
        if self._asyncio_server is not None:
            self._asyncio_server.close()
            await self._asyncio_server.wait_closed()
            self._asyncio_server = None

    def run_in_thread(self) -> "IngestionServer":
        """Serve from a daemon thread; returns once the port is bound.

        The embedding pattern tests, benchmarks and examples use:

            server = IngestionServer(spec).run_in_thread()
            ... ServiceClient("127.0.0.1", server.port) ...
            server.stop()

        :meth:`stop` halts abruptly (no final checkpoint) — exactly the
        crash model the snapshot store is designed to recover from.
        """
        if self._thread is not None:
            raise RuntimeError("server is already running in a thread")
        started = threading.Event()
        startup_error: list = []

        def _run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                loop.run_until_complete(self.start())
            except Exception as exc:  # noqa: BLE001 - surfaced to caller
                startup_error.append(exc)
                started.set()
                loop.close()
                return
            started.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(self.aclose())
                loop.close()

        self._thread = threading.Thread(
            target=_run, name="repro-service", daemon=True
        )
        self._thread.start()
        started.wait()
        if startup_error:
            self._thread.join()
            self._thread = None
            raise startup_error[0]
        return self

    def stop(self) -> None:
        """Stop a :meth:`run_in_thread` server (abrupt, crash-like)."""
        if self._thread is None:
            return
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self._thread = None
        self._loop = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IngestionServer(campaigns={len(self.registry)}, "
            f"port={self.port}, reports={self.registry.total_reports()})"
        )

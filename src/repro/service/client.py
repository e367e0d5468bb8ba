"""Client SDK for the LDP ingestion service.

The user-device half of the deployment.  The SDK fetches the server's
``/spec`` once, rebuilds the identical :class:`Protocol` locally, and
**perturbs on the client** — raw values are encoded into LDP reports
before anything is written to the socket, so the server (and the wire)
only ever see privatized data, exactly the paper's trust model.

Submission is retry-safe: every batch carries an idempotency key
(caller-supplied or derived deterministically from the report bytes),
so a retry after a lost response cannot double-count the batch — the
server answers ``duplicate`` for a key it has already folded in.
Transport retries use bounded exponential backoff with jitter and
cover both connection failures and 5xx responses.

A client is bound to at most one campaign.  Constructed bare it talks
to the server's *default* campaign (the pre-campaign v1 behavior);
:meth:`ServiceClient.for_campaign` returns a sibling bound to a
specific campaign fingerprint:

    client = ServiceClient("127.0.0.1", 8321)
    registered = client.register_campaign(spec)
    ab_test = client.for_campaign(registered["campaign"])
    ab_test.submit(values, users=user_ids, rng=7)
    ab_test.seal_campaign()
    estimate = ab_test.estimate()
"""

from __future__ import annotations

import hashlib
import http.client
import json
import random
import time
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.obs.logging import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.protocol.facade import Protocol
from repro.protocol.spec import ProtocolSpec
from repro.service import wire
from repro.stream.memo import MemoizedEncoder
from repro.utils.rng import RngLike

_log = get_logger("repro.service.client")


class ServiceError(RuntimeError):
    """Non-2xx response from the service.

    ``attempts`` counts how many transport attempts were made before
    this error surfaced (retries cover connection errors and 5xx).
    """

    def __init__(
        self, status: int, payload: Dict[str, Any], attempts: int = 1
    ):
        self.status = int(status)
        self.payload = payload
        self.attempts = int(attempts)
        detail = payload.get("detail") or payload.get("error") or payload
        suffix = f" (after {attempts} attempts)" if attempts > 1 else ""
        super().__init__(f"HTTP {status}: {detail}{suffix}")


class OverBudgetError(ServiceError):
    """The batch contained users past their lifetime budget (HTTP 429)."""

    @property
    def rejected_users(self) -> List[str]:
        return list(self.payload.get("rejected_users", []))


class CampaignClosedError(ServiceError):
    """The addressed campaign is sealed and no longer ingests (409)."""


class ServiceClient:
    """HTTP client bound to one ingestion server (and optionally one
    campaign on it).

    Parameters
    ----------
    host / port:
        Server address.
    timeout:
        Per-request socket timeout in seconds.
    retries:
        Transport-level retry attempts beyond the first try, covering
        connection errors (refused/reset, timeouts) *and* 5xx
        responses.  Safe for :meth:`submit` because the idempotency
        key is fixed before the first attempt.
    retry_delay / retry_max_delay:
        Exponential backoff base and cap: attempt k sleeps
        ``min(retry_delay * 2**(k-1), retry_max_delay)`` scaled by a
        uniform jitter in [0.5, 1].
    backoff_rng:
        The ``random.Random`` instance drawing the jitter.  Defaults
        to a fresh OS-seeded instance per client; pass a seeded one to
        make retry timing deterministic in tests.  Never the module
        globals — backoff draws must not perturb (or be perturbed by)
        any other consumer of ``random``.
    campaign:
        Campaign fingerprint this client addresses; ``None`` targets
        the server's default campaign.
    wire_version:
        Force a specific report wire format (1 = JSON envelopes, 2 =
        columnar frames).  ``None`` (the default) negotiates: the SDK
        picks the highest version both it and the server's
        ``/spec``-advertised ``wire_versions`` support, falling back to
        v1 against servers that predate the columnar format.
    metrics_registry:
        Where the client's own instruments (request latency, retry
        counters) live.  ``None`` creates a private registry; siblings
        from :meth:`for_campaign` share their parent's.  Render with
        :meth:`metrics_text`.
    memoize:
        Enable longitudinal memoization
        (:class:`~repro.stream.memo.MemoizedEncoder`): each user's
        perturbed report is cached per value, so re-submitting an
        unchanged value replays the *same* report bytes and the batch
        marks that user as not-fresh — the server charges zero
        additional epsilon for them.  The cache lives for this client
        instance; siblings from :meth:`for_campaign` get their own.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 10.0,
        retries: int = 2,
        retry_delay: float = 0.1,
        retry_max_delay: float = 2.0,
        backoff_rng: Optional[random.Random] = None,
        campaign: Optional[str] = None,
        wire_version: Optional[int] = None,
        metrics_registry: Optional[MetricsRegistry] = None,
        memoize: bool = False,
    ):
        if (
            wire_version is not None
            and wire_version not in wire.SUPPORTED_WIRE_VERSIONS
        ):
            raise ValueError(
                f"this SDK speaks wire versions "
                f"{list(wire.SUPPORTED_WIRE_VERSIONS)}, got {wire_version}"
            )
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self.retries = int(retries)
        self.retry_delay = float(retry_delay)
        self.retry_max_delay = float(retry_max_delay)
        self.backoff_rng = (
            backoff_rng if backoff_rng is not None else random.Random()
        )
        self.campaign = campaign
        self.wire_version = wire_version
        self.memoize = bool(memoize)
        self._memo: Optional[MemoizedEncoder] = None
        self._negotiated: Optional[int] = None
        self._protocol: Optional[Protocol] = None
        self._fingerprint: Optional[str] = None
        self._spec_response: Optional[Dict[str, Any]] = None
        self.metrics_registry = (
            metrics_registry
            if metrics_registry is not None
            else MetricsRegistry()
        )
        self._request_seconds = self.metrics_registry.histogram(
            "repro_client_request_seconds",
            "Per-attempt HTTP round-trip latency, by endpoint.",
            labels=("endpoint",),
        )
        self._responses = self.metrics_registry.counter(
            "repro_client_responses_total",
            "HTTP responses the client received, by endpoint and "
            "status code.",
            labels=("endpoint", "status"),
        )
        self._retries = self.metrics_registry.counter(
            "repro_client_retries_total",
            "Transport retries, by what triggered them "
            "(connection_error, server_error).",
            labels=("reason",),
        )

    # ------------------------------------------------------------------
    # Campaign binding
    # ------------------------------------------------------------------
    def for_campaign(
        self,
        campaign: Union[str, ProtocolSpec, Dict[str, Any]],
    ) -> "ServiceClient":
        """A sibling client addressing one specific campaign.

        Accepts a campaign fingerprint, a :class:`ProtocolSpec`, or a
        spec dict (fingerprinted locally — handy right after
        :meth:`register_campaign` with the same spec).
        """
        if isinstance(campaign, (ProtocolSpec, dict)):
            campaign = wire.spec_fingerprint(campaign)
        return ServiceClient(
            self.host,
            self.port,
            timeout=self.timeout,
            retries=self.retries,
            retry_delay=self.retry_delay,
            retry_max_delay=self.retry_max_delay,
            backoff_rng=self.backoff_rng,
            campaign=str(campaign),
            wire_version=self.wire_version,
            metrics_registry=self.metrics_registry,
            memoize=self.memoize,
        )

    def _campaign_query(self) -> str:
        if self.campaign is None:
            return ""
        return f"?campaign={self.campaign}"

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _backoff(self, attempt: int) -> float:
        """Sleep time before retry ``attempt`` (1-based): bounded
        exponential with jitter in [0.5, 1] to avoid thundering-herd
        resubmission from a fleet of clients."""
        base = min(
            self.retry_delay * (2.0 ** (attempt - 1)), self.retry_max_delay
        )
        return base * (0.5 + 0.5 * self.backoff_rng.random())

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        raw_body: Optional[bytes] = None,
        content_type: str = "application/json",
    ) -> Dict[str, Any]:
        if raw_body is not None:
            data: Optional[bytes] = raw_body
        else:
            data = (
                json.dumps(body).encode("utf-8")
                if body is not None
                else None
            )
        endpoint = path.partition("?")[0]
        if endpoint.startswith("/campaigns/"):
            endpoint = "/campaigns/seal"
        last_error: Optional[Exception] = None
        last_response: Optional[tuple] = None
        attempts = 0
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(self._backoff(attempt))
            attempts = attempt + 1
            connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            started = time.perf_counter()
            try:
                connection.request(
                    method,
                    path,
                    body=data,
                    headers={"Content-Type": content_type}
                    if data is not None
                    else {},
                )
                response = connection.getresponse()
                raw = response.read()
            except (ConnectionError, TimeoutError, OSError) as exc:
                last_error = exc
                if attempt < self.retries:
                    self._retries.labels(reason="connection_error").inc()
                    _log.debug(
                        "retrying after connection error",
                        extra={"endpoint": endpoint, "attempt": attempts},
                    )
                continue
            finally:
                connection.close()
            self._request_seconds.labels(endpoint=endpoint).observe(
                time.perf_counter() - started
            )
            self._responses.labels(
                endpoint=endpoint, status=str(response.status)
            ).inc()
            try:
                payload = json.loads(raw) if raw else {}
            except json.JSONDecodeError as exc:
                raise ServiceError(
                    response.status,
                    {"error": "non_json_response"},
                    attempts=attempts,
                ) from exc
            if response.status >= 500:
                # Transient server-side failure: retry (idempotency
                # keys make resubmission safe), surface the last one.
                last_error = None
                last_response = (response.status, payload)
                if attempt < self.retries:
                    self._retries.labels(reason="server_error").inc()
                continue
            if response.status == 429:
                raise OverBudgetError(
                    response.status, payload, attempts=attempts
                )
            if response.status >= 400:
                if payload.get("error") == "campaign_sealed":
                    raise CampaignClosedError(
                        response.status, payload, attempts=attempts
                    )
                raise ServiceError(
                    response.status, payload, attempts=attempts
                )
            return payload
        if last_response is not None:
            raise ServiceError(
                last_response[0], last_response[1], attempts=attempts
            )
        raise ConnectionError(
            f"could not reach service at {self.host}:{self.port} after "
            f"{attempts} attempts"
        ) from last_error

    # ------------------------------------------------------------------
    # Spec / protocol
    # ------------------------------------------------------------------
    def fetch_spec(self) -> Dict[str, Any]:
        """``GET /spec`` (cached); builds the local protocol twin."""
        if self._spec_response is None:
            response = self._request(
                "GET", "/spec" + self._campaign_query()
            )
            version = response.get("wire_version")
            offered = response.get("wire_versions")
            if not isinstance(offered, list) or not offered:
                # Pre-negotiation server: it speaks exactly one version.
                offered = [version]
            if self.wire_version is not None:
                if self.wire_version not in offered:
                    raise wire.WireFormatError(
                        f"forced wire_version {self.wire_version} but the "
                        f"server only speaks {offered}"
                    )
                self._negotiated = self.wire_version
            else:
                mutual = [
                    v
                    for v in wire.SUPPORTED_WIRE_VERSIONS
                    if v in offered
                ]
                if not mutual:
                    raise wire.WireFormatError(
                        f"server speaks wire versions {offered}, this SDK "
                        f"speaks {list(wire.SUPPORTED_WIRE_VERSIONS)}"
                    )
                self._negotiated = max(mutual)
            self._protocol = Protocol.from_spec(response["spec"])
            # Fingerprint what we *rebuilt*, so any local/remote drift
            # (e.g. a spec field this SDK does not understand) is caught
            # here instead of corrupting the aggregate server-side.
            self._fingerprint = wire.spec_fingerprint(self._protocol.spec)
            if self._fingerprint != response.get("fingerprint"):
                raise wire.SpecMismatchError(
                    "local protocol rebuild does not match the server's "
                    "fingerprint — client and server disagree on the "
                    "spec schema"
                )
            if (
                self.campaign is not None
                and self._fingerprint != self.campaign
            ):
                raise wire.SpecMismatchError(
                    f"campaign {self.campaign[:12]!r}... served a spec "
                    f"fingerprinting to {self._fingerprint[:12]!r}... — "
                    f"the campaign id IS the spec fingerprint, so these "
                    f"must agree"
                )
            self._spec_response = response
        return self._spec_response

    @property
    def protocol(self) -> Protocol:
        """The locally rebuilt protocol (fetches the spec on first use)."""
        self.fetch_spec()
        return self._protocol

    @property
    def fingerprint(self) -> str:
        self.fetch_spec()
        return self._fingerprint

    @property
    def negotiated_wire_version(self) -> int:
        """The report wire format this client will submit with."""
        self.fetch_spec()
        return self._negotiated

    # ------------------------------------------------------------------
    # Campaign management
    # ------------------------------------------------------------------
    def register_campaign(
        self,
        spec: Union[Protocol, ProtocolSpec, Dict[str, Any]],
        window: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """``POST /campaigns`` — register a collection campaign.

        Idempotent by content: re-registering the same spec returns the
        live campaign (``created: false``).  Returns the server's
        ``{campaign, state, epsilon, created}`` response; pass
        ``response["campaign"]`` to :meth:`for_campaign`.  ``window``
        (a ``WindowConfig.to_dict()``-shaped object) makes the campaign
        windowed; re-registering with a *conflicting* window is HTTP
        409, omitting it keeps the existing one.
        """
        if isinstance(spec, Protocol):
            spec = spec.spec
        if isinstance(spec, ProtocolSpec):
            spec = spec.to_dict()
        body: Dict[str, Any] = {"spec": spec}
        if window is not None:
            body["window"] = window
        return self._request("POST", "/campaigns", body)

    def campaigns(self) -> List[Dict[str, Any]]:
        """``GET /campaigns`` — every campaign and its state."""
        return self._request("GET", "/campaigns")["campaigns"]

    def seal_campaign(
        self, campaign: Optional[str] = None
    ) -> Dict[str, Any]:
        """``POST /campaigns/<fp>/seal`` — close a campaign to further
        ingestion (defaults to this client's bound campaign)."""
        target = campaign if campaign is not None else self.campaign
        if target is None:
            target = self.fingerprint  # default campaign's fingerprint
        return self._request("POST", f"/campaigns/{target}/seal")

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def encode(self, values, rng: RngLike = None):
        """Perturb raw values locally into transmit-ready reports."""
        return self.protocol.client().encode_batch(values, rng)

    @property
    def encoder(self) -> MemoizedEncoder:
        """The persistent memoizing encoder (``memoize=True`` only)."""
        if not self.memoize:
            raise RuntimeError(
                "this client was constructed with memoize=False"
            )
        if self._memo is None:
            self._memo = MemoizedEncoder(self.protocol.client())
        return self._memo

    def submit(
        self,
        values,
        users: Sequence[str],
        rng: RngLike = None,
        idempotency_key: Optional[str] = None,
        round: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Encode locally and submit one batch for ``users``.

        Raw ``values`` never leave this process; only the perturbed
        reports are serialized onto the wire.  With ``memoize=True``
        unchanged values replay the cached report and the batch's
        ``fresh`` vector tells the server to charge only the users
        whose reports were newly perturbed.  ``round`` buckets the
        batch into the campaign's window pane for that round.
        """
        if self.memoize:
            reports, fresh = self.encoder.encode_users(values, users, rng)
        else:
            reports, fresh = self.encode(values, rng), None
        return self.submit_reports(
            reports, users, idempotency_key, round=round, fresh=fresh
        )

    def submit_reports(
        self,
        reports,
        users: Sequence[str],
        idempotency_key: Optional[str] = None,
        round: Optional[int] = None,
        fresh: Optional[Sequence[bool]] = None,
    ) -> Dict[str, Any]:
        """Submit already-encoded reports (``POST /report``).

        Uses the negotiated wire format: v2 frames the batch as packed
        columnar arrays (:func:`repro.service.wire.pack_columns`), v1
        sends the classic JSON envelope.  Either way the batch carries
        the same fingerprint, users and idempotency key and lands in
        the same server-side accumulator, bitwise.  The streaming keys
        (``round``, ``fresh``) ride along only when given — a
        round-less submission is byte-identical to a pre-streaming
        SDK's.
        """
        fresh_list = (
            [bool(f) for f in fresh] if fresh is not None else None
        )
        round_int = int(round) if round is not None else None
        if self.negotiated_wire_version == wire.WIRE_VERSION_COLUMNAR:
            block = wire.reports_to_columns(reports)
            if idempotency_key is None:
                idempotency_key = self._derive_columnar_key(
                    block, users, round_int, fresh_list
                )
            frame = wire.pack_columns(
                block,
                self.fingerprint,
                users=[str(u) for u in users],
                idempotency_key=idempotency_key,
                campaign=self.campaign,
                round=round_int,
                fresh=fresh_list,
            )
            return self._request(
                "POST",
                "/report",
                raw_body=frame,
                content_type=wire.COLUMNAR_CONTENT_TYPE,
            )
        encoded = wire.encode_reports(reports)
        if idempotency_key is None:
            idempotency_key = self._derive_key(
                encoded, users, round_int, fresh_list
            )
        payload: Dict[str, Any] = {
            "users": [str(u) for u in users],
            "idempotency_key": idempotency_key,
            "reports": encoded,
        }
        if round_int is not None:
            payload["round"] = round_int
        if fresh_list is not None:
            payload["fresh"] = fresh_list
        envelope = wire.pack(
            payload,
            self.fingerprint,
            campaign=self.campaign,
        )
        return self._request("POST", "/report", envelope)

    @staticmethod
    def _streaming_key_suffix(
        digest, round_: Optional[int], fresh: Optional[List[bool]]
    ) -> None:
        """Fold the streaming keys into an idempotency digest.

        Only when present — a round-less batch hashes to exactly what a
        pre-streaming SDK derived, so mixed fleets agree on duplicate
        detection.  A memoized batch resubmitted into a *different*
        round is deliberately a distinct key: it is a new pane's worth
        of (replayed, zero-cost) evidence, not a duplicate.
        """
        if round_ is not None:
            digest.update(f"round:{round_}".encode("ascii"))
        if fresh is not None:
            digest.update(json.dumps(fresh).encode("ascii"))

    @staticmethod
    def _derive_key(
        encoded_reports: Dict[str, Any],
        users,
        round_: Optional[int] = None,
        fresh: Optional[List[bool]] = None,
    ) -> str:
        """Deterministic idempotency key from the batch content.

        Retrying the same encoded batch reuses the same key even across
        SDK instances, so a crash-and-rerun of a client script cannot
        double-submit.
        """
        digest = hashlib.sha256()
        digest.update(
            json.dumps(encoded_reports, sort_keys=True).encode("utf-8")
        )
        digest.update(json.dumps([str(u) for u in users]).encode("utf-8"))
        ServiceClient._streaming_key_suffix(digest, round_, fresh)
        return digest.hexdigest()

    @staticmethod
    def _derive_columnar_key(
        block,
        users,
        round_: Optional[int] = None,
        fresh: Optional[List[bool]] = None,
    ) -> str:
        """Deterministic idempotency key for a columnar batch.

        Hashes the block's structure (kind, n, meta, per-column
        dtype/shape) and the raw little-endian column bytes plus the
        user list — the same inputs :func:`wire.pack_columns` frames,
        so identical batches collide by construction.  Deliberately
        *not* the same key as the v1 JSON derivation: a client that
        renegotiates mid-stream resubmits under a fresh key, and the
        server-side duplicate check stays per-representation.
        """
        digest = hashlib.sha256()
        structure = {
            "kind": block.kind,
            "n": int(block.n),
            "meta": block.meta,
            "columns": [
                {
                    "name": name,
                    "dtype": np.asarray(block.columns[name]).dtype.str,
                    "shape": list(np.asarray(block.columns[name]).shape),
                }
                for name in sorted(block.columns)
            ],
        }
        digest.update(
            json.dumps(structure, sort_keys=True).encode("utf-8")
        )
        for name in sorted(block.columns):
            arr = np.ascontiguousarray(block.columns[name])
            digest.update(arr.tobytes())
        digest.update(json.dumps([str(u) for u in users]).encode("utf-8"))
        ServiceClient._streaming_key_suffix(digest, round_, fresh)
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _query_path(self, path: str, **params: Any) -> str:
        pairs = []
        if self.campaign is not None:
            pairs.append(("campaign", self.campaign))
        pairs.extend(
            (k, str(v)) for k, v in params.items() if v is not None
        )
        if not pairs:
            return path
        return path + "?" + "&".join(f"{k}={v}" for k, v in pairs)

    def estimate(
        self,
        window: Optional[Union[int, str]] = None,
        decay: Optional[float] = None,
    ):
        """Current server-side estimate, decoded to native objects."""
        return self.estimate_info(window=window, decay=decay)["estimate"]

    def estimate_info(
        self,
        window: Optional[Union[int, str]] = None,
        decay: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Estimate plus its provenance: ``{estimate, reports, state,
        final}``.  ``final`` is False while the campaign is still open
        (more reports may arrive); serving an estimate from a sealed
        campaign finalizes it (state becomes ``estimated``).

        ``window`` (a pane count like ``4`` or a duration like
        ``"5m"``) restricts the estimate to the campaign's most recent
        panes; ``decay`` asks for the exponentially-decayed view.
        Windowed queries never finalize the campaign.
        """
        payload = wire.unpack(
            self._request(
                "GET",
                self._query_path("/estimate", window=window, decay=decay),
            ),
            self.fingerprint,
        )
        return {
            "estimate": wire.decode_estimate(payload["estimate"]),
            "reports": payload.get("reports"),
            "state": payload.get("state"),
            "final": payload.get("final"),
            "window": payload.get("window"),
        }

    def heavy_hitters(
        self,
        k: Optional[int] = None,
        window: Optional[Union[int, str]] = None,
    ) -> Dict[str, Any]:
        """``GET /heavy-hitters`` — live top-k + churn vs the previous
        round, for frequency-shaped campaigns.  Returns the server's
        ``{round, k, indices, frequencies, entered, exited, ...}``."""
        return self._request(
            "GET",
            self._query_path("/heavy-hitters", k=k, window=window),
        )

    def healthz(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def metrics_text(self) -> str:
        """This client's own instruments, rendered as Prometheus text
        exposition (request latency, retry counters).  For the
        *server's* metrics, scrape its ``GET /metrics``."""
        return self.metrics_registry.render()

    def server_metrics_text(self) -> str:
        """Fetch the server's ``GET /metrics`` page (raw exposition
        text; not retried — scraping is periodic by nature)."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            connection.request("GET", "/metrics")
            response = connection.getresponse()
            raw = response.read()
        finally:
            connection.close()
        if response.status != 200:
            raise ServiceError(response.status, {"error": "metrics"})
        return raw.decode("utf-8")

    def checkpoint(self) -> int:
        """Ask the server to snapshot now; returns the sequence number."""
        return int(self._request("POST", "/checkpoint")["seq"])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        bound = (
            f", campaign={self.campaign[:12]}..."
            if self.campaign
            else ""
        )
        return f"ServiceClient({self.host!r}, {self.port}{bound})"

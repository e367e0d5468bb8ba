"""Server process control and the three workloads.

The server runs as its own process (``launcher.py`` around
``python -m repro.service``, default topology: inline absorb, no
``--shards``).  One generator thread drives it over loopback in a
closed loop: every SDK call waits for its reply before the next is
sent.  A run repeats one *cycle* of its workload several times (fresh
server, timed window, checks, reads, drain, restart); the work in each
cycle's window is fixed from ``--seconds`` so that two commits do
identical work (see ``README.md``).
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.protocol import Protocol
from repro.service import ServiceClient, wire
from repro.service.client import OverBudgetError, ServiceError

from traffic import (
    BATCH,
    InputDigest,
    churn_schedule,
    distinct_per_user,
    id_token,
    user_ids,
)

HERE = Path(__file__).resolve().parent
HOST = "127.0.0.1"
BANNER = re.compile(rb"on http://127\.0\.0\.1:(\d+) ")
# --checkpoint-every for workloads whose store is written only at drain.
AT_DRAIN_ONLY = 10**9
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 120.0


class ServerProcess:
    """One ingestion server, launched and stopped by the benchmark."""

    def __init__(
        self,
        run_dir: Path,
        name: str,
        args: List[str],
        spans: Optional[Path] = None,
    ) -> None:
        self.log_path = run_dir / f"{name}.log"
        command = [sys.executable, str(HERE / "launcher.py")]
        if spans is not None:
            command += ["--spans", str(spans)]
        command += ["--", *args, "--host", HOST, "--port", "0"]
        self._log = open(self.log_path, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdout=self._log, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
        )
        self.port: Optional[int] = None

    def _failure(self, what: str) -> RuntimeError:
        tail = self.log_path.read_bytes()[-2000:].decode("utf-8", "replace")
        return RuntimeError(f"server {what}; log tail:\n{tail}")

    def wait_port(self) -> int:
        """Block until the server's banner names its listening port."""
        deadline = self.started + START_TIMEOUT_S
        while True:
            match = BANNER.search(self.log_path.read_bytes())
            if match:
                self.port = int(match.group(1))
                return self.port
            if self.proc.poll() is not None:
                raise self._failure(f"exited with {self.proc.returncode}")
            if time.perf_counter() > deadline:
                raise self._failure("did not start in time")
            time.sleep(0.002)

    def wait_healthy(self) -> float:
        """Seconds from launch to the first 200 on ``/healthz``."""
        self.wait_port()
        connection = http.client.HTTPConnection(HOST, self.port, timeout=10)
        try:
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            response.read()
        finally:
            connection.close()
        if response.status != 200:
            raise self._failure(f"answered /healthz with {response.status}")
        return time.perf_counter() - self.started

    def peak_rss_mib(self) -> float:
        """The server's ``VmHWM`` (peak resident set) in MiB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kib = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
        if kib is None:
            raise RuntimeError("no VmHWM line in /proc/<pid>/status")
        return int(kib.group(1)) / 1024.0

    def drain(self) -> float:
        """SIGTERM; seconds until the process exited 0."""
        # Popen.wait(timeout=...) polls with sleeps of up to 50 ms, which
        # would quantize the measurement; wait blocking, with a watchdog.
        watchdog = threading.Timer(STOP_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        started = time.perf_counter()
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait()
        finally:
            watchdog.cancel()
        elapsed = time.perf_counter() - started
        self._log.close()
        if code != 0:
            raise self._failure(f"drained with exit code {code}")
        return elapsed

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=STOP_TIMEOUT_S)
        self._log.close()


def _probe_once() -> float:
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        table = {f"u{i:05d}": i for i in range(400)}
        json.loads(json.dumps(table))
        column = np.arange(4000, dtype=np.int64)
        (column * 3 + 1).sum()
        column.tobytes()
        best = min(best, time.perf_counter() - started)
    return best


def host_probe() -> List[float]:
    """Seconds a fixed piece of Python work takes now on each CPU the
    benchmark may use (best of three): how fast the host runs at this
    moment, whichever CPU the server is scheduled on."""
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(_probe_once())
    finally:
        os.sched_setaffinity(0, cpus)
    return times


class Segment:
    """A few consecutive requests of one window, with the host probes
    taken just before and just after them."""

    def __init__(self, window: "Window", probe: List[float]) -> None:
        self.probes = [probe]
        self.started = time.perf_counter()
        self._accepted = window.accepted
        self.first_batch = len(window.batch_s)
        self.first_read = len(window.read_s)
        self.seconds = 0.0
        self.reports = 0
        self.batch_s: List[float] = []
        self.batch_campaign: List[str] = []
        self.read_s: List[float] = []
        self.read_kind: List[int] = []

    def holds_requests(self, window: "Window") -> bool:
        return (
            len(window.batch_s) > self.first_batch
            or len(window.read_s) > self.first_read
        )

    def close(
        self, window: "Window", ended: float, probe: List[float]
    ) -> None:
        self.probes.append(probe)
        self.seconds = ended - self.started
        self.reports = window.accepted - self._accepted
        self.batch_s = window.batch_s[self.first_batch:]
        self.batch_campaign = window.batch_campaign[self.first_batch:]
        self.read_s = window.read_s[self.first_read:]
        self.read_kind = window.read_kind[self.first_read:]


class Window:
    """What the timed window saw, as the client observed it, cut into
    segments with :meth:`split`; host probes run between segments."""

    def __init__(self) -> None:
        self.accepted = 0
        self.elapsed = 0.0
        self.batch_s: List[float] = []
        self.batch_campaign: List[str] = []  # fingerprint per batch
        self.read_s: List[float] = []
        self.read_kind: List[int] = []  # position in the list of reads
        self.segments: List[Segment] = []
        self.started = time.perf_counter()
        self._open: Optional[Segment] = Segment(self, host_probe())

    def submit(self, client: ServiceClient, reports, users, **kw) -> None:
        started = time.perf_counter()
        response = client.submit_reports(reports, users, **kw)
        self.batch_s.append(time.perf_counter() - started)
        self.batch_campaign.append(client.fingerprint)
        self.accepted += int(response["accepted"])

    def read(self, reads: List[Callable[[], object]]) -> None:
        for kind, read in enumerate(reads):
            started = time.perf_counter()
            read()
            self.read_s.append(time.perf_counter() - started)
            self.read_kind.append(kind)

    def end_segment(self) -> List[float]:
        """Close the open segment, if it holds a request, and open none;
        the host probe taken after it."""
        ended = time.perf_counter()
        probe = host_probe()
        segment, self._open = self._open, None
        if segment is not None and segment.holds_requests(self):
            segment.close(self, ended, probe)
            self.segments.append(segment)
        return probe

    def split(self) -> None:
        """End the open segment and open the next."""
        self._open = Segment(self, self.end_segment())

    def stop(self) -> None:
        """End the timed window after its last request."""
        self.elapsed = time.perf_counter() - self.started
        self.end_segment()


def same_estimate(a, b) -> bool:
    """Bitwise equality through the wire's exact estimate encoding."""
    return wire.encode_estimate(a) == wire.encode_estimate(b)


def absorbed(protocol: Protocol, batches) -> object:
    accumulator = protocol.server()
    for reports in batches:
        accumulator.absorb(reports)
    return accumulator.estimate()


class Workload:
    """Inputs, server arguments, traffic and checks of one workload."""

    name = ""
    # Units of work per second of window (batch pairs, batches or
    # rounds) on a 2-CPU machine.
    rate = 1.0
    # Rounds of dashboard reads after the window (0: reads are inside
    # the window, as in ``stream``).
    read_rounds = 30

    def __init__(self, seed: int, work_seconds: float, run_dir: Path) -> None:
        """``work_seconds``: the window's nominal length on a 2-CPU
        machine; the workload's rate constant turns it into a fixed
        amount of work."""
        self.seed = seed
        self.run_dir = run_dir
        self.digest = InputDigest(self.name, seed)
        self.clients: List[ServiceClient] = []
        self.served: Dict[str, object] = {}
        self.size = max(1, round(self.rate * work_seconds))

    def _spec_file(self, label: str, protocol: Protocol) -> str:
        path = self.run_dir / f"{self.name}-{label}.json"
        path.write_text(json.dumps(protocol.spec.to_dict()))
        return str(path)

    def _client(self, port: int, **kw) -> ServiceClient:
        # Seeded backoff jitter: retries (should any happen) replay
        # identically for one seed.
        client = ServiceClient(
            HOST, port, backoff_rng=random.Random(self.seed), **kw
        )
        client.fetch_spec()
        self.clients.append(client)
        return client

    @property
    def window_batches(self) -> int:
        raise NotImplementedError

    def server_args(self, snapshot_dir: Path) -> List[str]:
        raise NotImplementedError

    def connect(self, port: int) -> None:
        """Fresh SDK clients for one cycle's server."""
        self.clients = []
        self.served = {}
        self.bind(port)

    def bind(self, port: int) -> None:
        raise NotImplementedError

    def run_window(self) -> Window:
        raise NotImplementedError

    def reads(self) -> List[Callable[[], object]]:
        raise NotImplementedError

    def check(self) -> Dict[str, bool]:
        raise NotImplementedError

    def first_estimate(self, port: int) -> None:
        """The restarted server's first ``/estimate``."""
        raise NotImplementedError

    def check_recovered(self) -> Dict[str, bool]:
        raise NotImplementedError

    def retries(self) -> int:
        """Transport retries the cycle's SDK clients made."""
        total = 0
        for client in self.clients:
            metric = client.metrics_registry.get("repro_client_retries_total")
            if metric is not None:
                total += sum(child.value for _, child in metric.children())
        return int(total)


class Ingest(Workload):
    """One-shot collection: every batch is 2,000 never-seen users,
    alternating a v2 HM multidim campaign and a v1 OUE campaign.  No
    snapshot store, so a restart recovers nothing."""

    name = "ingest"
    rate = 32.0  # batch pairs
    segment_batches = 10

    def __init__(self, seed: int, work_seconds: float, run_dir: Path) -> None:
        super().__init__(seed, work_seconds, run_dir)
        self.protocols = {
            "hm": Protocol.multidim(4.0, d=8, mechanism="hm"),
            "oue": Protocol.frequency(1.0, domain=32),
        }
        rng = np.random.default_rng([seed, 1])
        token = id_token(rng)
        hm, oue = (self.protocols[k].client() for k in ("hm", "oue"))
        self.batches = []
        for pair in range(self.size):
            values = rng.uniform(-1.0, 1.0, (BATCH, 8))
            self.batches.append(
                ("hm", hm.encode_batch(values, rng),
                 user_ids(token, 2 * pair, BATCH))
            )
            values = rng.integers(0, 32, BATCH)
            self.batches.append(
                ("oue", oue.encode_batch(values, rng),
                 user_ids(token, 2 * pair + 1, BATCH))
            )
        for _, reports, users in self.batches:
            self.digest.users(users)
            self.digest.reports(reports)
        self.reference = {
            kind: absorbed(
                protocol,
                (reports for k, reports, _ in self.batches if k == kind),
            )
            for kind, protocol in self.protocols.items()
        }

    @property
    def window_batches(self) -> int:
        return len(self.batches)

    def server_args(self, snapshot_dir: Path) -> List[str]:
        return [
            "--campaigns",
            self._spec_file("hm", self.protocols["hm"]),
            self._spec_file("oue", self.protocols["oue"]),
            "--lifetime-epsilon", "4.0",
        ]

    def _sdk(self, port: int) -> Dict[str, ServiceClient]:
        return {
            "hm": self._client(
                port, wire_version=wire.WIRE_VERSION_COLUMNAR,
                campaign=wire.spec_fingerprint(self.protocols["hm"].spec),
            ),
            "oue": self._client(
                port, wire_version=wire.WIRE_VERSION,
                campaign=wire.spec_fingerprint(self.protocols["oue"].spec),
            ),
        }

    def bind(self, port: int) -> None:
        self.sdk = self._sdk(port)

    def run_window(self) -> Window:
        window = Window()
        for i, (kind, reports, users) in enumerate(self.batches, 1):
            window.submit(self.sdk[kind], reports, users)
            if i % self.segment_batches == 0:
                window.split()
        window.stop()
        for kind, client in self.sdk.items():
            self.served[kind] = client.estimate()
        return window

    def reads(self) -> List[Callable[[], object]]:
        hm, oue = self.sdk["hm"], self.sdk["oue"]
        return [hm.estimate_info, oue.estimate_info, oue.server_metrics_text]

    def check(self) -> Dict[str, bool]:
        return {
            f"{kind}_estimate_equals_local_absorb": same_estimate(
                self.served[kind], self.reference[kind]
            )
            for kind in self.protocols
        }

    def _restarted_answer(self, kind: str) -> str:
        try:
            self.recovered[kind].estimate()
        except ServiceError as exc:
            return str(exc.payload.get("error"))
        return "estimate"

    def first_estimate(self, port: int) -> None:
        self.recovered = self._sdk(port)
        self.restarted = {"hm": self._restarted_answer("hm")}

    def check_recovered(self) -> Dict[str, bool]:
        self.restarted["oue"] = self._restarted_answer("oue")
        return {
            f"{kind}_restart_without_store_has_no_reports": (
                self.restarted[kind] == "no_reports"
            )
            for kind in self.protocols
        }


class Durable(Workload):
    """A long-lived server: 2,000 fixed users resubmit every batch to a
    v2 OUE campaign, with a checkpoint every 10 batches."""

    name = "durable"
    rate = 25.0  # batches
    checkpoint_every = 10
    segment_batches = checkpoint_every  # one checkpoint per segment

    def __init__(self, seed: int, work_seconds: float, run_dir: Path) -> None:
        super().__init__(seed, work_seconds, run_dir)
        self.protocol = Protocol.frequency(1.0, domain=32)
        rng = np.random.default_rng([seed, 2])
        self.users = user_ids(id_token(rng), 0, BATCH)
        encoder = self.protocol.client()
        self.batches = [
            encoder.encode_batch(rng.integers(0, 32, BATCH), rng)
            for _ in range(self.size)
        ]
        # Lifetime budget = batches x epsilon: the window spends it
        # exactly, so one more batch must be refused for every user.
        self.lifetime = self.size * self.protocol.spec.epsilon
        self.probe = encoder.encode_batch(rng.integers(0, 32, BATCH), rng)
        self.digest.users(self.users)
        for reports in self.batches + [self.probe]:
            self.digest.reports(reports)
        self.reference = absorbed(self.protocol, self.batches)

    @property
    def window_batches(self) -> int:
        return len(self.batches)

    def server_args(self, snapshot_dir: Path) -> List[str]:
        return [
            "--spec", self._spec_file("oue", self.protocol),
            "--lifetime-epsilon", repr(self.lifetime),
            "--snapshot-dir", str(snapshot_dir),
            "--checkpoint-every", str(self.checkpoint_every),
        ]

    def bind(self, port: int) -> None:
        self.sdk = self._client(port, wire_version=wire.WIRE_VERSION_COLUMNAR)

    def run_window(self) -> Window:
        window = Window()
        for i, reports in enumerate(self.batches, 1):
            window.submit(self.sdk, reports, self.users)
            if i % self.segment_batches == 0:
                window.split()
        window.stop()
        self.served["oue"] = self.sdk.estimate()
        return window

    def reads(self) -> List[Callable[[], object]]:
        return [
            self.sdk.estimate_info,
            lambda: self.sdk.heavy_hitters(k=10),
            self.sdk.server_metrics_text,
        ]

    def check(self) -> Dict[str, bool]:
        checks = {
            "estimate_equals_local_absorb": same_estimate(
                self.served["oue"], self.reference
            )
        }
        try:
            self.sdk.submit_reports(self.probe, self.users)
            refused: List[str] = []
        except OverBudgetError as exc:
            refused = exc.rejected_users
        checks["extra_batch_refused_for_every_user"] = (
            sorted(refused) == sorted(self.users)
        )
        return checks

    def first_estimate(self, port: int) -> None:
        self.recovered = self._client(
            port, wire_version=wire.WIRE_VERSION_COLUMNAR
        )
        self.restarted = self.recovered.estimate()

    def check_recovered(self) -> Dict[str, bool]:
        return {
            "estimate_equals_local_absorb_after_restart": same_estimate(
                self.restarted, self.reference
            )
        }


class Stream(Workload):
    """Windowed frequency campaign fed by a memoized client: 20,000
    fixed users per round, 10% of them change value, the rest replay
    at zero epsilon; dashboard reads follow every round.  The store is
    written only by the drain's final checkpoint."""

    name = "stream"
    rate = 4.5  # rounds
    read_rounds = 0
    users_count = 20_000
    domain = 64
    churn = 0.10
    zipf_exponent = 1.1
    panes = 4

    def __init__(self, seed: int, work_seconds: float, run_dir: Path) -> None:
        super().__init__(seed, work_seconds, run_dir)
        self.protocol = Protocol.frequency(1.0, domain=self.domain)
        rng = np.random.default_rng([seed, 3])
        self.users = user_ids(id_token(rng), 0, self.users_count)
        self.schedule = churn_schedule(
            rng, self.users_count, self.size, self.domain, self.churn,
            self.zipf_exponent,
        )
        # Memoization charges a user once per distinct value held, so
        # this is each user's exact spend.  The lifetime budget is its
        # maximum: tight, so one overcharged replay would be refused.
        self.fresh_counts = distinct_per_user(self.schedule)
        self.lifetime = float(self.fresh_counts.max())
        at_max = np.flatnonzero(self.fresh_counts == self.fresh_counts.max())
        self.probe_users = [self.users[i] for i in at_max]
        self.probe = self.protocol.client().encode_batch(
            rng.integers(0, self.domain, len(at_max)), rng
        )
        self.encode_seed = [seed, 3, 1]
        self.digest.users(self.users)
        self.digest.array(self.schedule)
        self.sent_digest: Optional[str] = None

    @property
    def window_batches(self) -> int:
        return self.size * (self.users_count // BATCH)

    def server_args(self, snapshot_dir: Path) -> List[str]:
        return [
            "--spec", self._spec_file("oue64", self.protocol),
            "--window", str(self.panes),
            "--lifetime-epsilon", repr(self.lifetime),
            "--snapshot-dir", str(snapshot_dir),
            "--checkpoint-every", str(AT_DRAIN_ONLY),
        ]

    def bind(self, port: int) -> None:
        self.sdk = self._client(port, memoize=True)
        self.plain = self._client(port)

    def reads(self) -> List[Callable[[], object]]:
        sdk = self.sdk
        return [
            lambda: sdk.estimate_info(window=self.panes),
            lambda: sdk.estimate_info(window=1),
            sdk.estimate_info,
            lambda: sdk.heavy_hitters(k=10, window=self.panes),
            sdk.server_metrics_text,
        ]

    def run_window(self) -> Window:
        encoder = self.sdk.encoder
        rng = np.random.default_rng(self.encode_seed)
        reads = self.reads()
        self.sent: List[List[object]] = []
        window = Window()
        for round_, values in enumerate(self.schedule):
            batches = []
            for lo in range(0, self.users_count, BATCH):
                users = self.users[lo:lo + BATCH]
                reports, fresh = encoder.encode_users(
                    values[lo:lo + BATCH], users, rng
                )
                window.submit(
                    self.sdk, reports, users, round=round_, fresh=fresh
                )
                batches.append(reports)
            self.sent.append(batches)
            window.read(reads)
            window.split()
        window.stop()
        self.served["all"] = self.sdk.estimate()
        self.memo = (encoder.hits, encoder.misses)
        return window

    def _sent_hexdigest(self) -> str:
        digest = InputDigest(self.name, self.seed)
        for batches in self.sent:
            for reports in batches:
                digest.reports(reports)
        return digest.hexdigest()

    def _local_window(self):
        return absorbed(
            self.protocol,
            (r for batches in self.sent[-self.panes:] for r in batches),
        )

    def _spend_histogram(self) -> Dict[str, float]:
        fingerprint = self.sdk.fingerprint
        found = {}
        for line in self.sdk.server_metrics_text().splitlines():
            for part in ("count", "sum"):
                prefix = (
                    f"repro_user_budget_spent_epsilon_{part}"
                    f'{{campaign="{fingerprint}"}} '
                )
                if line.startswith(prefix):
                    found[part] = float(line[len(prefix):])
        return found

    def check(self) -> Dict[str, bool]:
        # The memoized reports are a function of the seed alone, so
        # every cycle must send the same bytes; the first cycle's
        # become part of the run's input hash.
        sent = self._sent_hexdigest()
        if self.sent_digest is None:
            self.sent_digest = sent
            self.digest.text(sent)
        served = self.sdk.estimate(window=self.panes)
        self.served["window"] = served
        counts = self.fresh_counts.astype(np.int64)
        spend = self._spend_histogram()
        checks = {
            "cycles_sent_identical_reports": sent == self.sent_digest,
            "window_estimate_equals_recomputed": same_estimate(
                served, self._local_window()
            ),
            "memo_misses_equal_distinct_values": (
                self.memo[1] == int(counts.sum())
            ),
            # One histogram observation per charged (user, batch), of
            # the user's cumulative spend: only fresh reports charged
            # gives count sum(s) and sum sum(s(s+1)/2).
            "charges_equal_fresh_reports": (
                spend.get("count") == float(counts.sum())
                and spend.get("sum")
                == float((counts * (counts + 1) // 2).sum())
            ),
        }
        refused: List[str] = []
        for lo in range(0, len(self.probe_users), BATCH):
            users = self.probe_users[lo:lo + BATCH]
            try:
                self.plain.submit_reports(
                    self.probe[lo:lo + BATCH], users, round=len(self.sent)
                )
            except OverBudgetError as exc:
                refused += exc.rejected_users
        checks["users_at_max_spend_refused"] = (
            sorted(refused) == sorted(self.probe_users)
        )
        return checks

    def first_estimate(self, port: int) -> None:
        self.recovered = self._client(port)
        self.restarted = self.recovered.estimate()

    def check_recovered(self) -> Dict[str, bool]:
        return {
            "all_time_estimate_equal_after_restart": same_estimate(
                self.restarted, self.served["all"]
            ),
            "window_estimate_equal_after_restart": same_estimate(
                self.recovered.estimate(window=self.panes),
                self._local_window(),
            ),
        }


WORKLOADS = {cls.name: cls for cls in (Ingest, Durable, Stream)}

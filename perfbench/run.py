"""The repository's benchmark: one LDP ingestion server, one generator.

    python3 perfbench/run.py --workload {ingest,durable,stream} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the server runs from its ``src/``.  A
run is several *cycles* of one workload, each against a fresh server
process: launch, timed window, correctness checks, reads, SIGTERM
drain, restart, checks again.  ``--seconds`` fixes the work in the
windows (all cycles together last about that long on a 2-CPU machine).

``--trace 0`` measures the end-to-end metrics with nothing traced:
medians over cycles, latency percentiles over the pooled samples,
every time rescaled to a nominal host speed by a fixed probe timed
throughout the run (``README.md``, "Host speed").
``--trace 1`` alternates untraced cycles (the base of the tracing
overhead ratio) with cycles whose server and generator record spans
around the public entry points of every layer, and reports the
per-layer metrics.  A failed check prints ``"correct": false`` and
exits 1.  The last line of standard output is the result object; the
full report (environment, tail percentiles and their sample counts,
per-cycle values, checks, per-layer bases) goes to
``perfbench/.runs/`` and a summary to standard error.  ``README.md``
says why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import layers  # noqa: E402
from spans import Tracer, install_client_spans, load  # noqa: E402
from workloads import WORKLOADS, ServerProcess, host_probe  # noqa: E402

CYCLES = 9
TRACE_PAIRS = 2  # untraced + traced cycles in a --trace 1 run
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
# host_probe()'s time on the 2-CPU machine the benchmark was tuned on
# when nothing else slowed it: timings are rescaled to this host speed.
NOMINAL_PROBE_S = 3.0e-4
# Dashboard read rounds per segment after the window (ingest, durable).
READ_ROUNDS_PER_SEGMENT = 3


class Fleet:
    """Every server process one run starts; stops those still running."""

    def __init__(self, run_dir: Path) -> None:
        self.run_dir = run_dir
        self.processes = []

    def launch(self, name, args, spans=None) -> ServerProcess:
        process = ServerProcess(self.run_dir, name, args, spans)
        self.processes.append(process)
        return process

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, *exc) -> None:
        for process in self.processes:
            process.kill()


def tail(samples):
    """Nearest-rank value at the highest of TAIL_PERCENTILES that has
    at least TAIL_BEYOND samples above it: (value, percentile, beyond)."""
    ordered = sorted(samples)
    n = len(ordered)
    for percentile in TAIL_PERCENTILES:
        rank = math.ceil(percentile / 100.0 * n)
        if n - rank >= TAIL_BEYOND:
            return ordered[rank - 1], percentile, n - rank
    return ordered[-1], 100.0, 0


def host_factor(probes, nominal: bool = True) -> float:
    """NOMINAL_PROBE_S over the mean time of the host probes taken just
    before and after a measurement (every CPU's): the factor that
    rescales the measurement to the nominal host speed (1 when not
    ``nominal``)."""
    if not nominal:
        return 1.0
    times = [t for probe in probes for t in probe]
    return NOMINAL_PROBE_S / statistics.fmean(times)


def cycle_probes(cycle) -> list:
    """Every host probe a cycle took."""
    return [
        probe
        for points in (
            [s.probes for s in cycle["window"].segments]
            + list(cycle["probes"].values())
        )
        for probe in points
    ]


def median_by_kind(samples, kinds) -> float:
    """Mean of the medians of each kind of request (campaign of a batch,
    endpoint of a read): the pooled median of a mix of kinds with
    different costs would fall in a gap between them."""
    by_kind: dict = {}
    for seconds, kind in zip(samples, kinds):
        by_kind.setdefault(kind, []).append(seconds)
    return statistics.fmean(statistics.median(v) for v in by_kind.values())


def cycle(workload, fleet: Fleet, cycle_dir: Path, traced: bool) -> dict:
    """Launch, timed window, checks, reads, drain, restart, re-check."""
    cycle_dir.mkdir()
    snapshots = cycle_dir / "snapshots"

    def spans(name):
        return cycle_dir / f"{name}.spans.json" if traced else None

    probes = {"setup": [host_probe()]}
    server = fleet.launch(
        f"{cycle_dir.name}-main", workload.server_args(snapshots),
        spans("main"),
    )
    setup_s = server.wait_healthy()
    probes["setup"].append(host_probe())
    workload.connect(server.port)
    window = workload.run_window()
    checks = workload.check()
    for i in range(workload.read_rounds):
        if i % READ_ROUNDS_PER_SEGMENT == 0:
            window.split()
        window.read(workload.reads())
    window.end_segment()
    rss_mib = server.peak_rss_mib()
    probes["drain"] = [host_probe()]
    drain_s = server.drain()
    probes["drain"].append(host_probe())
    probes["recover"] = [probes["drain"][-1]]
    restart = fleet.launch(
        f"{cycle_dir.name}-restart", workload.server_args(snapshots),
        spans("restart"),
    )
    restart.wait_port()
    workload.first_estimate(restart.port)
    recover_s = time.perf_counter() - restart.started
    probes["recover"].append(host_probe())
    checks.update(workload.check_recovered())
    if traced:
        restart.drain()  # the launcher writes its spans on the way out
    else:
        restart.kill()
    return {
        "window": window,
        "checks": checks,
        "retries": workload.retries(),
        "memo": getattr(workload, "memo", (0, 0)),
        "setup_s": setup_s,
        "rate": rate(window.segments, nominal=True),
        "rss_mib": rss_mib,
        "drain_s": drain_s,
        "recover_s": recover_s,
        "probes": probes,
        "spans": {name: spans(name) for name in ("main", "restart")},
    }


def merge_checks(cycles) -> dict:
    """A check passes when it passed in every cycle."""
    merged: dict = {}
    for result in cycles:
        for name, passed in result["checks"].items():
            merged[name] = merged.get(name, True) and bool(passed)
    return merged


def per_cycle(cycles) -> list:
    return [
        {
            "batches": len(c["window"].batch_s),
            "reads": len(c["window"].read_s),
            "accepted_reports": c["window"].accepted,
            "elapsed_s": c["window"].elapsed,
            "reports_per_s": c["rate"],
            "setup_s": c["setup_s"],
            "drain_s": c["drain_s"],
            "recover_s": c["recover_s"],
            "probes": c["probes"],
            "server_rss_mib": c["rss_mib"],
            "batch_ms": [round(1e3 * t, 4) for t in c["window"].batch_s],
            "read_ms": [round(1e3 * t, 4) for t in c["window"].read_s],
            "segments": [
                [round(s.seconds, 6), s.reports, len(s.batch_s),
                 len(s.read_s), s.probes]
                for s in c["window"].segments
            ],
        }
        for c in cycles
    ]


def rate(segments, nominal: bool) -> float:
    """Accepted reports per second over the segments with batches."""
    writes = [s for s in segments if s.batch_s]
    return sum(s.reports for s in writes) / sum(
        s.seconds * host_factor(s.probes, nominal) for s in writes
    )


def end_to_end(cycles, nominal: bool):
    """The end-to-end metrics, each time rescaled to the nominal host
    speed by the probes around it when ``nominal``, and the sample
    counts behind the tails."""
    segments = [s for c in cycles for s in c["window"].segments]
    batch_s, batch_kind, read_s, read_kind = [], [], [], []
    for s in segments:
        factor = host_factor(s.probes, nominal)
        batch_s += [t * factor for t in s.batch_s]
        batch_kind += s.batch_campaign
        read_s += [t * factor for t in s.read_s]
        read_kind += s.read_kind
    batch_tail, batch_pct, batch_beyond = tail(batch_s)
    read_tail, read_pct, read_beyond = tail(read_s)

    def event(key):
        return statistics.median(
            c[f"{key}_s"] * host_factor(c["probes"][key], nominal)
            for c in cycles
        )

    metrics = {
        "setup_s": (event("setup"), "s"),
        "reports_per_s": (rate(segments, nominal), "reports/s"),
        "batch_ms_p50": (1e3 * median_by_kind(batch_s, batch_kind), "ms"),
        "batch_ms_tail": (1e3 * batch_tail, "ms"),
        "read_ms_p50": (1e3 * median_by_kind(read_s, read_kind), "ms"),
        "read_ms_tail": (1e3 * read_tail, "ms"),
        "drain_s": (event("drain"), "s"),
        "recover_s": (event("recover"), "s"),
        "server_rss_mb": (
            statistics.median(c["rss_mib"] for c in cycles), "MiB"
        ),
    }
    tails = {
        "batch_ms_tail": {
            "percentile": batch_pct, "samples_beyond": batch_beyond,
            "samples": len(batch_s),
        },
        "read_ms_tail": {
            "percentile": read_pct, "samples_beyond": read_beyond,
            "samples": len(read_s),
        },
    }
    return metrics, tails


def measure_end_to_end(workload, fleet, run_dir):
    cycles = [
        cycle(workload, fleet, run_dir / f"c{i}", traced=False)
        for i in range(CYCLES)
    ]
    metrics, tails = end_to_end(cycles, nominal=True)
    raw, _ = end_to_end(cycles, nominal=False)
    report = {
        "per_cycle": per_cycle(cycles),
        "tails": tails,
        "as_measured": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in raw.items()
        },
    }
    return cycles, metrics, report


def measure_layers(workload, fleet, run_dir):
    tracer = Tracer()
    install_client_spans(tracer)
    cycles, traced = [], []
    for i in range(2 * TRACE_PAIRS):
        tracer.enabled = i % 2 == 1
        tracer.spans = []
        result = cycle(workload, fleet, run_dir / f"c{i}", tracer.enabled)
        cycles.append(result)
        if tracer.enabled:
            traced.append((result, tracer.spans))
    base_rate = statistics.fmean(c["rate"] for c in cycles[0::2])
    found = [
        layers.per_layer(
            client_spans,
            load(str(result["spans"]["main"])),
            load(str(result["spans"]["restart"])),
            workload.window_batches,
            result["memo"],
            result["retries"],
            result["rate"],
            base_rate,
        )
        for result, client_spans in traced
    ]
    units = dict(layers.METRICS)
    factor = host_factor(
        [probe for result, _ in traced for probe in cycle_probes(result)]
    )
    metrics = {
        name: (
            statistics.fmean(f.values[name] for f in found)
            * (factor if unit == "ms" else 1.0),
            unit,
        )
        for name, unit in units.items()
    }
    report = {
        "per_cycle": per_cycle(cycles),
        "host_factor": factor,
        "traced_cycles": list(range(1, 2 * TRACE_PAIRS, 2)),
        "layers_per_traced_cycle": [f.detail for f in found],
    }
    return cycles, metrics, report


def environment(seconds: int) -> dict:
    return {
        "os_cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "run_seconds": seconds,
        "network": "client and server on one host; traffic crosses the "
        "loopback interface (127.0.0.1), not a real link",
        "topology": "one generator thread in a closed loop, one server "
        "process in its default topology (inline absorb, no --shards)",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    # Exit through the Fleet's cleanup when terminated, so no server
    # process outlives the run.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    runs = HERE / ".runs"
    run_dir = runs / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](
        args.seed, args.seconds / CYCLES, run_dir
    )
    measure = measure_layers if args.trace else measure_end_to_end
    with Fleet(run_dir) as fleet:
        cycles, metrics, report = measure(workload, fleet, run_dir)
    checks = merge_checks(cycles)
    correct = bool(checks) and all(checks.values())
    attempted = sum(
        len(c["window"].batch_s) + len(c["window"].read_s) for c in cycles
    )
    failed = sum(c["retries"] for c in cycles)
    metrics_out = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "input_hash": workload.digest.hexdigest(),
        "correct": correct,
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "metrics": metrics_out,
        **report,
        "environment": environment(args.seconds),
    }
    report_path = runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=2) + "\n")
    if correct:
        shutil.rmtree(run_dir, ignore_errors=True)
    for name, passed in checks.items():
        print(f"check {name}: {'ok' if passed else 'FAILED'}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.4f} {unit}", file=sys.stderr)
    print(f"input hash {report['input_hash']}", file=sys.stderr)
    print(f"report: {report_path}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics_out,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""``python -m repro.service`` — serve one or many campaigns.

Single-campaign (v1 compatible — the spec becomes the *default*
campaign, so campaign-unaware clients keep working):

    python -m repro.service --spec spec.json --port 8321 \
        --snapshot-dir ./snapshots --checkpoint-every 100

Multi-campaign (shell globs expand to one campaign per file):

    python -m repro.service --campaigns specs/*.json \
        --lifetime-epsilon 2.0 --snapshot-dir ./snapshots

Each spec file is ``ProtocolSpec.to_dict()`` JSON, e.g.:

    {"spec_version": "1.0", "kind": "mean", "epsilon": 1.0,
     "mechanism": "hm"}

``--spec`` and ``--campaigns`` combine: the former is the default
campaign, the latter are addressable by fingerprint only.  Further
campaigns can always be registered at runtime via ``POST /campaigns``.
With ``--snapshot-dir`` the server checkpoints periodically and
resumes *all* campaigns plus the cross-campaign ledger from the latest
manifest on restart.

Observability: ``GET /metrics`` serves Prometheus text exposition;
``--log-format json`` switches the process to one-JSON-object-per-line
structured logs.  **SIGTERM drains gracefully**: new batches get 503,
a final checkpoint lands (bitwise-equal to what an uninterrupted run
would have written), and the process exits 0.
SIGINT (Ctrl-C) keeps its historical behavior: checkpoint and stop.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys

from repro.obs.lifecycle import SignalDrain
from repro.obs.logging import add_logging_arguments, configure_logging
from repro.service.server import IngestionServer
from repro.service.store import SnapshotStore
from repro.stream.windows import WindowConfig


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Networked LDP ingestion server (multi-campaign).",
    )
    parser.add_argument(
        "--spec",
        default=None,
        help="path to the DEFAULT campaign's ProtocolSpec.to_dict() "
        "JSON file (v1 clients route here)",
    )
    parser.add_argument(
        "--campaigns",
        nargs="+",
        default=[],
        metavar="SPEC_JSON",
        help="additional campaign spec files (e.g. specs/*.json); each "
        "is registered under its fingerprint",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8321)
    parser.add_argument(
        "--lifetime-epsilon",
        type=float,
        default=None,
        help="per-user GLOBAL budget cap shared across all campaigns "
        "(default: the default campaign's epsilon, else the max over "
        "--campaigns)",
    )
    parser.add_argument(
        "--snapshot-dir",
        default=None,
        help="directory for durable checkpoints (enables resume)",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=100,
        help="snapshot after every N accepted batches "
        "(needs --snapshot-dir)",
    )
    parser.add_argument(
        "--window",
        type=int,
        default=None,
        metavar="PANES",
        help="make every campaign windowed with a ring of PANES "
        "per-round pane accumulators; enables "
        "GET /estimate?window=... and GET /heavy-hitters",
    )
    parser.add_argument(
        "--pane-seconds",
        type=float,
        default=None,
        metavar="S",
        help="wall-clock seconds one pane (round) represents, so "
        "?window=5m style duration queries resolve to pane counts "
        "(needs --window)",
    )
    parser.add_argument(
        "--decay",
        type=float,
        default=None,
        metavar="GAMMA",
        help="exponential decay per pane of age, in (0, 1]; the "
        "default estimate becomes the decayed view "
        "(needs --window)",
    )
    add_logging_arguments(parser)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.spec is None and not args.campaigns:
        build_parser().error(
            "at least one of --spec / --campaigns is required"
        )
    configure_logging(args.log_format, args.log_level)

    def _load(path):
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)

    if args.window is None and (
        args.pane_seconds is not None or args.decay is not None
    ):
        build_parser().error("--pane-seconds/--decay require --window")
    window = (
        WindowConfig(
            panes=args.window,
            pane_seconds=args.pane_seconds,
            decay=args.decay,
        )
        if args.window is not None
        else None
    )

    default_spec = _load(args.spec) if args.spec is not None else None
    campaign_specs = [_load(path) for path in args.campaigns]
    store = (
        SnapshotStore(args.snapshot_dir)
        if args.snapshot_dir is not None
        else None
    )
    server = IngestionServer(
        default_spec,
        lifetime_epsilon=args.lifetime_epsilon,
        store=store,
        checkpoint_every=(
            args.checkpoint_every if store is not None else None
        ),
        host=args.host,
        port=args.port,
        campaigns=campaign_specs,
        window=window,
    )
    drained = False

    async def _serve() -> None:
        nonlocal drained
        await server.start()
        # SIGTERM = graceful drain: 503 new batches, final checkpoint,
        # exit 0.  SIGINT stays a KeyboardInterrupt
        # (handled below) for historical Ctrl-C behavior.  Installed
        # before the banner: once the banner is readable the process
        # must already be drainable.
        sigterm = SignalDrain((signal.SIGTERM,)).install()
        default = server.registry.default
        headline = (
            f"{default.spec.kind!r} default campaign"
            if default is not None
            else f"{len(server.registry)} campaigns, no default"
        )
        window_note = (
            f", window: {server.window.panes} panes"
            + (
                f" x {server.window.pane_seconds:g}s"
                if server.window.pane_seconds is not None
                else ""
            )
            + (
                f" decay {server.window.decay:g}"
                if server.window.decay is not None
                else ""
            )
            if server.window is not None
            else ""
        )
        print(
            f"repro.service: {headline} on "
            f"http://{server.host}:{server.port} "
            f"(lifetime eps {server.ledger.lifetime_epsilon:g}, "
            f"checkpoints: "
            f"{store.directory if store else 'disabled'}"
            f"{window_note})",
            flush=True,
        )
        for campaign in server.registry:
            print(
                f"repro.service:   campaign {campaign.fingerprint[:12]}... "
                f"kind={campaign.spec.kind} eps={campaign.spec.epsilon:g} "
                f"state={campaign.state.value}"
                f"{' [default]' if campaign.default else ''}",
                flush=True,
            )
        serve_task = asyncio.ensure_future(server.serve_forever())
        drain_task = asyncio.ensure_future(sigterm.wait())
        try:
            done, _ = await asyncio.wait(
                {serve_task, drain_task},
                return_when=asyncio.FIRST_COMPLETED,
            )
            if serve_task in done and serve_task.exception() is not None:
                raise serve_task.exception()
            if drain_task in done:
                print(
                    "repro.service: draining (SIGTERM): refusing new "
                    "batches",
                    flush=True,
                )
                result = server.drain()
                if result.checkpoint_seq is not None:
                    print(
                        f"repro.service: final checkpoint "
                        f"{result.checkpoint_seq}",
                        flush=True,
                    )
                print(
                    f"repro.service: drained "
                    f"({result.batches_accepted} batches accepted, "
                    f"{result.seconds:.3f}s)",
                    flush=True,
                )
                drained = True
        finally:
            sigterm.uninstall()
            for task in (serve_task, drain_task):
                if not task.done():
                    task.cancel()
                    try:
                        await task
                    except asyncio.CancelledError:
                        pass
            await server.aclose()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        if store is not None:
            seq = server.checkpoint_now()
            print(f"repro.service: final checkpoint {seq}", flush=True)
        print("repro.service: stopped", flush=True)
        return 0
    if drained:
        print("repro.service: stopped", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Live terminal dashboard over a streaming LDP deployment.

Boots one windowed ingestion server, points a memoized reporting fleet
at it, and renders a refreshing terminal dashboard from the server's
own query surface — exactly what an operator would poll:

* ``GET /estimate?window=...``  sliding-window share estimates,
* ``GET /heavy-hitters``        live top-k with churn vs last round,
* ``GET /metrics``              pane/window gauges from the scrape.

The fleet re-reports every round; most users keep yesterday's value,
so the memoizing SDK replays their cached report and the server
charges them **zero** additional epsilon — watch the ``users charged``
line stay put while panes keep filling.  Every few rounds the
population's preferences shift, the heavy-hitter tracker reports the
churn, and the sliding window forgets the old regime while the
all-time estimate keeps averaging over everything.

Run:  PYTHONPATH=src python examples/live_dashboard.py
      PYTHONPATH=src python examples/live_dashboard.py --once   # 1 frame
"""

import argparse
import sys
import time

import numpy as np

from repro.protocol import Protocol
from repro.service import IngestionServer, ServiceClient

DOMAIN = 8
EPSILON = 4.0
N_USERS = 2_000
PANES = 4
TOP_K = 3
BAR = 30  # bar width in characters


def _bar(share, width=BAR):
    filled = max(0, min(width, round(share * width * 4)))
    return "#" * filled + "." * (width - filled)


def _frame(client, registry_text, round_, charged):
    lines = [
        f"repro.stream dashboard — round {round_}  "
        f"(window {PANES} panes, eps {EPSILON:g}/report)",
        "",
    ]
    info = client.estimate_info(window=PANES)
    estimate = np.asarray(info["estimate"])
    hot = client.heavy_hitters(k=TOP_K, window=PANES)
    entered, exited = set(hot["entered"]), set(hot["exited"])
    for value, share in enumerate(estimate):
        marks = ""
        if value in hot["indices"]:
            marks += "  <- top-{}".format(TOP_K)
        if value in entered:
            marks += " (entered)"
        if value in exited:
            marks += " (exited)"
        lines.append(
            f"  value {value}:  {_bar(float(share))}  "
            f"{float(share):+.4f}{marks}"
        )
    lines.append("")
    lines.append(
        f"  window reports: {info['reports']}   "
        f"all-time reports: {client.estimate_info()['reports']}   "
        f"users charged: {charged}"
    )
    pane_lines = [
        line
        for line in registry_text.splitlines()
        if line.startswith("repro_campaign_window_")
    ]
    lines.extend(f"  {line}" for line in pane_lines)
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--rounds", type=int, default=12, help="rounds to simulate"
    )
    parser.add_argument(
        "--interval",
        type=float,
        default=0.8,
        help="seconds between dashboard refreshes",
    )
    parser.add_argument(
        "--once",
        action="store_true",
        help="render a single frame after one round and exit "
        "(no screen clearing; for CI and piping)",
    )
    args = parser.parse_args(argv)
    rounds = 1 if args.once else args.rounds

    protocol = Protocol.frequency(EPSILON, domain=DOMAIN, oracle="oue")
    server = IngestionServer(
        protocol,
        lifetime_epsilon=EPSILON * 8,
        window={"panes": PANES},
    ).run_in_thread()
    reporter = ServiceClient("127.0.0.1", server.port, memoize=True)
    observer = ServiceClient("127.0.0.1", server.port)
    users = [f"user-{i}" for i in range(N_USERS)]

    rng = np.random.default_rng(42)
    values = rng.integers(0, DOMAIN, N_USERS)
    try:
        for round_ in range(rounds):
            # Regime shift every 4 rounds: a new pair of values gets
            # hot; only the users who actually changed get re-charged.
            if round_ % 4 == 0 and round_ > 0:
                movers = rng.random(N_USERS) < 0.3
                hot_pair = (round_ // 4 * 2) % DOMAIN
                values = values.copy()
                values[movers] = rng.choice(
                    [hot_pair, hot_pair + 1], movers.sum()
                )
            reporter.submit(
                values, users=users, rng=1000 + round_, round=round_
            )
            frame = _frame(
                observer,
                observer.server_metrics_text(),
                round_,
                observer.healthz()["users_charged"],
            )
            if args.once:
                print(frame)
            else:
                # ANSI clear + home keeps the dashboard in place.
                sys.stdout.write("\x1b[2J\x1b[H" + frame + "\n")
                sys.stdout.flush()
                time.sleep(args.interval)
    finally:
        server.stop()
    if not args.once:
        print("\ndone: {} rounds streamed".format(rounds))
    return 0


if __name__ == "__main__":
    sys.exit(main())

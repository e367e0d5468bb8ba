"""Self-test of the benchmark itself (not of the service).

    python3 perfbench/selftest.py

Run from the root of a checkout; takes about two minutes.  Checks that

* a tiny run of every workload, untraced and traced, exits 0 and
  prints every metric ``BENCHMARK.json`` names, with its unit;
* a deliberately corrupted reference makes each workload's
  correctness check fail, and makes ``run.py`` print
  ``"correct": false`` and exit 1;
* the same seed twice gives the same input hash, another seed another.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "1"


def expect(condition, detail) -> None:
    if not condition:
        raise AssertionError(detail)


def result_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def bench(workload: str, seed: int, trace: int) -> dict:
    """Run ``run.py`` the way its command line is documented; its report."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    expect(done.returncode == 0, done.stderr[-3000:])
    line = result_line(done.stdout)
    expect(set(line) == {"correct", "attempted", "failed", "metrics"}, line)
    expect(line["correct"] is True, line)
    expect(
        isinstance(line["attempted"], int) and line["attempted"] >= 1, line
    )
    expect(isinstance(line["failed"], int), line)
    report = HERE / ".runs" / f"{workload}-seed{seed}-trace{trace}.json"
    return {"line": line, "report": json.loads(report.read_text())}


def check_metrics_named_in_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    hashes = {}
    for workload in names:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            run = bench(workload, seed=7, trace=trace)
            printed = run["line"]["metrics"]
            for metric in spec[key]:
                expect(metric["name"] in printed, (workload, metric["name"]))
                got = printed[metric["name"]]
                expect(got["unit"] == metric["unit"], (workload, metric, got))
                expect(isinstance(got["value"], (int, float)), got)
                if key == "end_to_end":
                    expect(got["value"] > 0, (workload, metric["name"], got))
            expect(len(printed) == len(spec[key]), (workload, sorted(printed)))
            hashes.setdefault(workload, set()).add(run["report"]["input_hash"])
        print(f"ok  {workload}: every metric printed with its unit")
    for workload, seen in hashes.items():
        expect(len(seen) == 1, (workload, seen))
        other = bench(workload, seed=8, trace=0)["report"]["input_hash"]
        expect(other not in seen, workload)
        print(f"ok  {workload}: same seed, same input hash; new seed, new hash")


def flip_bit(estimate):
    corrupted = np.array(estimate, copy=True)
    corrupted.view(np.uint8).flat[0] ^= 1
    return corrupted


def corrupt(workload) -> None:
    """Make the workload's local reference wrong by one bit."""
    if workload.name == "ingest":
        workload.reference["hm"] = flip_bit(workload.reference["hm"])
    elif workload.name == "durable":
        workload.reference = flip_bit(workload.reference)
    else:
        honest = workload._local_window
        workload._local_window = lambda: flip_bit(honest())


def check_corrupted_reference_fails() -> None:
    sys.path.insert(0, str(HERE))
    import run

    runs = HERE / ".runs"
    runs.mkdir(exist_ok=True)
    for name, cls in list(run.WORKLOADS.items()):
        with tempfile.TemporaryDirectory(dir=runs) as tmp:
            workload = cls(7, 0.2, Path(tmp))
            corrupt(workload)
            with run.Fleet(Path(tmp)) as fleet:
                checks = run.cycle(workload, fleet, Path(tmp) / "c", False)
            failed = sorted(k for k, ok in checks["checks"].items() if not ok)
            expect(failed, (name, checks["checks"]))

        class Corrupted(cls):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                corrupt(self)

        run.WORKLOADS[name] = Corrupted
        try:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = run.main(["--workload", name, "--seed", "7",
                                 "--seconds", SECONDS])
        finally:
            run.WORKLOADS[name] = cls
        expect(code == 1, (name, code))
        expect(result_line(out.getvalue())["correct"] is False, name)
        print(f"ok  {name}: corrupted reference fails {failed}")


def main() -> int:
    check_metrics_named_in_benchmark_json()
    check_corrupted_reference_fails()
    # Failed runs keep their scratch directories for inspection; these
    # were failed on purpose.
    for leftover in (HERE / ".runs").glob("*-7-*"):
        shutil.rmtree(leftover, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

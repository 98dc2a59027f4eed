"""Benchmark of bepo's CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. One run:

1. writes the workload's config document for the seed (workloads.py);
2. runs rounds, each the whole experiment in a fresh `bepo` process with
   `--threads 1` and one BLAS thread, until S seconds have passed (at least
   one round), and checks every round's CSV output;
3. prints one JSON line: with --trace 0 the mean over the rounds of wall_s
   and setup_s and the median of peak_rss_mb; with --trace 1 the per-layer
   metrics of traced rounds (tracing.py).

The mean, because the speed of a shared host drifts over seconds and
minutes: over ten seeds it varied less from run to run than the minimum or
the median of the rounds (perfbench/README.md, End-to-end metrics).

`attempted` counts the output rows the rounds should produce and `failed`
the rows a round did not produce; `correct` is false when a produced row
fails its check, when a traced solve misses its residual target, or when no
round completed. The process exits with 1 when no round completed and with
2, printing no result, when there is no program to run.
Run outputs go to runs/perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from reference import load_reference  # noqa: E402
from tracing import coverage_gap, layer_metrics, median_metrics, residual_violations  # noqa: E402
from workloads import WORKLOADS, check_outputs, read_rows  # noqa: E402

ROUND_TIMEOUT_S = 120.0
# One BLAS thread: Krylov iteration counts repeat only at a fixed thread
# count. A fixed hash seed: it sets when the cyclic garbage collector frees
# spent factorizations, and with it the peak RSS of refine-ladder.
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def run_probe(workdir: Path, cli_args: list[str], trace: bool) -> dict:
    """Start one probe process, wait for it, return its result and peak RSS."""
    result = workdir / "result.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "probe.py"), "--result", str(result)]
    if trace:
        cmd += ["--trace", str(workdir / "trace.json")]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(CHILD_ENV)
    with open(workdir / "stdout.txt", "wb") as out, open(workdir / "stderr.txt", "wb") as err:
        launch = time.monotonic()
        proc = subprocess.Popen(
            cmd + ["--launch", repr(launch), "--"] + cli_args,
            stdout=out, stderr=err, env=env, cwd=ROOT,
        )
        deadline = launch + ROUND_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    data = json.loads(result.read_text()) if result.exists() else {}
    data["returncode"] = proc.returncode
    data["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # Linux reports KiB
    return data


def tail(path: Path, lines=5) -> str:
    return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bepo benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bepo" / "cli.py").is_file():
        print(f"no bepo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    reference = load_reference()
    trace = bool(args.trace)

    workdir = ROOT / "runs" / "perfbench" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    config = workdir / "run.cfg"
    config.write_text(workload.document(args.seed))
    out = workdir / "out"
    cli_args = [workload.experiment, "--config", str(config), "--out", str(out), "--threads", "1"]

    walls, setups, rss, layers, failures = [], [], [], [], []
    attempted = failed = 0
    start = time.monotonic()
    while not attempted or time.monotonic() - start < args.seconds:
        shutil.rmtree(out, ignore_errors=True)
        probe = run_probe(workdir, cli_args, trace=trace)
        attempted += workload.rows_per_round
        csv_path = out / workload.csv_name
        if probe["returncode"] != 0 or "wall_s" not in probe or not csv_path.exists():
            failed += workload.rows_per_round
            print(f"round failed (exit {probe['returncode']}):\n" + tail(workdir / "stderr.txt"),
                  file=sys.stderr)
            continue
        rows = read_rows(csv_path)
        failed += max(0, workload.rows_per_round - len(rows))
        failures += check_outputs(workload, rows, reference)
        walls.append(probe["wall_s"])
        setups.append(probe["setup_s"])
        rss.append(probe["peak_rss_mb"])
        if trace:
            spans = json.loads((workdir / "trace.json").read_text())
            failures += residual_violations(spans["spans"])
            layers.append(layer_metrics(spans["spans"], spans["installed"]))
            gap = coverage_gap(spans["spans"], probe["wall_s"])
            print(f"traced round: wall_s={probe['wall_s']:.4f} self-time gap={gap:.2e} s",
                  file=sys.stderr)

    for failure in failures:
        print("check failed: " + failure, file=sys.stderr)
    if trace:
        metrics = median_metrics(layers) if layers else {}
    elif walls:
        metrics = {
            "wall_s": (statistics.mean(walls), "s"),
            "setup_s": (statistics.mean(setups), "s"),
            "peak_rss_mb": (statistics.median(rss), "MB"),
        }
    else:
        metrics = {}
    print(f"{workload.name}: {len(walls)} rounds, wall_s {walls}, setup_s {setups}",
          file=sys.stderr)
    print(json.dumps({
        "correct": bool(walls) and not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())

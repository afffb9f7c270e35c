"""xdesign benchmark: one workload per invocation, run from the root of a checkout.

    python3 perfbench/run.py --workload select-demo --seed 0 --seconds 15 --trace 0

The workload's inputs are generated from ``--seed`` into a scratch directory
under ``perfbench_out/``; a fresh worker process (``worker.py``) then runs the
workload as a closed loop with one caller for ``--seconds`` seconds after one
untimed warm-up operation, with ``XDESIGN_THREADS`` unset, and checks every
operation's output. Fresh probe processes measure the set-up cost
(``import xdesign`` plus loading the workload's config). The whole run ends
within ``DEADLINE_S`` seconds or fails.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(``wall_s``, ``setup_s``, ``peak_rss_mb``); with ``--trace 1`` it carries the
per-layer metrics of a traced run (see ``tracing.py``) and the spans are
written to ``perfbench_out/``. The lines before it give the sample count, the
error rate, the decision fingerprint and the machine, and the same record is
written to ``perfbench_out/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import SRC, WORKLOADS  # noqa: E402

OUT = "perfbench_out"
SETUP_PROBES = 5
DEADLINE_S = 170
PROBE_TIMEOUT_S = 30


def tail_percentile(n: int) -> str:
    """The highest of p50/p90/p99/p99.9 with at least 10 samples beyond it."""
    best = None
    for p in (50, 90, 99, 99.9):
        if n * (100 - p) / 100 >= 10:
            best = p
    return f"p{best}" if best is not None else "none (fewer than 20 samples)"


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("XDESIGN_THREADS", None)
    return env


def time_left(started: float) -> float:
    """Seconds left before ``DEADLINE_S``, at least one so that a timeout fires."""
    return max(DEADLINE_S - (perf_counter() - started), 1.0)


def setup_seconds(root: Path, workload, workdir: Path, started: float) -> list[float]:
    """Wall seconds for fresh processes that import xdesign and load the config."""
    code = (
        f"import sys; sys.path.insert(0, {SRC!r}); import xdesign; "
        + workload.SETUP.format(config=str(workdir / "config.json"))
    )
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=root, env=child_env(), check=True,
                       timeout=min(PROBE_TIMEOUT_S, time_left(started)), stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return times


def import_breakdown(root: Path, started: float) -> dict[str, float]:
    """``-X importtime`` of ``import xdesign``: scipy.stats cumulative, xdesign self (ms)."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", f"import sys; sys.path.insert(0, {SRC!r}); import xdesign"],
        cwd=root, env=child_env(), check=True, timeout=min(PROBE_TIMEOUT_S, time_left(started)),
        capture_output=True, text=True,
    )
    scipy_stats_us = xdesign_self_us = 0
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)$", line)
        if not m:
            continue
        self_us, cumulative_us, module = int(m[1]), int(m[2]), m[3]
        if module == "scipy.stats":
            scipy_stats_us = cumulative_us
        if module == "xdesign" or module.startswith("xdesign."):
            xdesign_self_us += self_us
    return {"setup.scipy_stats_ms": scipy_stats_us / 1e3, "setup.xdesign_self_ms": xdesign_self_us / 1e3}


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = perf_counter()

    root = Path.cwd()
    if not (root / SRC / "xdesign" / "__init__.py").is_file() or not (root / "configs").is_dir():
        print(f"error: {root} is not an xdesign checkout (no {SRC}/xdesign or configs/)", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = args.seed % 2**32
    out_dir = root / OUT
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        load_before = os.getloadavg()
        workload.make_inputs(root, workdir, seed)
        cmd = [
            sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--workdir", str(workdir), "--seed", str(seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if args.trace:
            cmd += ["--spans", str(out_dir / f"{stem}-spans.csv")]
        proc = subprocess.run(cmd, cwd=root, env=child_env(), capture_output=True, text=True,
                              timeout=time_left(started))
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr, end="")
            print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        if args.trace:
            setup = import_breakdown(root, started)
        else:
            setup_times = setup_seconds(root, workload, workdir, started)
        load_after = os.getloadavg()
    except (subprocess.TimeoutExpired, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    times = res["times"]
    if not times:
        print(f"error: every operation failed: {res['failures']}", file=sys.stderr)
        return 1
    wall = statistics.median(times)
    if args.trace:
        values = dict(res["layers"], **setup)
    else:
        values = {"wall_s": wall, "setup_s": statistics.median(setup_times), "peak_rss_mb": res["peak_rss_mb"]}
    # BENCHMARK.json names the metrics each mode reports, with their units.
    listed = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in listed["per_layer" if args.trace else "end_to_end"]
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 caller",
        "machine": machine(),
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "failures": res["failures"],
        "fingerprints": res["fingerprints"],
        "op_seconds": times,
        "metrics": metrics,
    }
    if args.trace:
        record["traced_op_seconds"] = res["traced_times"]
        record["notes"] = res["notes"]
    else:
        record["setup_seconds"] = setup_times
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    m = record["machine"]
    print(f"workload {args.workload} seed {args.seed}: closed loop, 1 caller, {args.seconds:g} s")
    print(f"machine nproc={m['nproc']} python={m['python']} numpy={m['numpy']} scipy={m['scipy']} "
          f"loadavg before={load_before[0]:.2f} after={load_after[0]:.2f}")
    print(f"wall_s {wall:.4f} s (median of {len(times)} untraced ops; tail percentile: {tail_percentile(len(times))})")
    print(f"error_rate {res['failed'] / res['attempted']:.4f} ({res['failed']}/{res['attempted']} ops failed)")
    for index, problems in res["failures"].items():
        print(f"  op {index} failed: {'; '.join(problems)}")
    for fp, n in res["fingerprints"].items():
        print(f"fingerprint ({n} ops): {fp}")
    for name, note in record.get("notes", {}).items():
        print(f"{name} {note}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

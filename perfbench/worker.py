"""One workload in a fresh process: a closed loop of operations, timed in process.

Run by ``perfbench/run.py``; prints one JSON object as its last stdout line.
One caller issues each operation only after the previous one ended. One
untimed warm-up operation runs first; then operations are timed for
``--seconds`` seconds, and a new one starts only while the median so far says
it will end inside that window. With ``--trace 1`` the first half of the
window runs untraced and the second half with every layer wrapped (see
``tracing.py``), so the two medians give the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def closed_loop(workload, state: dict, seconds: float, tracer=None) -> dict:
    """Run operations back to back for ``seconds``; at least one is attempted.

    The loop stops before an operation that, at the median time so far, would
    end after the window, so a run does not overrun by up to one operation.
    """
    times: list[float] = []
    failures: dict[int, list[str]] = {}
    fingerprints: dict[str, int] = {}
    start = perf_counter()
    while True:
        index = state["op_index"] = state.get("op_index", -1) + 1
        if tracer is not None:
            tracer.begin_op()
        t0 = perf_counter()
        try:
            result = workload.op(state)
            times.append(perf_counter() - t0)
            problems = workload.check(state, result)
            fp = workload.fingerprint(result)
            fingerprints[fp] = fingerprints.get(fp, 0) + 1
        except Exception:
            problems = ["exception: " + traceback.format_exc().strip().splitlines()[-1]]
        if problems:
            failures[index] = problems
        # Free this result before the next operation, so that peak RSS is that
        # of one operation.
        result = None
        expected = statistics.median(times) if times else 0.0
        if perf_counter() - start + expected > seconds:
            break
    return {"times": times, "failures": failures, "fingerprints": fingerprints}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None, help="CSV file for the traced spans")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    from workloads import SRC, WORKLOADS

    sys.path.insert(0, str(ROOT / SRC))
    import xdesign  # noqa: F401  (import cost is setup_s, measured separately)

    workload = WORKLOADS[args.workload]
    state = workload.prepare(args.workdir, args.seed)

    # Warm-up: first-call costs (lazy imports, first allocations) stay out of
    # the timed operations; its output is checked like any other.
    phases = {"warm-up": closed_loop(workload, state, 0.0)}
    if args.trace:
        from tracing import Tracer, layer_metrics

        phases["untraced"] = closed_loop(workload, state, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            phases["traced"] = closed_loop(workload, state, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
    else:
        phases["untraced"] = closed_loop(workload, state, args.seconds)
    peak = _rss_mb()

    failures: dict[int, list[str]] = {}
    fingerprints: dict[str, int] = {}
    for phase in phases.values():
        failures.update(phase["failures"])
        for fp, n in phase["fingerprints"].items():
            fingerprints[fp] = fingerprints.get(fp, 0) + n
    if hasattr(workload, "late_check"):
        for index, problems in workload.late_check(state, ROOT).items():
            if problems:
                failures.setdefault(index, []).extend(problems)

    out = {
        "attempted": state["op_index"] + 1,
        "failed": len(failures),
        "failures": {str(k): v for k, v in sorted(failures.items())},
        "fingerprints": fingerprints,
        "times": phases["untraced"]["times"],
        "peak_rss_mb": peak,
    }
    if args.trace:
        traced_times = phases["traced"]["times"]
        values, notes = layer_metrics(tracer)
        untraced_median = statistics.median(phases["untraced"]["times"]) if phases["untraced"]["times"] else 0.0
        values["trace.overhead_frac"] = (
            statistics.median(traced_times) / untraced_median - 1.0 if traced_times and untraced_median else 0.0
        )
        out["traced_times"] = traced_times
        out["layers"] = values
        out["notes"] = notes
        if args.spans is not None:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

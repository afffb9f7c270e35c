"""The benchmark's two workloads: inputs from a seed, one operation, its check.

Each workload has:

- ``make_inputs(root, workdir, seed)``: writes the inputs it needs into
  ``workdir`` (run by the parent, outside any timed region);
- ``prepare(workdir, seed)``: loads them in the worker, after import;
- ``op(state)``: the timed operation, one call into xdesign;
- ``check(state, result)``: returns a list of failed correctness checks;
- ``fingerprint(result)``: the decision the operation reached;
- ``SETUP``: Python source a fresh process runs to load the workload's config.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

# The checkout's source tree; the worker puts it first on sys.path.
SRC = "src"


def _write_config(root: Path, workdir: Path, shipped: str, seed: int, sweep: bool) -> None:
    data = json.loads((root / "configs" / shipped).read_text(encoding="utf-8"))
    data["seed"] = seed
    data["out"] = str(workdir / "out")
    if sweep:
        data["sweep"]["seed"] = seed
    (workdir / "config.json").write_text(json.dumps(data, indent=2), encoding="utf-8")


class SelectDemo:
    """``cli.run_select`` on configs/select_demo.json with the seed swapped in."""

    name = "select-demo"
    SETUP = "from xdesign.config import load_config; load_config({config!r})"

    @staticmethod
    def make_inputs(root: Path, workdir: Path, seed: int) -> None:
        _write_config(root, workdir, "select_demo.json", seed, sweep=False)

    @staticmethod
    def prepare(workdir: Path, seed: int) -> dict:
        from xdesign.config import load_config

        config = load_config(workdir / "config.json")
        return {"config": config, "n_grid": len(config.build_grid()), "n_designs": len(config.build_catalog())}

    @staticmethod
    def op(state: dict) -> dict:
        from xdesign import cli

        return cli.run_select(state["config"])

    @staticmethod
    def check(state: dict, report: dict) -> list[str]:
        out = state["config"].out_dir
        problems = []
        on_disk = json.loads((out / "decision.json").read_text(encoding="utf-8"))
        if on_disk != json.loads(json.dumps(report)):
            problems.append("decision.json differs from the returned report")
        decision = report["decision"]
        q = decision["q"]
        if q[decision["selected"]] != min(q.values()):
            problems.append(f"selected {decision['selected']} does not have the minimum q")
        if decision["selected"] not in decision["shortlist"]:
            problems.append("selected design is not in the shortlist")
        with open(out / "surface.csv", encoding="utf-8", newline="") as handle:
            n_rows = sum(1 for _ in csv.reader(handle)) - 1
        expected = state["n_designs"] * state["n_grid"]
        if n_rows != expected:
            problems.append(f"surface.csv has {n_rows} rows, expected {expected}")
        if not (out / "ranking.svg").is_file():
            problems.append("ranking.svg missing")
        # Schema validation needs jsonschema, which the worker imports only
        # after the loop so that it does not count in peak RSS.
        state.setdefault("documents", []).append((state["op_index"], on_disk))
        return problems

    @staticmethod
    def late_check(state: dict, root: Path) -> dict[int, list[str]]:
        """Validate each operation's decision.json against the shipped schema."""
        import jsonschema

        schema_path = root / SRC / "xdesign" / "schemas" / "decision.schema.json"
        validator = jsonschema.Draft202012Validator(json.loads(schema_path.read_text(encoding="utf-8")))
        return {
            i: [f"decision.json: {e.message}" for e in validator.iter_errors(doc)]
            for i, doc in state.pop("documents", [])
        }

    @staticmethod
    def fingerprint(report: dict) -> str:
        d = report["decision"]
        q = ",".join(f"{name}={value:.6f}" for name, value in d["q"].items())
        return f"selected={d['selected']} shortlist={','.join(d['shortlist'])} q={q}"


# The sweep checks of the acceptance suite are statements about particular
# seeds, not properties every correct output has: across seeds 0-24, the sweep
# finds only two regimes at seeds 5, 7, 12, 15, 18, 21 and 22, and ends on user
# rather than switchback at seed 24. So those checks gate an operation only at
# the seeds where they are known to hold (0-2). At every seed an operation is
# checked for internal consistency, and its decision is reported in the
# fingerprint.
SWEEP_ACCEPTANCE_SEEDS = range(3)


class SweepDemo:
    """``cli.run_sweep`` on configs/sweep_demo.json with the seed swapped in."""

    name = "sweep-demo"
    SETUP = SelectDemo.SETUP

    @staticmethod
    def make_inputs(root: Path, workdir: Path, seed: int) -> None:
        _write_config(root, workdir, "sweep_demo.json", seed, sweep=True)

    @staticmethod
    def prepare(workdir: Path, seed: int) -> dict:
        from xdesign.config import load_config

        return {"config": load_config(workdir / "config.json"), "seed": seed}

    @staticmethod
    def op(state: dict) -> dict:
        from xdesign import cli

        return cli.run_sweep(state["config"])

    @staticmethod
    def check(state: dict, report: dict) -> list[str]:
        winners = report["winners"]
        problems = []
        if state["seed"] in SWEEP_ACCEPTANCE_SEEDS:
            if winners[0] != "user":
                problems.append(f"first winner is {winners[0]}, expected user")
            if winners[-1] != "switchback":
                problems.append(f"last winner is {winners[-1]}, expected switchback")
            if len(set(winners)) < 3:
                problems.append(f"only {len(set(winners))} distinct winners, expected at least 3")
        names = report["design_names"]
        argmin = [names[row.index(min(row))] for row in report["risks"]]
        if argmin != winners:
            problems.append("winners are not the per-gamma risk minimizers")
        out = state["config"].out_dir
        on_disk = json.loads((out / "sweep.json").read_text(encoding="utf-8"))
        if on_disk != json.loads(json.dumps(report)):
            problems.append("sweep.json differs from the returned report")
        for name in ("sweep.csv", "sweep.svg"):
            if not (out / name).is_file():
                problems.append(f"{name} missing")
        return problems

    @staticmethod
    def fingerprint(report: dict) -> str:
        winners = report["winners"]
        return f"winners={','.join(winners)} distinct={len(set(winners))}"


WORKLOADS = {w.name: w for w in (SelectDemo, SweepDemo)}

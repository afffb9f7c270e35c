"""Why no single design wins: sweep the interference mechanism and watch the winner flip.

The sweep moves one scalar intensity from "no interference" through graph
spillover, mixed spillover with shared budgets, and finally carryover-dominant
dynamics. The same catalog and planning weights are scored at every point; the
winner changes because each design protects a different channel at a different
power and cost. The setup is the shipped ``configs/sweep_demo.json``, the same
run as ``xdesign sweep --config configs/sweep_demo.json``.
"""

from pathlib import Path

from xdesign.config import load_config
from xdesign.diagnostics import regime_sweep
from xdesign.svg import write_line_chart

CONFIG = Path(__file__).parents[1] / "configs" / "sweep_demo.json"
OUT = Path(__file__).parent / "out"


def main() -> None:
    config = load_config(CONFIG)
    sweep = config.build_sweep()
    panel = config.build_panel()
    calib = config.build_calibration(panel)
    catalog = config.build_catalog()
    weights = config.build_weights()

    print(f"panel: {panel.n_units} units x {panel.n_periods} periods, "
          f"{panel.n_clusters} clusters, {panel.n_budget_groups} budget pools")
    print("sweeping mechanism intensity over", sweep.gamma_grid)

    result = regime_sweep(sweep, panel, calib, catalog, weights)

    print("\n  gamma  graph  budget  carry   winner")
    for gamma, theta, w in zip(result.gammas, result.thetas, result.winners):
        print(f"  {gamma:5.2f}  {theta.graph_spill:5.2f}  {theta.budget_spill:6.2f}"
              f"  {theta.carryover:5.2f}   {result.design_names[w]}")

    print("\ndistinct winners across the sweep:", " -> ".join(result.distinct_winners))
    print("user randomization is cheapest when interference is weak; cluster")
    print("randomization takes over when neighborhood spillover appears; the")
    print("per-period switchback wins once carryover dominates, because lagged")
    print("treatment inflates the between-unit spread of every constant design")
    print("while alternating time blocks average it away.")

    OUT.mkdir(exist_ok=True)
    envelope = [float(result.risks[i].min()) for i in range(len(result.gammas))]
    write_line_chart(
        OUT / "02_sweep.svg",
        list(result.gammas),
        [(name, [float(r) for r in result.risks[:, d]]) for d, name in enumerate(result.design_names)],
        "Planning risk across the mechanism sweep",
        x_label="mechanism intensity",
        y_label="normalized risk",
        envelope=envelope,
    )
    print(f"\nwrote {OUT / '02_sweep.svg'}")


if __name__ == "__main__":
    main()

"""The tracked demo figures are what the demos write, and every demo runs.

Each demo takes about a second or less.
"""

import importlib.util
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def load_demo(stem: str):
    spec = importlib.util.spec_from_file_location(f"demo_{stem}", DEMOS / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "stem, figures",
    [
        ("02_regime_sweep", ("02_sweep.svg",)),
        ("03_theory_checks", ("03_transport.svg", "03_mde.svg")),
        ("01_robust_selection", ("01_ranking.svg",)),
    ],
)
def test_demo_writes_tracked_figures(stem, figures, tmp_path, monkeypatch):
    demo = load_demo(stem)
    monkeypatch.setattr(demo, "OUT", tmp_path)
    demo.main()
    for name in figures:
        assert (tmp_path / name).read_bytes() == (DEMOS / "out" / name).read_bytes(), name


def test_log_ingestion_demo_runs(capsys):
    load_demo("04_log_ingestion").main()
    out = capsys.readouterr().out
    for label in ("uniform logging:", "adaptive logging:"):
        assert out.count(label) == 1
    assert out.count("  selected: ") == 2

"""tools/bench_pairs.py: quartiles, the per-metric verdict, and a crashed run
or one that prints no result."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs(values, name="ops_per_s"):
    return [{"metrics": {name: v}} for v in values]


DECLARED = {"ops_per_s": {"better": "higher", "bound": 0.25},
            "peak_rss_mb": {"better": "lower", "bound": 0.1}}


class TestQuartiles:
    def test_median_quartiles_and_spread(self, bench):
        q = bench.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
        assert (q["median"], q["q1"], q["q3"]) == (3.0, 1.5, 4.5)
        assert q["spread"] == 1.0

    def test_one_run(self, bench):
        assert bench.quartiles([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "spread": 0.0}


class TestCompare:
    def test_within_bound_and_pair_wins(self, bench):
        entry = bench.compare(runs([100, 101, 102]), runs([99, 103, 104]), DECLARED)["ops_per_s"]
        assert entry["verdict"] == "within bound"
        assert entry["change_better_in_pairs"] == 2

    def test_worse_beyond_bound(self, bench):
        entry = bench.compare(
            runs([10, 10, 10], "peak_rss_mb"), runs([12, 12, 12], "peak_rss_mb"), DECLARED
        )["peak_rss_mb"]
        assert entry["relative_worsening"] == pytest.approx(0.2)
        assert entry["verdict"] == "worse beyond bound"

    def test_wide_parent_spread_is_unresolved(self, bench):
        entry = bench.compare(runs([50, 100, 150]), runs([60, 110, 140]), DECLARED)["ops_per_s"]
        assert entry["verdict"].startswith("unresolved")

    def test_every_change_run_better_is_resolved(self, bench):
        # the parent's spread exceeds the bound, but no run overlaps
        entry = bench.compare(runs([50, 100, 150]), runs([160, 170, 180]), DECLARED)["ops_per_s"]
        assert entry["verdict"] == "within bound"

    def test_crashed_run_drops_out(self, bench):
        crashed = {"metrics": {}}
        parent = runs([100, 100, 100])
        change = runs([90, 100]) + [crashed]
        entry = bench.compare(parent, change, DECLARED)["ops_per_s"]
        assert entry["change"]["median"] == 95
        assert entry["change_better_in_pairs"] == 0  # pair 2 has no change value
        assert bench.compare(runs([1.0]), [crashed], DECLARED)["ops_per_s"][
            "verdict"
        ].startswith("unresolved")


def test_crashed_run_is_recorded(bench, tmp_path):
    # a checkout whose benchmark fails in set-up
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import sys\nprint('loading')\nsys.exit('set-up failed: no scenario')\n"
    )
    record = bench.run_once(tmp_path, "mc", 3, 1.0)
    assert record["correct"] is False
    assert record["exit_code"] == 1
    assert record["stderr"] == "set-up failed: no scenario"
    assert record["metrics"] == {}


@pytest.mark.parametrize("printed", ["done", ""])
def test_run_without_a_result_is_recorded(bench, tmp_path, printed):
    # a checkout whose benchmark exits 0 with no JSON result on its last line
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(f"print({printed!r})\n")
    record = bench.run_once(tmp_path, "mc", 3, 1.0)
    assert record["correct"] is False
    assert record["exit_code"] == 0
    assert record["stdout"] == printed
    assert record["metrics"] == {}

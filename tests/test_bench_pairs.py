"""tools/bench_pairs.py: quartiles, the per-metric and gain verdicts, a
crashed run or one that prints no result, and the checkouts' commits."""

import importlib.util
import json
import subprocess
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


@pytest.mark.parametrize("pairs", ["0", "-1"])
def test_no_pairs_is_refused(bench, tmp_path, capsys, pairs):
    # a record of no runs would read correct on both sides
    out = tmp_path / "BENCH_x.json"
    with pytest.raises(SystemExit) as exit_:
        bench.main(["--parent", str(tmp_path), "--change", str(tmp_path), "--workload", "mc",
                    "--pairs", pairs, "--seconds", "1", "--seed0", "0", "--out", str(out)])
    assert exit_.value.code == 2
    assert "--pairs must be at least 1" in capsys.readouterr().err
    assert not out.exists()


class TestGainVerdict:
    """The gain verdict of a declared metric: 9/10 pair wins, ties for
    neither side, a median gap beyond the parent's quartile distance, and no
    more failed operations than the parent."""

    PARENT = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]

    def entry(self, bench, change, name="ops_per_s"):
        return bench.compare(runs(self.PARENT, name), runs(change, name), DECLARED)[name]

    def test_gain_shown(self, bench):
        entry = self.entry(bench, [v + 20 for v in self.PARENT])
        assert entry["gain"] == "gain shown"
        assert entry["change_better_in_pairs"] == 10
        assert entry["median_gap"] == 20.0
        assert entry["parent_iqr"] == pytest.approx(5.5)

    def test_eight_of_ten_wins(self, bench):
        change = [v + 20 for v in self.PARENT[:8]] + [v - 1 for v in self.PARENT[8:]]
        entry = self.entry(bench, change)
        assert entry["change_better_in_pairs"] == 8
        assert entry["median_gap"] > entry["parent_iqr"]
        assert entry["gain"] == "gain not shown"

    def test_ties_count_for_neither_side(self, bench):
        one_tie = [v + 20 for v in self.PARENT[:9]] + self.PARENT[9:]
        assert self.entry(bench, one_tie)["change_better_in_pairs"] == 9
        assert self.entry(bench, one_tie)["gain"] == "gain shown"
        two_ties = [v + 20 for v in self.PARENT[:8]] + self.PARENT[8:]
        entry = self.entry(bench, two_ties)
        assert entry["change_better_in_pairs"] == 8
        assert entry["gain"] == "gain not shown"

    def test_gap_within_parent_iqr(self, bench):
        # every pair won, by less than the parent's own quartile distance
        entry = self.entry(bench, [v + 2 for v in self.PARENT])
        assert entry["change_better_in_pairs"] == 10
        assert entry["median_gap"] == 2.0 <= entry["parent_iqr"]
        assert entry["gain"] == "gain not shown"

    def test_lower_is_better(self, bench):
        entry = self.entry(bench, [v - 20 for v in self.PARENT], "peak_rss_mb")
        assert entry["median_gap"] == 20.0
        assert entry["gain"] == "gain shown"
        worse = self.entry(bench, [v + 20 for v in self.PARENT], "peak_rss_mb")
        assert worse["change_better_in_pairs"] == 0

    def test_more_failed_operations(self, bench):
        parent = [{"failed": 0, **r} for r in runs(self.PARENT)]
        change = [{"failed": 0, **r} for r in runs([v + 20 for v in self.PARENT])]
        assert bench.compare(parent, change, DECLARED)["ops_per_s"]["gain"] == "gain shown"
        change[3]["failed"] = 1
        assert bench.compare(parent, change, DECLARED)["ops_per_s"]["gain"] == "gain not shown"
        parent[0]["failed"] = 1  # as many failed on each side
        assert bench.compare(parent, change, DECLARED)["ops_per_s"]["gain"] == "gain shown"

    def test_crashed_runs_count_as_pairs_run(self, bench):
        change = runs([v + 20 for v in self.PARENT[:9]]) + [{"metrics": {}}]
        entry = bench.compare(runs(self.PARENT), change, DECLARED)["ops_per_s"]
        assert entry["change_better_in_pairs"] == 9
        assert entry["gain"] == "gain shown"
        change = runs([v + 20 for v in self.PARENT[:8]]) + [{"metrics": {}}] * 2
        entry = bench.compare(runs(self.PARENT), change, DECLARED)["ops_per_s"]
        assert entry["gain"] == "gain not shown"


def _git(path, *args):
    subprocess.run(["git", "-c", "user.name=bench", "-c", "user.email=bench@example.org",
                    *args], cwd=path, check=True, capture_output=True)


def _fake_checkout(path, ops_per_s):
    """A git checkout whose benchmark prints one correct result."""
    (path / "perfbench").mkdir(parents=True)
    result = {"correct": True, "attempted": 3, "failed": 0,
              "metrics": {"ops_per_s": {"value": ops_per_s}}}
    (path / "perfbench" / "run.py").write_text(f"print({json.dumps(json.dumps(result))})\n")
    (path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "ops_per_s", "better": "higher", "bound": 0.25}]}))
    _git(path, "init", "-q")
    _git(path, "add", "-A")
    _git(path, "commit", "-q", "-m", "fake benchmark")
    return subprocess.run(["git", "rev-parse", "HEAD"], cwd=path, check=True,
                          capture_output=True, text=True).stdout.strip()


class TestCheckoutState:
    def test_clean_dirty_and_no_git(self, bench, tmp_path):
        commit = _fake_checkout(tmp_path / "repo", 1.0)
        assert bench.checkout_state(tmp_path / "repo") == {"commit": commit, "dirty": False}
        (tmp_path / "repo" / "BENCHMARK.json").write_text("{}")
        assert bench.checkout_state(tmp_path / "repo") == {"commit": commit, "dirty": True}
        # an archive copy inside another work tree is not that tree's commit
        (tmp_path / "repo" / "copy").mkdir()
        assert bench.checkout_state(tmp_path / "repo" / "copy") == {
            "commit": None, "dirty": None}
        assert bench.checkout_state(tmp_path) == {"commit": None, "dirty": None}

    def test_record_names_both_checkouts(self, bench, tmp_path):
        parent = _fake_checkout(tmp_path / "parent", 100.0)
        change = _fake_checkout(tmp_path / "change", 120.0)
        (tmp_path / "change" / "untracked.txt").write_text("new")
        out = tmp_path / "BENCH_fake.json"
        bench.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                    "--workload", "mc", "--pairs", "1", "--seconds", "1", "--seed0", "5",
                    "--out", str(out)])
        record = json.loads(out.read_text())["workloads"]["mc"]
        assert record["checkouts"] == {"parent": {"commit": parent, "dirty": False},
                                       "change": {"commit": change, "dirty": True}}
        assert record["metrics"]["ops_per_s"]["change_better_in_pairs"] == 1


def test_machine_records_blas_thread_settings(bench, tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    record = bench.machine(tmp_path)
    assert record["OPENBLAS_NUM_THREADS"] == "1"
    assert record["OMP_NUM_THREADS"] is None
    assert record["MKL_NUM_THREADS"] is None

import json
import math
import os
import stat

import numpy as np
import pytest

from taskadc.cli import main
from taskadc.design import AdcConfig, FilterDesign
from taskadc.scenarios import ScenarioSpec, build_scenario
from taskadc.search import baseline_design


@pytest.fixture()
def scalar_scenario(tmp_path):
    config = {
        "N": 1, "M": 1, "f_nyq_hz": 1.0, "snr_db": 200.0,
        "sigma_phi_deg": 1.0, "channel": {"seed": 0},
    }
    # unit channel makes the noiseless limit the identity task
    chan = tmp_path / "chan.txt"
    np.savetxt(chan, np.array([[1.0]]))
    config["channel"] = {"file": str(chan)}
    path = tmp_path / "scalar.json"
    path.write_text(json.dumps(config))
    return path


@pytest.fixture()
def matched_scenario(tmp_path):
    config = {
        "N": 2, "M": 4, "f_nyq_hz": 1e8, "snr_db": 10.0,
        "sigma_phi_deg": 1.0, "channel": {"seed": 0},
    }
    path = tmp_path / "matched.json"
    path.write_text(json.dumps(config))
    return path


class TestDesignCommand:
    def test_scalar_one_bit_summary(self, scalar_scenario, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "design", "--scenario", str(scalar_scenario), "--out", str(out),
            "--k", "1", "--bits", "1", "--fs", "1.0", "--eta", "2.0",
            "--grid-points", "128",
        ])
        assert code == 0
        text = capsys.readouterr().out
        nmse = float(text.split("nmse: ")[1].splitlines()[0])
        assert abs(nmse - 0.75) < 1e-9  # essentially noiseless scalar task
        assert (out / "manifest.json").exists()

    def test_design_round_trip(self, matched_scenario, tmp_path):
        out = tmp_path / "out"
        code = main([
            "design", "--scenario", str(matched_scenario), "--out", str(out),
            "--k", "2", "--bits", "3", "--fs", "1e8", "--grid-points", "64",
        ])
        assert code == 0
        data = json.loads((out / "design.json").read_text())
        design = FilterDesign.from_dict(data)
        assert design.to_dict() == data  # load then save reproduces the file
        assert design.cfg.k_adcs == 2

    def test_outputs_follow_umask(self, scalar_scenario, tmp_path):
        out = tmp_path / "out"
        old = os.umask(0o022)
        try:
            code = main([
                "design", "--scenario", str(scalar_scenario), "--out", str(out),
                "--k", "1", "--bits", "1", "--fs", "1.0", "--grid-points", "16",
            ])
        finally:
            os.umask(old)
        assert code == 0
        for name in ("design.json", "summary.txt", "manifest.json"):
            assert stat.S_IMODE((out / name).stat().st_mode) == 0o644

    def test_invalid_config_exits_2(self, matched_scenario, tmp_path):
        code = main([
            "design", "--scenario", str(matched_scenario),
            "--out", str(tmp_path / "o"),
            "--k", "9", "--bits", "3", "--fs", "1e8",  # K > M
        ])
        assert code == 2

    def test_missing_scenario_exits_2(self, tmp_path):
        code = main([
            "design", "--scenario", str(tmp_path / "none.json"),
            "--out", str(tmp_path / "o"), "--k", "1", "--bits", "1", "--fs", "1.0",
        ])
        assert code == 2

    def test_scenario_directory_exits_2(self, tmp_path):
        code = main([
            "design", "--scenario", str(tmp_path), "--out", str(tmp_path / "o"),
            "--k", "1", "--bits", "1", "--fs", "1.0",
        ])
        assert code == 2

    def test_out_is_a_file_exits_2(self, scalar_scenario, tmp_path):
        code = main([
            "design", "--scenario", str(scalar_scenario), "--out", str(scalar_scenario),
            "--k", "1", "--bits", "1", "--fs", "1.0", "--grid-points", "16",
        ])
        assert code == 2


@pytest.mark.parametrize("args, flag", [
    (["design", "--k", "2", "--bits", "3", "--fs", "1e8"], "--seed"),
    (["rate-search", "--budgets", "4e8", "--arch", "analog"], "--k"),
    (["rate-search", "--budgets", "4e8", "--arch", "analog"], "--bits"),
    (["rate-search", "--budgets", "4e8", "--arch", "analog"], "--fs"),
    (["rate-search", "--budgets", "4e8", "--arch", "analog"], "--seed"),
])
def test_unread_flags_are_rejected(matched_scenario, tmp_path, args, flag):
    with pytest.raises(SystemExit) as exc:
        main(args + ["--scenario", str(matched_scenario), "--out", str(tmp_path / "o"),
                     "--grid-points", "64", flag, "2"])
    assert exc.value.code == 2


class TestSweepCommand:
    def test_k_sweep_monotone(self, matched_scenario, tmp_path):
        out = tmp_path / "out"
        code = main([
            "sweep", "--scenario", str(matched_scenario), "--out", str(out),
            "--var", "K", "--from", "1", "--to", "4", "--steps", "4",
            "--bits", "4", "--grid-points", "64",
        ])
        assert code == 0
        rows = (out / "sweep_K.csv").read_text().strip().splitlines()[1:]
        nmse = [float(r.split(",")[2]) for r in rows]
        assert all(a >= b - 1e-12 for a, b in zip(nmse, nmse[1:]))

    def test_rerun_is_byte_identical(self, matched_scenario, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main([
                "sweep", "--scenario", str(matched_scenario), "--out", str(out),
                "--var", "b", "--from", "1", "--to", "6", "--steps", "6",
                "--k", "2", "--grid-points", "64",
            ])
            assert code == 0
            outs.append((out / "sweep_b.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_eta_sweep_with_simulation(self, scalar_scenario, tmp_path):
        out = tmp_path / "out"
        code = main([
            "sweep", "--scenario", str(scalar_scenario), "--out", str(out),
            "--var", "eta", "--from", "1.4", "--to", "2.4", "--steps", "3",
            "--k", "1", "--bits", "1", "--fs", "1.0", "--grid-points", "64",
            "--simulate", "--trials", "2000", "--seed", "1",
        ])
        assert code == 0
        rows = (out / "sweep_eta.csv").read_text().strip().splitlines()
        assert rows[0] == "value,arch,theory_nmse,empirical_nmse,std_error"
        assert len(rows) == 4
        # overload shrinks with the loading factor, so the empirical excess
        # over theory falls toward 1 along the sweep
        excess = [
            float(r.split(",")[3]) / float(r.split(",")[2]) for r in rows[1:]
        ]
        assert excess[-1] < excess[0]

    def test_baselines_run_at_their_own_converter_count(self, matched_scenario, tmp_path):
        out = tmp_path / "out"
        code = main([
            "sweep", "--scenario", str(matched_scenario), "--out", str(out),
            "--var", "b", "--from", "1", "--to", "2", "--steps", "2", "--k", "3",
            "--arch", "task,analog,digital", "--grid-points", "64",
        ])
        assert code == 0
        model = build_scenario(ScenarioSpec.from_file(matched_scenario), n_points=64)
        k_of = {"task_based": 3, "analog_recovery": 2, "digital_recovery": 4}
        rows = (out / "sweep_b.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 6
        for row in rows:
            value, arch, nmse = row.split(",")
            cfg = AdcConfig(k_of[arch], model.f_nyq, int(value))
            assert float(nmse) == baseline_design(model, cfg, arch, 64).nmse

    def test_empty_range_exits_2(self, matched_scenario, tmp_path):
        code = main([
            "sweep", "--scenario", str(matched_scenario),
            "--out", str(tmp_path / "o"),
            "--var", "b", "--from", "1", "--to", "6", "--steps", "0",
            "--k", "2", "--grid-points", "64",
        ])
        assert code == 2


class TestRateSearchCommand:
    def test_single_budget_tables(self, matched_scenario, tmp_path):
        out = tmp_path / "out"
        code = main([
            "rate-search", "--scenario", str(matched_scenario), "--out", str(out),
            "--budgets", "4e8", "--arch", "task", "--grid-points", "64",
        ])
        assert code == 0
        rows = (out / "rate_search_task_based.csv").read_text().strip().splitlines()
        assert rows[0] == "budget,k_adcs,bits,fs_hz,nmse,nmse_t0_0"
        assert len(rows) > 2
        best = (out / "rate_search_best.csv").read_text().strip().splitlines()
        assert len(best) == 2

    def test_infeasible_budget_exits_2(self, matched_scenario, tmp_path):
        code = main([
            "rate-search", "--scenario", str(matched_scenario),
            "--out", str(tmp_path / "o"), "--budgets", "", "--grid-points", "64",
        ])
        assert code == 2

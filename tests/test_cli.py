import json
import math
import os
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest

from taskadc.cli import build_parser, main
from taskadc.design import AdcConfig, FilterDesign, design_filters
from taskadc.scenarios import ScenarioSpec, build_scenario
from taskadc.search import baseline_design, shifted_task_design
from taskadc.simulate import SimulationRun, estimate_mse


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

    def test_nan_eta_exits_2(self, matched_scenario, tmp_path, capsys):
        code = main([
            "design", "--scenario", str(matched_scenario), "--out", str(tmp_path / "o"),
            "--k", "2", "--bits", "4", "--fs", "1e8", "--eta", "nan", "--grid-points", "16",
        ])
        assert code == 2
        assert "eta must be positive and finite" in capsys.readouterr().err

    def test_bits_overflowing_a_float_exit_2(self, matched_scenario, tmp_path, capsys):
        code = main([
            "design", "--scenario", str(matched_scenario), "--out", str(tmp_path / "o"),
            "--k", "2", "--bits", "512", "--fs", "1e8", "--grid-points", "16",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error: bits must be below 512" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("bits, code", [(505, 2), (490, 0)])
    def test_bits_whose_waterfill_budget_overflows_exit_2(
        self, matched_scenario, tmp_path, capsys, bits, code
    ):
        # 4**505 is finite, but K*4**b/(kappa*Ts) at 400 MHz is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = main([
                "design", "--scenario", str(matched_scenario), "--out", str(tmp_path / "o"),
                "--k", "2", "--bits", str(bits), "--fs", "4e8", "--grid-points", "16",
            ])
        assert got == code
        err = capsys.readouterr().err
        if code:
            assert err == (
                "config error: bits=505, K=2, fs=4e+08: the quantizer-support budget "
                "K*4**b/(kappa*Ts) overflows a float\n"
            )
        else:
            assert err == ""

    def test_grid_of_fewer_than_ten_points(self, matched_scenario, tmp_path, capsys):
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([
                "design", "--scenario", str(matched_scenario), "--out", str(out),
                "--k", "2", "--bits", "4", "--fs", "1e8", "--grid-points", "3",
            ])
        assert code == 0
        summary = (out / "summary.txt").read_text()
        assert "active modes per frequency decile: [1, 1, 1]\n" in summary
        design = FilterDesign.from_dict(json.loads((out / "design.json").read_text()))
        assert f"nmse: {design.nmse!r}\n" in summary

    def test_numerical_failure_exits_3(self, matched_scenario, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr("taskadc.cli.design_filters", fail)
        code = main([
            "design", "--scenario", str(matched_scenario), "--out", str(tmp_path / "o"),
            "--k", "2", "--bits", "4", "--fs", "1e8", "--grid-points", "16",
        ])
        assert code == 3
        assert "numerical error: SVD did not converge" in capsys.readouterr().err

    @pytest.mark.parametrize("change, message", [
        (lambda c: [c], "scenario must be a JSON object"),
        (lambda c: dict(c, channel="abc"), "channel must be a JSON object"),
        (lambda c: dict(c, N=[1]), "N must be a number"),
        (lambda c: dict(c, N=1.7), "N must be a whole number"),
        (lambda c: dict(c, N=True), "N must be a number, not True"),
        (lambda c: dict(c, snr_db=math.nan), "must be finite"),
        (lambda c: dict(c, sigma_phi_deg=math.nan), "must be finite"),
        (lambda c: dict(c, sigma_phi_deg=1e300), "too large for the correlation model"),
    ], ids=["list", "channel_string", "N_list", "N_fraction", "N_bool", "nan_snr",
            "nan_spread", "huge_spread"])
    def test_malformed_scenario_exits_2(self, matched_scenario, tmp_path, capsys, change,
                                        message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(change(json.loads(matched_scenario.read_text()))))
        code = main([
            "design", "--scenario", str(path), "--out", str(tmp_path / "o"),
            "--k", "2", "--bits", "4", "--fs", "1e8", "--grid-points", "16",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err

    @pytest.mark.parametrize("snr_db", [3100, -3300, -3100])
    def test_extreme_snr_exits_2(self, matched_scenario, tmp_path, capsys, snr_db):
        # an overflowing, a zero and an infinite-noise SNR: none is a traceback
        path = tmp_path / "snr.json"
        path.write_text(json.dumps(dict(json.loads(matched_scenario.read_text()), snr_db=snr_db)))
        code = main([
            "design", "--scenario", str(path), "--out", str(tmp_path / "o"),
            "--k", "2", "--bits", "4", "--fs", "1e8", "--grid-points", "16",
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: snr_db=")

    @pytest.mark.parametrize("snr_db, f_nyq, code", [
        (-300, 1.0, 0), (-3000, 1.0, 2), (-3100, 1.0, 2), (10, 1e-300, 2),
    ])
    def test_subnormal_task_energy_exits_2(self, tmp_path, capsys, snr_db, f_nyq, code):
        # a weak channel: the task energy is 2.8e-309 at -3000 dB and 2.8e-319
        # at -3100 dB, where the design printed an nmse 0.4% off with exit 0;
        # a tiny band at a valid SNR leaves a subnormal energy too
        path = tmp_path / "weak.json"
        path.write_text(json.dumps({
            "N": 1, "M": 2, "f_nyq_hz": f_nyq, "sigma_phi_deg": 0.5, "snr_db": snr_db,
            "channel": {"seed": 0},
        }))
        assert main([
            "design", "--scenario", str(path), "--out", str(tmp_path / "o"),
            "--k", "1", "--fs", str(f_nyq), "--bits", "4", "--grid-points", "16",
        ]) == code
        out, err = capsys.readouterr()
        if code == 0:
            [nmse] = [line for line in out.splitlines() if line.startswith("nmse: ")]
            assert abs(float(nmse[6:]) - 0.029252961560157935) <= 1e-12 * 0.03
        else:
            assert err.startswith("config error: task energy ")
            assert f"f_nyq_hz={f_nyq!r}, the channel and snr_db={float(snr_db)!r})" in err
            assert err.rstrip().endswith("is below the smallest normal float")

    def test_unallocatable_scenario_exits_2(self, matched_scenario, tmp_path, capsys):
        # numpy refuses the terabyte-sized correlation matrix before touching memory
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(dict(json.loads(matched_scenario.read_text()), N=2000000)))
        code = main([
            "design", "--scenario", str(path), "--out", str(tmp_path / "o"),
            "--k", "2", "--bits", "4", "--fs", "1e8", "--grid-points", "16",
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: ")

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


SWEEP_B = ["sweep", "--var", "b", "--from", "1", "--to", "2", "--steps", "2", "--k", "2"]


@pytest.mark.parametrize("args, flag, value", [
    (["design", "--k", "2", "--bits", "3", "--fs", "1e8"], "--seed", "2"),
    (["rate-search", "--budgets", "4e8", "--arch", "analog"], "--k", "2"),
    (["rate-search", "--budgets", "4e8", "--arch", "analog"], "--bits", "2"),
    (["rate-search", "--budgets", "4e8", "--arch", "analog"], "--fs", "2"),
    (["rate-search", "--budgets", "4e8", "--arch", "analog"], "--seed", "2"),
    # sweep reads its simulation flags only with --simulate
    (SWEEP_B, "--trials", "5"),
    (SWEEP_B, "--dither", "off"),
    (SWEEP_B, "--seed", "2"),
])
def test_unread_flags_are_rejected(matched_scenario, tmp_path, args, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(args + ["--scenario", str(matched_scenario), "--out", str(tmp_path / "o"),
                     "--grid-points", "64", flag, value])
    assert exc.value.code == 2


@pytest.mark.parametrize("args, message", [
    # f_max/fs overflows to inf, whose alias order is no integer
    (["design", "--k", "2", "--bits", "3", "--fs", "1e-305"], "fs=1e-305 is too small"),
    (["rate-search", "--budgets", "1e-305"], "is too small: f_max/fs = inf"),
    (["sweep", "--var", "b", "--from", "1", "--to", "3", "--steps", "3", "--k", "2",
      "--fs", "1e-305"], "fs=1e-305 is too small"),
    # the simulation's decimation 4 f_nyq / fs overflows before any design
    (["sweep", "--var", "b", "--from", "1", "--to", "3", "--steps", "3", "--k", "2",
      "--fs", "1e-305", "--simulate"], "fs=1e-305 is too small: simulation rate"),
    # eta^2 underflows to 0.0, which the water-fill level would divide by
    (["design", "--k", "2", "--bits", "3", "--fs", "1e8", "--eta", "1e-300"],
     "eta=1e-300 too small"),
    (["rate-search", "--budgets", "1e9", "--eta", "1e-300"], "eta=1e-300 too small"),
    # a finite alias order whose alias blocks numpy cannot allocate (over 128 TiB, past
    # any address space) or whose count it refuses outright
    (["design", "--k", "2", "--bits", "3", "--fs", "1e-6"],
     "fs=1e-06 is too small: alias order 50000000000000"),
    (["rate-search", "--budgets", "1e-6"], "fs=1e-06 is too small: alias order"),
    (["design", "--k", "2", "--bits", "3", "--fs", "1e-300"],
     "fs=1e-300 is too small: alias order"),
], ids=["design_fs", "rate_search_budget", "sweep_fs", "sweep_fs_simulate", "design_eta",
        "rate_search_eta", "design_alias_blocks", "rate_search_alias_blocks",
        "design_alias_count"])
def test_unrepresentable_inputs_exit_2_naming_them(matched_scenario, tmp_path, capsys, args,
                                                   message):
    code = main(args + ["--scenario", str(matched_scenario), "--out", str(tmp_path / "o"),
                        "--grid-points", "64"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err


@pytest.fixture()
def readme_scenario(tmp_path):
    config = {
        "N": 4, "M": 16, "f_nyq_hz": 4e8, "snr_db": 10.0,
        "sigma_phi_deg": 1.0, "channel": {"seed": 0},
    }
    path = tmp_path / "readme.json"
    path.write_text(json.dumps(config))
    return path


# design under an address space capped 1 GiB above the interpreter's; it prints
# the exit code and the peak RSS, VmHWM: getrusage's maxrss would count the
# forking test process
CAPPED_DESIGN = """
import re, resource, sys
from taskadc.cli import main
size = int(open("/proc/self/statm").read().split()[0]) * resource.getpagesize()
resource.setrlimit(resource.RLIMIT_AS, (size + 2**30, resource.getrlimit(resource.RLIMIT_AS)[1]))
code = main(sys.argv[1:])
print(code, int(re.search(r"VmHWM:\\s*(\\d+) kB", open("/proc/self/status").read())[1]) * 1024)
"""


def capped_design(scenario, out, *args) -> tuple[int, int, str]:
    """(exit code, peak RSS, stderr) of ``design`` run under CAPPED_DESIGN."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    child = subprocess.run(
        [sys.executable, "-c", CAPPED_DESIGN, "design", "--scenario", str(scenario),
         "--out", str(out), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    code, peak_rss = map(int, child.stdout.split())
    return code, peak_rss, child.stderr


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self")
def test_small_fs_is_refused_before_the_shifts_are_written(readme_scenario, tmp_path):
    # alias order 2.5e7 on the 4x16 scenario: a 400 MB shift array, which the
    # cap fits, and a 51 GB stacked row, which it does not
    code, peak_rss, err = capped_design(
        readme_scenario, tmp_path / "o", "--k", "4", "--bits", "4", "--fs", "8"
    )
    assert code == 2
    assert "config error: fs=8.0 is too small: alias order 25000000 needs" in err
    shift_bytes = (2 * 25_000_000 + 1) * 8
    assert peak_rss < shift_bytes / 2


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self")
def test_small_fs_is_named_when_a_shift_lookup_fails(tmp_path):
    # alias order 2e7 on a 1x1 scenario: its 640 MB stacked row fits the cap,
    # but the lookups over every shift that follow it do not
    config = {"N": 1, "M": 1, "f_nyq_hz": 4e8, "snr_db": 10.0,
              "sigma_phi_deg": 1.0, "channel": {"seed": 0}}
    scenario = tmp_path / "one.json"
    scenario.write_text(json.dumps(config))
    code, _, err = capped_design(scenario, tmp_path / "o", "--k", "1", "--bits", "4", "--fs", "10")
    assert code == 2
    assert "config error: fs=10.0 is too small: alias order 20000000 needs" in err


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

    @pytest.mark.parametrize("flag, value, message", [
        ("--seed", "-1", "seed must be non-negative, got -1"),
        ("--trials", "99", "n_trials must be at least 100"),
    ])
    def test_bad_simulation_flag_exits_2(self, scalar_scenario, tmp_path, capsys, flag,
                                         value, message):
        # SimulationRun checks its fields before any trial runs
        args = {"--trials": "100", "--seed": "0", flag: value}
        code = main([
            "sweep", "--scenario", str(scalar_scenario), "--out", str(tmp_path / "o"),
            "--var", "eta", "--from", "1.4", "--to", "2.4", "--steps", "2",
            "--k", "1", "--bits", "1", "--fs", "1.0", "--grid-points", "64",
            "--simulate", *[x for item in args.items() for x in item],
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}")
        assert "Traceback" not in err

    def test_dither_takes_on_off_words(self, scalar_scenario, tmp_path):
        sweep = ["sweep", "--scenario", str(scalar_scenario), "--out", str(tmp_path),
                 "--var", "b", "--from", "1", "--to", "2", "--steps", "2", "--dither"]
        parser = build_parser()
        for text, dithered in (("1", True), ("TRUE", True), ("yes", True), ("on", True),
                               ("0", False), ("False", False), ("no", False),
                               ("Off", False)):
            assert parser.parse_args(sweep + [text]).dither is dithered
        with pytest.raises(SystemExit) as exc:
            main(sweep + ["maybe"])
        assert exc.value.code == 2

    def test_manifest_hash_ignores_the_output_directory(self, scalar_scenario, tmp_path):
        manifests = {}
        for name, bits in (("a", "1"), ("b", "1"), ("c", "2")):
            out = tmp_path / name
            code = main([
                "sweep", "--scenario", str(scalar_scenario), "--out", str(out),
                "--var", "eta", "--from", "1.4", "--to", "2.4", "--steps", "2",
                "--k", "1", "--bits", bits, "--fs", "1.0", "--grid-points", "64",
                "--simulate", "--trials", "100", "--seed", "1",
            ])
            assert code == 0
            manifests[name] = json.loads((out / "manifest.json").read_text())
        assert manifests["a"]["config"]["out"] == str(tmp_path / "a")
        assert manifests["a"]["config_sha256"] == manifests["b"]["config_sha256"]
        assert manifests["a"]["config_sha256"] != manifests["c"]["config_sha256"]

    def test_manifest_records_the_numerical_environment(
        self, scalar_scenario, tmp_path, monkeypatch
    ):
        manifests = []
        for threads in (None, "1"):
            if threads is None:
                monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
            else:
                monkeypatch.setenv("OMP_NUM_THREADS", threads)
            out = tmp_path / f"threads{threads}"
            code = main([
                "sweep", "--scenario", str(scalar_scenario), "--out", str(out),
                "--var", "b", "--from", "1", "--to", "2", "--steps", "2",
                "--k", "1", "--fs", "1.0", "--grid-points", "64",
            ])
            assert code == 0
            manifests.append(json.loads((out / "manifest.json").read_text()))
        unset, pinned = (m["environment"] for m in manifests)
        assert set(unset) == {
            "numpy", "blas", "blas_version",
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
        }
        assert unset["numpy"] == np.__version__
        assert (unset["OMP_NUM_THREADS"], pinned["OMP_NUM_THREADS"]) == (None, "1")
        # the environment is recorded, not hashed
        assert manifests[0]["config_sha256"] == manifests[1]["config_sha256"]

    def test_baselines_run_at_their_own_converter_count(self, matched_scenario, tmp_path):
        out = tmp_path / "out"
        code = main([
            "sweep", "--scenario", str(matched_scenario), "--out", str(out),
            "--var", "b", "--from", "1", "--to", "2", "--steps", "2", "--k", "3",
            "--arch", "task,analog,digital", "--grid-points", "64",
        ])
        assert code == 0
        model = build_scenario(ScenarioSpec.from_file(matched_scenario))
        k_of = {"task_based": 3, "analog_recovery": 2, "digital_recovery": 4}
        rows = (out / "sweep_b.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 6
        for row in rows:
            value, arch, nmse = row.split(",")
            cfg = AdcConfig(k_of[arch], model.f_nyq, int(value))
            assert float(nmse) == baseline_design(model, cfg, arch, 64).nmse

    @pytest.mark.parametrize("extra", [["--arch", "analog"], ["--arch", "task,digital"]])
    def test_t0_sweep_rejects_baselines(self, matched_scenario, tmp_path, extra):
        out = tmp_path / "out"
        code = main([
            "sweep", "--scenario", str(matched_scenario), "--out", str(out),
            "--var", "t0", "--from", "0", "--to", "1e-9", "--steps", "3",
            "--k", "2", "--bits", "3", "--grid-points", "64", *extra,
        ])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("start, stop", [("nan", "1e-9"), ("1e-9", "nan")])
    def test_non_finite_t0_exits_2(self, matched_scenario, tmp_path, capsys, start, stop):
        # each wrote a row with nmse 0.0, as if the shift were perfect
        code = main([
            "sweep", "--scenario", str(matched_scenario), "--out", str(tmp_path / "o"),
            "--var", "t0", "--from", start, "--to", stop, "--steps", "2",
            "--k", "2", "--bits", "3", "--grid-points", "64",
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: t0 must be a finite number")
        assert not (tmp_path / "o" / "sweep_t0.csv").exists()

    def test_fs_sweep_simulates_below_nyquist(self, readme_scenario, tmp_path, capsys):
        # 100 and 200 MHz sample below the 400 MHz Nyquist rate (alias orders
        # 2 and 1); 300 MHz snaps to 320 MHz, the nearest divisor of 1.6 GHz
        out = tmp_path / "out"
        code = main([
            "sweep", "--scenario", str(readme_scenario), "--out", str(out),
            "--var", "fs", "--from", "1e8", "--to", "4e8", "--steps", "4",
            "--k", "4", "--bits", "4", "--grid-points", "64",
            "--simulate", "--trials", "100",
        ])
        assert code == 0
        assert "fs 300000000.0 snapped to 320000000.0" in capsys.readouterr().out
        rows = (out / "sweep_fs.csv").read_text().strip().splitlines()[1:]
        assert [float(row.split(",")[0]) for row in rows] == [1e8, 2e8, 3.2e8, 4e8]
        assert all(float(row.split(",")[3]) > 0 for row in rows)

    def test_t0_sweep_simulates_each_shifted_design(self, matched_scenario, tmp_path):
        out = tmp_path / "out"
        code = main([
            "sweep", "--scenario", str(matched_scenario), "--out", str(out),
            "--var", "t0", "--from", "0", "--to", "2e-9", "--steps", "3",
            "--k", "2", "--bits", "3", "--grid-points", "64",
            "--simulate", "--trials", "200", "--seed", "4",
        ])
        assert code == 0
        model = build_scenario(ScenarioSpec.from_file(matched_scenario))
        base = design_filters(model, AdcConfig(2, model.f_nyq, 3), 64)
        rows = (out / "sweep_t0.csv").read_text().strip().splitlines()[1:]
        t0s = [float(v) for v in np.linspace(0.0, 2e-9, 3)]
        assert len(rows) == len(t0s)
        for row, t0 in zip(rows, t0s):
            design = shifted_task_design(model, base, t0)
            report = estimate_mse(SimulationRun("s", model, design, n_trials=200, seed=4))
            numbers = (t0, design.nmse, report.empirical_nmse, report.std_error)
            assert row == "{!r},task_based,{!r},{!r},{!r}".format(*numbers)

    def test_bits_overflowing_a_float_exit_2(self, matched_scenario, tmp_path, capsys):
        code = main([
            "sweep", "--scenario", str(matched_scenario), "--out", str(tmp_path / "o"),
            "--var", "b", "--from", "1", "--to", "600", "--steps", "2",
            "--k", "2", "--grid-points", "64",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error: bits must be below 512" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("var, fixed, to, value", [
        ("b", ["--k", "2"], "4", "2.5"), ("K", ["--bits", "3"], "2", "1.5"),
    ], ids=["b", "K"])
    def test_fractional_count_exits_2(self, matched_scenario, tmp_path, capsys, var, fixed,
                                      to, value):
        # --from 1 --to <to> --steps 3 puts a fraction in the middle of the grid
        code = main([
            "sweep", "--scenario", str(matched_scenario), "--out", str(tmp_path / "o"),
            "--var", var, "--from", "1", "--to", to, "--steps", "3", "--grid-points", "64",
            *fixed,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"config error: --var {var} grid value {value} is not a whole number" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("steps", ["0", "-2"])
    def test_steps_below_one_exits_2(self, matched_scenario, tmp_path, capsys, steps):
        with pytest.raises(SystemExit) as exc:
            main([
                "sweep", "--scenario", str(matched_scenario),
                "--out", str(tmp_path / "o"),
                "--var", "b", "--from", "1", "--to", "6", "--steps", steps,
                "--k", "2", "--grid-points", "64",
            ])
        assert exc.value.code == 2
        assert f"--steps: must be at least 1, got {steps}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


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

    def test_spaced_architecture_list(self, matched_scenario, tmp_path):
        # spaces after the commas, as --budgets "4e8, 1e9" already takes
        out = tmp_path / "out"
        code = main([
            "rate-search", "--scenario", str(matched_scenario), "--out", str(out),
            "--budgets", "4e8", "--arch", "task, analog", "--grid-points", "64",
        ])
        assert code == 0
        assert (out / "rate_search_task_based.csv").exists()
        assert (out / "rate_search_analog_recovery.csv").exists()

    def test_infeasible_budget_exits_2(self, matched_scenario, tmp_path):
        code = main([
            "rate-search", "--scenario", str(matched_scenario),
            "--out", str(tmp_path / "o"), "--budgets", "", "--grid-points", "64",
        ])
        assert code == 2

    def test_non_finite_budget_exits_2(self, matched_scenario, tmp_path, capsys):
        for budget in ("inf", "nan"):
            code = main([
                "rate-search", "--scenario", str(matched_scenario),
                "--out", str(tmp_path / "o"), "--budgets", budget, "--grid-points", "64",
            ])
            assert code == 2
            assert "rate budget must be positive and finite" in capsys.readouterr().err

    def test_empty_architecture_exits_2_naming_it(self, matched_scenario, tmp_path, capsys):
        code = main([
            "rate-search", "--scenario", str(matched_scenario), "--out", str(tmp_path / "o"),
            "--budgets", "4e8", "--arch", "task,", "--grid-points", "64",
        ])
        assert code == 2
        assert "config error: unknown architecture ''" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_n_t0_flag_exits_2(self, matched_scenario, tmp_path, capsys):
        # the t0 average starts from a fixed grid; there is no flag to set it
        with pytest.raises(SystemExit) as exc:
            main([
                "rate-search", "--scenario", str(matched_scenario), "--out", str(tmp_path / "o"),
                "--budgets", "4e8", "--n-t0", "16", "--grid-points", "64",
            ])
        assert exc.value.code == 2
        assert "unrecognized arguments: --n-t0 16" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("eta", ["inf", "-1", "nan"])
    def test_bad_eta_exits_2_naming_eta(self, matched_scenario, tmp_path, capsys, eta):
        code = main([
            "rate-search", "--scenario", str(matched_scenario), "--out", str(tmp_path / "o"),
            "--budgets", "4e8", "--eta", eta, "--grid-points", "64",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error: eta must be positive and finite" in err
        assert "no feasible configuration" not in err

"""Batch experiment driver: design, sweep, and rate-search subcommands.

Every run writes a manifest (config hash, seed, grid density, version,
numerical environment) next to its outputs; CSV numbers are emitted with repr
so reruns on the same BLAS thread count are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np

from . import __version__
from .design import AdcConfig, DesignError, design_filters
from .scenarios import ScenarioSpec, build_scenario
from .search import (
    ARCHITECTURES,
    SearchSpec,
    _baseline_chain,
    baseline_design,
    rate_search,
    shifted_task_design,
)
from .simulate import SimulationRun, estimate_mse, snap_to_divisor

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
# sweep flags read only by --simulate, with their defaults
SIMULATION_DEFAULTS = {"seed": 0, "trials": 10_000, "dither": True}
# the last digits of some results depend on how BLAS splits its work
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_ARCH_ALIASES = {
    "task": "task_based",
    "analog": "analog_recovery",
    "digital": "digital_recovery",
}


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            # mkstemp creates mode 0600; give the file the mode open() would
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: str, data) -> None:
    _atomic_write(path, json.dumps(data, indent=2) + "\n")


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    _atomic_write(path, buf.getvalue())


def _write_manifest(out_dir: str, command: str, config: dict, outputs: list[str]) -> None:
    # where the outputs go is not an input: the same run into two directories
    # hashes the same
    canon = json.dumps({k: v for k, v in config.items() if k != "out"}, sort_keys=True)
    manifest = {
        "command": command,
        "config": config,
        "config_sha256": hashlib.sha256(canon.encode()).hexdigest(),
        "seed": config.get("seed"),
        "grid_points": config.get("grid_points"),
        "version": __version__,
        "environment": _environment(),
        "outputs": outputs,
    }
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)


def _environment() -> dict:
    """numpy, its BLAS and the BLAS thread settings (null when unset); not
    part of the config hash."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except KeyError:  # a build that records no BLAS
        blas = {}
    return {
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        **{name: os.environ.get(name) for name in BLAS_THREAD_VARS},
    }


def _load_scenario(path: str):
    return build_scenario(ScenarioSpec.from_file(path))


def _cfg_from_args(args) -> AdcConfig:
    if args.k is None or args.bits is None or args.fs is None:
        raise ValueError("design needs --k, --bits, and --fs")
    return AdcConfig(k_adcs=args.k, fs=args.fs, bits=args.bits, eta=args.eta)


def cmd_design(args) -> int:
    model = _load_scenario(args.scenario)
    cfg = _cfg_from_args(args)
    design = design_filters(model, cfg, args.grid_points)
    os.makedirs(args.out, exist_ok=True)
    design_path = os.path.join(args.out, "design.json")
    _write_json(design_path, design.to_dict())

    active = (design.sigma_h > 0).sum(axis=1)
    # a grid of fewer than 10 points splits into some empty parts
    deciles = [
        int(round(float(np.mean(part))))
        for part in np.array_split(active, 10)
        if part.size
    ]
    summary = [
        f"k_adcs: {cfg.k_adcs}",
        f"fs_hz: {cfg.fs!r}",
        f"bits: {cfg.bits}",
        f"eta: {cfg.eta!r}",
        f"water_level: {design.water_level!r}",
        f"mse: {design.mse_theory!r}",
        f"nmse: {design.nmse!r}",
        f"active modes per frequency decile: {deciles}",
    ]
    summary_path = os.path.join(args.out, "summary.txt")
    _atomic_write(summary_path, "\n".join(summary) + "\n")
    _write_manifest(args.out, "design", _config_dict(args), ["design.json", "summary.txt"])
    print("\n".join(summary))
    return 0


def _sweep_value_configs(args, model):
    """(value, AdcConfig) pairs for the sweep variable."""
    values = [float(v) for v in np.linspace(args.start, args.stop, args.steps)]
    if args.var in ("b", "K"):
        # counts are whole numbers, as AdcConfig requires
        for v in values:
            if not v.is_integer():
                raise ValueError(f"--var {args.var} grid value {v!r} is not a whole number")
        values = sorted(dict.fromkeys(int(v) for v in values))
    base = {
        "k_adcs": args.k,
        "fs": args.fs if args.fs is not None else model.f_nyq,
        "bits": args.bits,
        "eta": args.eta,
    }
    pairs = []
    for v in values:
        params = dict(base)
        if args.var == "eta":
            params["eta"] = v
        elif args.var == "b":
            params["bits"] = v
        elif args.var == "K":
            params["k_adcs"] = v
        elif args.var == "fs":
            params["fs"] = v
        if params["k_adcs"] is None or params["bits"] is None:
            raise ValueError("sweep needs --k and --bits for the fixed parameters")
        pairs.append((v, AdcConfig(**params)))
    return pairs


def _architectures(text: str) -> list[str]:
    """Architecture names from a comma list that may use the short aliases."""
    archs = [_ARCH_ALIASES.get(a, a) for a in map(str.strip, text.split(","))]
    for arch in archs:
        if arch not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {arch!r}")
    return archs


def cmd_sweep(args) -> int:
    model = _load_scenario(args.scenario)
    archs = _architectures(args.arch)
    if args.var in ("K", "t0") and set(archs) != {"task_based"}:
        # baselines run at a fixed K and have no shifted design
        raise ValueError(f"a {args.var} sweep supports only --arch task")
    header = ["value", "arch", "theory_nmse"]
    if args.simulate:
        header += ["empirical_nmse", "std_error"]
    rows = []
    base = None  # the unshifted design of a t0 sweep, whose cfg every t0 shares
    for value, cfg in _sweep_value_configs(args, model):
        if args.simulate:
            snapped = snap_to_divisor(cfg.fs, model.band_edge)
            if snapped != cfg.fs:
                # Monte-Carlo runs need integer decimation; report the snap
                print(f"fs {cfg.fs!r} snapped to {snapped!r} for simulation")
                cfg = AdcConfig(cfg.k_adcs, snapped, cfg.bits, cfg.eta)
                if args.var == "fs":
                    value = snapped
        for arch in archs:
            if args.var == "t0":
                base = base or design_filters(model, cfg, args.grid_points)
                design = shifted_task_design(model, base, value)
            else:
                cfg_arch = cfg
                if arch != "task_based":
                    cfg_arch = replace(cfg, k_adcs=_baseline_chain(model, arch)[0])
                design = baseline_design(model, cfg_arch, arch, args.grid_points)
            row = [value, arch, design.nmse]
            if args.simulate:
                run = SimulationRun(
                    scenario_id=os.path.basename(args.scenario),
                    model=model,
                    design=design,
                    n_trials=args.trials,
                    seed=args.seed,
                    dithered=args.dither,
                )
                report = estimate_mse(run)
                row += [report.empirical_nmse, report.std_error]
            rows.append(row)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, f"sweep_{args.var}.csv")
    _write_csv(csv_path, header, rows)
    _write_manifest(args.out, "sweep", _config_dict(args), [os.path.basename(csv_path)])
    print(f"wrote {csv_path} ({len(rows)} rows)")
    return 0


def cmd_rate_search(args) -> int:
    model = _load_scenario(args.scenario)
    budgets = [float(b) for b in args.budgets.split(",") if b.strip()]
    if not budgets:
        raise ValueError("empty budgets list")
    archs = _architectures(args.arch)
    os.makedirs(args.out, exist_ok=True)
    outputs = []
    best_rows = []
    for arch in archs:
        table_rows = []
        for budget in budgets:
            spec = SearchSpec(
                rate_budget=budget,
                architecture=arch,
                eta=args.eta,
                n_points=args.grid_points,
            )
            result = rate_search(model, spec)
            best_rows.append(
                [budget, arch, result.best_k, result.best_bits, result.best_fs, result.best_nmse]
            )
            for row in result.table:
                table_rows.append(
                    [
                        budget,
                        row["k_adcs"],
                        row["bits"],
                        row["fs_hz"],
                        row["nmse"],
                        row["nmse_t0_0"],
                    ]
                )
        path = os.path.join(args.out, f"rate_search_{arch}.csv")
        _write_csv(path, ["budget", "k_adcs", "bits", "fs_hz", "nmse", "nmse_t0_0"], table_rows)
        outputs.append(os.path.basename(path))
    best_path = os.path.join(args.out, "rate_search_best.csv")
    _write_csv(
        best_path, ["budget", "arch", "k_adcs", "bits", "fs_hz", "nmse"], best_rows
    )
    outputs.append(os.path.basename(best_path))
    _write_manifest(args.out, "rate-search", _config_dict(args), outputs)
    print(f"wrote {len(outputs)} files to {args.out}")
    return 0


def _on_off(text: str) -> bool:
    value = text.lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(
        f"expected 1/true/yes/on or 0/false/no/off, got {text!r}"
    )


def _at_least_one(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a whole number, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _config_dict(args) -> dict:
    return {k: v for k, v in vars(args).items() if k != "func"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taskadc",
        description="Design and verify task-based analog-to-digital acquisition chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *reads):
        p.add_argument("--scenario", required=True, help="scenario JSON path")
        p.add_argument("--out", required=True, help="output directory")
        if "seed" in reads:
            p.add_argument("--seed", type=int, default=None)
        p.add_argument("--grid-points", type=int, default=None, dest="grid_points")
        if "adc" in reads:
            p.add_argument("--k", type=int, default=None, help="number of converters")
            p.add_argument("--bits", type=int, default=None, help="bits per sample")
            p.add_argument("--fs", type=float, default=None, help="sampling rate in Hz")
        p.add_argument("--eta", type=float, default=None, help="loading factor")

    p_design = sub.add_parser("design", help="closed-form filter design")
    common(p_design, "adc")
    p_design.set_defaults(func=cmd_design)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter, emit nmse CSV")
    common(p_sweep, "seed", "adc")
    p_sweep.add_argument("--var", required=True, choices=["eta", "b", "K", "fs", "t0"])
    p_sweep.add_argument("--from", type=float, required=True, dest="start")
    p_sweep.add_argument("--to", type=float, required=True, dest="stop")
    p_sweep.add_argument("--steps", type=_at_least_one, required=True)
    p_sweep.add_argument("--arch", default="task", help="comma list: task,analog,digital")
    p_sweep.add_argument("--simulate", action="store_true")
    # defaults (SIMULATION_DEFAULTS) are filled in after parsing, so a flag
    # given without --simulate can be told from its default
    p_sweep.add_argument("--trials", type=int, default=None)
    p_sweep.add_argument("--dither", default=None, type=_on_off)
    p_sweep.set_defaults(func=cmd_sweep)

    p_rate = sub.add_parser("rate-search", help="grid search under bit-rate budgets")
    common(p_rate)  # K, b and fs of every cell come from the budget
    p_rate.add_argument("--budgets", required=True, help="comma list of bits/s budgets")
    p_rate.add_argument("--arch", default="task,analog,digital")
    p_rate.set_defaults(func=cmd_rate_search)
    return parser


def _simulation_flags(parser: argparse.ArgumentParser, args) -> None:
    """Reject the simulation flags of a sweep without --simulate, which
    would not read them, then fill in their defaults."""
    unread = [name for name in SIMULATION_DEFAULTS if getattr(args, name) is not None]
    if unread and not args.simulate:
        parser.error(f"sweep reads --{', --'.join(unread)} only with --simulate")
    for name, default in SIMULATION_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "sweep":
        _simulation_flags(parser, args)
    try:
        return args.func(args)
    # LinAlgError is a ValueError, so the numerical clause must come first
    except (DesignError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    # a scenario too large to hold (numpy refuses the allocation up front)
    except (ValueError, OSError, KeyError, MemoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

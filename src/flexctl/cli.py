"""Command-line front end.

Commands: run, compare, stability-map, validate. Configuration is resolved
with precedence built-in defaults < FLEXCTL_SEED (seed only) < config file
< command-line flags. Config files are flat `key = value` lines with `#`
comments, each key set at most once; keys mirror the dataclass fields
(`params.R`, `gains.k_P`, `schedule.h_min`, `initial.theta`, `duration`, ...).

Exit codes: 0 ok, 1 failed `validate` checks, 2 usage/config error (an
unrepresentable e^(Ah) among them), 3 divergence.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .controller import GAIN_MODES
from .matseries import DEFAULT_TOL, SeriesConvergenceError
from .plant import FIDELITIES
from .simulator import (ComparisonSummary, DivergenceError, SimConfig, TraceRecord,
                        pair_gain_modes, run, with_gain_mode, write_trace_csv)
from .stability import stability_map
from .checks import run_identity_checks

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DIVERGENCE = 3


class ConfigError(ValueError):
    """Bad config file contents or inconsistent option values."""


def config_image(cfg: SimConfig) -> dict[str, object]:
    """cfg as flat `section.key` (or top-level `key`) -> value entries in
    field order: the one spelling of config files, flags and manifests."""
    image: dict[str, object] = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if is_dataclass(value):
            image.update((f"{f.name}.{g.name}", getattr(value, g.name)) for g in fields(value))
        else:
            image[f.name] = value
    return image


_DEFAULT_CONFIG = SimConfig()
# every config key with its default; a config-file value is parsed with type(default)
KEY_DEFAULTS = config_image(_DEFAULT_CONFIG)


def parse_config_file(path) -> dict[str, str]:
    """Flat `key = value` lines; `#` starts a comment; blank lines ignored;
    each key at most once."""
    values: dict[str, str] = {}
    set_on: dict[str, int] = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in set_on:
            raise ConfigError(f"{path}:{lineno}: {key!r} is already set on line {set_on[key]}")
        values[key] = value
        set_on[key] = lineno
    return values


def build_sim_config(file_values: dict[str, str] | None = None,
                     overrides: dict[str, object] | None = None) -> SimConfig:
    """Resolve a SimConfig from defaults, FLEXCTL_SEED, file, and overrides.
    An override whose value is None, or whose name is no config key, is
    ignored, so a command's parsed flags can be passed whole."""
    resolved = dict(KEY_DEFAULTS)

    env_seed = os.environ.get("FLEXCTL_SEED")
    if env_seed is not None:
        try:
            resolved["schedule.seed"] = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"FLEXCTL_SEED must be an integer, got {env_seed!r}") from exc

    for key, raw in (file_values or {}).items():
        if key not in KEY_DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            resolved[key] = type(KEY_DEFAULTS[key])(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc

    for key, value in (overrides or {}).items():
        if value is not None and key in KEY_DEFAULTS:
            resolved[key] = value

    # resolved keeps KEY_DEFAULTS' field order, so the sections are rebuilt,
    # and the first invalid one raises, in SimConfig's order
    sections: dict[str, dict[str, object]] = {}
    for key, value in resolved.items():
        section, _, name = key.rpartition(".")
        sections.setdefault(section, {})[name] = value
    top = sections.pop("")
    try:
        built = {s: replace(getattr(_DEFAULT_CONFIG, s), **kw) for s, kw in sections.items()}
        return SimConfig(**built, **top)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def write_manifest(path, command: str, cfg: SimConfig, seeds: list[int], outputs: list[str],
                   extra: dict[str, object] | None = None) -> None:
    """The command's JSON manifest, with cfg as its `config_image`.

    A non-finite float (`gains.u_sat = inf`) is written as its `repr`
    string, the spelling a config file reads back; JSON has no such number.
    """
    snapshot = {key: repr(value) if isinstance(value, float) and not math.isfinite(value) else value
                for key, value in config_image(cfg).items()}
    manifest = {
        "command": command,
        "tool_version": __version__,
        "seeds": seeds,
        "outputs": outputs,
        "config": snapshot,
    }
    if extra:
        manifest.update(extra)
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _parse_seeds(text: str) -> list[int]:
    """`3`, `1,2,5`, or `1..10` (inclusive range), each seed at most once."""
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            seeds = list(range(int(lo), int(hi) + 1))
        else:
            seeds = [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"--seeds takes `3`, `1,2,5` or `1..10`, got {text!r}") from exc
    if not seeds:
        raise ConfigError(f"--seeds range {text!r} is empty")
    if len(set(seeds)) < len(seeds):
        raise ConfigError(f"--seeds lists a seed more than once: {text!r}")
    return seeds


def _shared_flags(sub: argparse.ArgumentParser) -> None:
    """The flags of every command that resolves a SimConfig."""
    sub.add_argument("--config", type=str, default=None, help="flat key=value config file")
    sub.add_argument("--fidelity", dest="params.fidelity", choices=FIDELITIES, default=None)


def _simulation_flags(sub: argparse.ArgumentParser) -> None:
    """The flags of the commands that simulate: run and compare."""
    sub.add_argument("--seed", dest="schedule.seed", type=int, default=None)
    sub.add_argument("--duration", type=float, default=None, help="simulation horizon [s]")
    sub.add_argument("--h-min", dest="schedule.h_min", type=float, default=None)
    sub.add_argument("--h-max", dest="schedule.h_max", type=float, default=None)


def _resolve(args) -> SimConfig:
    """The command's SimConfig. A flag that sets a config key stores its
    value under that key (its dest), so every such flag is applied here."""
    if args.config == "":
        raise ConfigError("--config takes a file path, got ''")
    file_values = parse_config_file(args.config) if args.config is not None else None
    return build_sim_config(file_values, vars(args))


def _run_to_csv(cfg: SimConfig, path: Path, label: str = "") -> list[TraceRecord] | None:
    """Run cfg and write its trace to path. On divergence print
    `divergence: <label><reason>`, write the partial trace and return None."""
    try:
        trace = run(cfg)
    except DivergenceError as exc:
        print(f"divergence: {label}{exc}", file=sys.stderr)
        write_trace_csv(exc.trace, path)
        return None
    write_trace_csv(trace, path)
    return trace


def cmd_run(args) -> int:
    cfg = _resolve(args)
    out = Path(args.out)
    trace = _run_to_csv(cfg, out)
    write_manifest(out.with_suffix(".manifest.json"), "run", cfg,
                   seeds=[cfg.schedule.seed], outputs=[str(out)])
    return EXIT_OK if trace is not None else EXIT_DIVERGENCE


def cmd_compare(args) -> int:
    """Both gain modes per seed. A diverging run stops the sweep: its partial
    trace is written to that mode's CSV and the manifest lists the outputs
    written so far (no summary)."""
    cfg = _resolve(args)
    seeds = _parse_seeds(args.seeds) if args.seeds is not None else [cfg.schedule.seed]
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest_path = outdir / "compare.manifest.json"

    outputs: list[str] = []
    rows = []
    for seed in seeds:
        seeded = replace(cfg, schedule=replace(cfg.schedule, seed=seed))
        traces = []
        for mode in GAIN_MODES:
            path = outdir / (f"{mode}.csv" if len(seeds) == 1 else f"{mode}_s{seed}.csv")
            trace = _run_to_csv(with_gain_mode(seeded, mode), path, f"seed {seed}, {mode} gain: ")
            outputs.append(str(path))
            if trace is None:
                write_manifest(manifest_path, "compare", cfg, seeds=seeds, outputs=outputs)
                return EXIT_DIVERGENCE
            traces.append(trace)
        rows.append((seed, pair_gain_modes(seeded, *traces).summary))

    # one column per ComparisonSummary field; str of a float is its round-trip repr
    names = [f.name for f in fields(ComparisonSummary)]
    summary_path = outdir / "summary.csv"
    with summary_path.open("w", newline="") as f:
        f.write(",".join(["seed", *names]) + "\n")
        for seed, s in rows:
            f.write(",".join([str(seed), *(str(getattr(s, n)) for n in names)]) + "\n")
    outputs.append(str(summary_path))
    write_manifest(manifest_path, "compare", cfg, seeds=seeds, outputs=outputs)
    return EXIT_OK


def cmd_stability_map(args) -> int:
    cfg = _resolve(args)
    if not np.isfinite([args.h_min, args.h_max, args.omega_min, args.omega_max]).all():
        raise ConfigError("axis bounds must be finite")
    if args.h_min > args.h_max or args.omega_min > args.omega_max:
        raise ConfigError("axis bounds must satisfy min <= max")
    if args.n_h < 1 or args.n_omega < 1:
        raise ConfigError("grid sizes must be >= 1")
    h_values = np.linspace(args.h_min, args.h_max, args.n_h)
    omega_values = np.linspace(args.omega_min, args.omega_max, args.n_omega)
    grid = stability_map(cfg, h_values, omega_values)
    out = Path(args.out)
    grid.write_csv(out)
    write_manifest(out.with_suffix(".manifest.json"), "stability-map", cfg,
                   seeds=[], outputs=[str(out)],
                   extra={"grid": {"h_min": args.h_min, "h_max": args.h_max,
                                   "omega_min": args.omega_min, "omega_max": args.omega_max,
                                   "n_h": args.n_h, "n_omega": args.n_omega,
                                   "stable_cells": grid.stable_count()}})
    print(f"stable cells (margin <= 0): {grid.stable_count()} of {grid.margins.size}")
    return EXIT_OK


def cmd_validate(args) -> int:
    results = run_identity_checks(seed=args.seed if args.seed is not None else 0,
                                  trials=args.trials, tol=args.tol)
    width = max(len(r.name) for r in results)
    all_ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        all_ok &= r.passed
        print(f"{status}  {r.name:<{width}}  max_error={r.max_error:.3e}  tolerance={r.tolerance:.0e}")
    print("all checks passed" if all_ok else "FAILURES present")
    return EXIT_OK if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flexctl",
        description="Energy-based DC motor control under switched sampling periods.")
    parser.add_argument("--version", action="version", version=f"flexctl {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="closed-loop simulation, trace CSV out")
    _shared_flags(p_run)
    _simulation_flags(p_run)
    p_run.add_argument("--gain-mode", dest="gains.gain_mode", choices=GAIN_MODES, default=None)
    p_run.add_argument("--out", type=str, default="trace.csv")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="dynamic vs constant gain on shared schedules")
    _shared_flags(p_cmp)
    _simulation_flags(p_cmp)
    p_cmp.add_argument("--out", type=str, default=".", help="output directory")
    p_cmp.add_argument("--seeds", type=str, default=None,
                       help="seed sweep: `3`, `1,2,5`, or `1..10`")
    p_cmp.set_defaults(func=cmd_compare)

    p_map = sub.add_parser("stability-map", help="V1 margin over an (h, |omega|) grid")
    _shared_flags(p_map)
    p_map.add_argument("--out", type=str, default="stability_map.csv")
    # the map's h axis; the schedule's bounds come from the config only
    p_map.add_argument("--h-min", type=float, default=0.01)
    p_map.add_argument("--h-max", type=float, default=0.3)
    p_map.add_argument("--omega-min", type=float, default=0.0)
    p_map.add_argument("--omega-max", type=float, default=10.0)
    p_map.add_argument("--n-h", type=int, default=50)
    p_map.add_argument("--n-omega", type=int, default=50)
    p_map.add_argument("--kp", dest="gains.k_P", type=float, default=None)
    p_map.add_argument("--kd", dest="gains.k_D", type=float, default=None)
    p_map.set_defaults(func=cmd_stability_map)

    p_val = sub.add_parser("validate", help="series/discretizer identity suite vs oracles")
    p_val.add_argument("--seed", type=int, default=None)
    p_val.add_argument("--trials", type=int, default=50)
    p_val.add_argument("--tol", type=float, default=DEFAULT_TOL,
                       help="series truncation tolerance; a coarse one shows the checks can fail")
    p_val.set_defaults(func=cmd_validate)
    return parser


# argparse returns a fresh namespace on every parse, so one parser serves all calls
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    # ConfigError and SamplingTooSmallError are ValueErrors; phi raises
    # OverflowError for an unrepresentable e^(Ah)
    try:
        return args.func(args)
    except (ValueError, OverflowError, SeriesConvergenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

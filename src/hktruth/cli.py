"""Command-line front end.

Subcommands: ``bounds`` (closed-form bound report), ``simulate`` (one
seeded trajectory to CSV), ``ensemble`` (Monte Carlo summary JSON),
``verify`` (property suites), ``sweep`` (parameter grid to CSV).

Configuration comes from flags, optionally layered over a flat
``key = value`` config file (``#`` starts a comment); flags win. One
``SETTINGS`` entry gives each key's flag, type, default and help text.
Numeric CSV fields are rendered with 12 significant digits, JSON numbers
with full double precision, so outputs diff cleanly: with the same
config and seed every data artifact is byte-identical across runs (the
manifest is too, except its ``duration_seconds`` field).

Exit codes: 0 success, 1 usage or config error (a ``ValueError`` from
the library included), 2 verification failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from . import __version__
from .bounds import NoiseBounds, bounds_for_config, is_admissible
from .dynamics import ModelConfig
from .harness import (
    MODE_IID,
    MODES,
    RunSpec,
    TrajectoryRecord,
    iter_ensemble,
    run_trajectory,
    summarize,
)
from .verify import run_all

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_IO = 3

# the accepted spellings of --mode and of the mode key, each to its mode
_MODE_NAMES = {**{mode: mode for mode in MODES}, "iid": MODE_IID}

# key -> (type, default, help). The key is the config-file key and, with
# "_" written "-", the flag. A None default means unset: tail_window then
# follows the horizon, and without seekers the seekers are agents 0..m-1.
SETTINGS: dict[str, tuple[type, Any, str]] = {
    "n": (int, 20, "agent count"),
    "epsilon": (float, 0.2, "confidence threshold in (0,1]"),
    "truth": (float, 0.8, "truth value A in [0,1]"),
    "alpha": (str, "0.5", "attraction strength: scalar or per-agent comma list"),
    "delta": (float, 0.02, "noise strength >= 0"),
    "m": (int, 10, "seeker count; seekers are agents 0..m-1"),
    "seekers": (str, None, "explicit comma list of seeker indices (overrides --m)"),
    "mode": (str, "iid", "dynamics mode"),
    "horizon": (int, 1000, "steps per run"),
    "tail_window": (int, None, "trailing steps for the tail supremum (default horizon/10)"),
    "seed": (int, 0, "RNG seed: the first run's seed, or the suite seed of verify"),
    "init": (str, "uniform-random", '"uniform-random" or a comma list of initial opinions'),
    "output": (str, "out", "output directory"),
    "runs": (int, 50, "number of runs (per grid point in sweep)"),
}
_MODEL_KEYS = ("n", "epsilon", "truth", "alpha", "delta", "m", "seekers")
_RUN_KEYS = (*_MODEL_KEYS, "mode", "horizon", "tail_window", "seed", "init", "output")


class CliError(ValueError):
    """A usage or config error; main reports it and exits 1."""


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors map to exit code 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise CliError(f"{self.prog}: {message}")


def parse_config_file(path: str) -> dict[str, Any]:
    """Read a flat key = value file; '#' starts a comment. Values get their SETTINGS type."""
    values: dict[str, Any] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in SETTINGS:
            raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = SETTINGS[key][0](value)
        except ValueError as exc:
            raise CliError(f"config key {key} = {value!r} is not a number") from exc
    return values


def _parse_list(text: str, kind: Callable[[str], Any], flag: str) -> list[Any]:
    items = [part.strip() for part in text.split(",") if part.strip()]
    try:
        return [kind(v) for v in items]
    except ValueError as exc:
        noun = "integers" if kind is int else "numbers"
        raise CliError(f"{flag} expects comma-separated {noun}, got {text!r}") from exc


def build_parser() -> _Parser:
    parser = _Parser(prog="hktruth", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"hktruth {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, text: str, keys: Sequence[str]) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", metavar="FILE", help="flat key = value config file")
        for key in keys:
            kind, default, about = SETTINGS[key]
            p.add_argument(
                "--" + key.replace("_", "-"), dest=key, type=kind,
                choices=_MODE_NAMES if key == "mode" else None,
                help=about if default is None else f"{about} (default {default})",
            )
        return p

    command("bounds", "print the closed-form noise/precision bounds as JSON", _MODEL_KEYS)
    p = command("simulate", "run one seeded trajectory and write CSV + manifest", _RUN_KEYS)
    p.add_argument("--full-states", action="store_true", help="also write per-step opinion CSV")
    p = command("ensemble", "run a seeded Monte Carlo ensemble and write a summary",
                (*_RUN_KEYS, "runs"))
    p.add_argument("--per-run", action="store_true", help="also write one metrics CSV per run")
    p = command("verify", "run the property suites against the config", (*_MODEL_KEYS, "seed"))
    p.add_argument("--trials", type=int, default=200, help="trials per suite (default 200)")
    p.add_argument("--steps", type=int, default=200, help="steps per absorption trial (default 200)")
    p.add_argument("--draws", type=int, default=100_000, help="noise draws (default 100000)")
    p = command("sweep", "run one ensemble per grid point and write a CSV", (*_RUN_KEYS, "runs"))
    for flag, noun in (("--deltas", "noise strengths"), ("--alphas", "attraction strengths"),
                       ("--ms", "seeker counts"), ("--epsilons", "confidence thresholds")):
        p.add_argument(flag, help=f"comma list of {noun}")
    return parser


def _resolve(args: argparse.Namespace) -> dict[str, Any]:
    """Layer SETTINGS defaults under config-file values under explicit flags."""
    file_values = parse_config_file(args.config) if args.config else {}
    flags = {k: getattr(args, k) for k in SETTINGS if getattr(args, k, None) is not None}

    if "m" in flags and "seekers" in flags:
        raise CliError("give either --m or --seekers, not both")
    if "m" in flags or "seekers" in flags:
        file_values.pop("m", None)
        file_values.pop("seekers", None)
    elif "m" in file_values and "seekers" in file_values:
        raise CliError("config file sets both m and seekers; keep one")

    defaults = {key: entry[1] for key, entry in SETTINGS.items() if entry[1] is not None}
    settings = {**defaults, **file_values, **flags}
    settings.setdefault("tail_window", max(1, settings["horizon"] // 10))
    # checked here, so a bad value in a shared config file fails every command
    if settings["mode"] not in _MODE_NAMES:
        raise CliError(f"mode must be one of {sorted(_MODE_NAMES)}, got {settings['mode']!r}")
    settings["mode"] = _MODE_NAMES[settings["mode"]]
    for key, floor in (("runs", 1), ("seed", 0)):
        if settings[key] < floor:
            raise CliError(f"--{key} must be >= {floor}, got {settings[key]}")
    return settings


def _seeker_list(settings: dict[str, Any]) -> list[int]:
    if "seekers" in settings:
        return _parse_list(settings["seekers"], int, "--seekers")
    m = settings["m"]
    if m < 0 or m > settings["n"]:
        raise CliError(f"seeker count m must satisfy 0 <= m <= n, got m={m}")
    return list(range(m))


def _alpha_value(settings: dict[str, Any]) -> float | list[float]:
    alpha = settings["alpha"]
    if isinstance(alpha, str):
        values = _parse_list(alpha, float, "--alpha")
        return values[0] if len(values) == 1 else values
    return alpha


def build_model_config(settings: dict[str, Any]) -> ModelConfig:
    return ModelConfig(
        n=settings["n"],
        epsilon=settings["epsilon"],
        truth=settings["truth"],
        alpha=_alpha_value(settings),
        seekers=_seeker_list(settings),
        delta=settings["delta"],
    )


def build_run_spec(settings: dict[str, Any], record_states: bool = False) -> RunSpec:
    init = settings["init"]
    initial = init if init == "uniform-random" else tuple(_parse_list(init, float, "--init"))
    return RunSpec(
        config=build_model_config(settings),
        horizon=settings["horizon"],
        seed=settings["seed"],
        mode=settings["mode"],
        initial=initial,
        tail_window=settings["tail_window"],
        record_states=record_states,
    )


def _seeds(settings: dict[str, Any]) -> range:
    """The seeds of an ensemble: --runs consecutive seeds from --seed."""
    return range(settings["seed"], settings["seed"] + settings["runs"])


def _fmt(value: float) -> str:
    return format(float(value), ".12g")


def _bounds_dict(nb: NoiseBounds | None, delta: float) -> dict[str, Any] | None:
    if nb is None:
        return None
    return {
        "delta1": nb.delta1,
        "delta2": nb.delta2,
        "delta_bar": nb.delta_bar,
        "delta_lower": nb.delta_lower,
        "admissible": is_admissible(delta, nb),
    }


def _config_dict(config: ModelConfig) -> dict[str, Any]:
    homog = config.homogeneous_alpha()
    return {
        "n": config.n,
        "epsilon": config.epsilon,
        "truth": config.truth,
        "alpha": homog if homog is not None else list(config.alpha),
        "seekers": sorted(config.seekers),
        "delta": config.delta,
    }


def _write_json(path: Path, payload: dict[str, Any]) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: str, rows: Iterable[str]) -> None:
    path.write_text("\n".join([header, *rows]) + "\n")


def _step_rows(table: np.ndarray) -> Iterator[str]:
    """CSV rows "t,v_0,v_1,..." of a (steps, columns) table, with t from 0."""
    for t, row in enumerate(table.tolist()):
        yield f"{t}," + ",".join(_fmt(v) for v in row)


def _write_metrics_csv(path: Path, record: TrajectoryRecord) -> None:
    table = np.column_stack([record.d_v, record.d_s, record.d_sbar])
    _write_csv(path, "t,d_V,d_S,d_Sbar", _step_rows(table))


def _write_manifest(
    outdir: Path,
    command: str,
    spec: RunSpec,
    nb: NoiseBounds | None,
    outputs: list[str],
    duration: float,
    **run_info: Any,
) -> None:
    """Write manifest.json: the config and run parameters of ``spec``, plus ``run_info``."""
    initial = spec.initial if isinstance(spec.initial, str) else list(spec.initial)
    _write_json(outdir / "manifest.json", {
        "tool": "hktruth",
        "version": __version__,
        "command": command,
        "config": _config_dict(spec.config),
        "run": {"mode": spec.mode, "horizon": spec.horizon, "tail_window": spec.tail_window,
                "initial": initial, **run_info},
        "bounds": _bounds_dict(nb, spec.config.delta),
        "outputs": sorted([*outputs, "manifest.json"]),
        "duration_seconds": duration,
    })


def _ensure_outdir(settings: dict[str, Any]) -> Path:
    outdir = Path(settings["output"])
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def cmd_bounds(settings: dict[str, Any], args: argparse.Namespace) -> int:
    config = build_model_config(settings)
    payload = {
        "n": config.n,
        "m": config.m,
        "alpha": config.homogeneous_alpha(),
        "epsilon": config.epsilon,
        "delta": config.delta,
        **_bounds_dict(bounds_for_config(config), config.delta),
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_simulate(settings: dict[str, Any], args: argparse.Namespace) -> int:
    spec = build_run_spec(settings, record_states=args.full_states)
    started = time.perf_counter()
    record = run_trajectory(spec)
    duration = time.perf_counter() - started

    outdir = _ensure_outdir(settings)
    outputs = ["metrics.csv"]
    _write_metrics_csv(outdir / "metrics.csv", record)
    if args.full_states:
        header = "t," + ",".join(f"x_{i}" for i in range(spec.config.n))
        _write_csv(outdir / "states.csv", header, _step_rows(record.states))
        outputs.append("states.csv")
    _write_manifest(outdir, "simulate", spec, record.bounds, outputs, duration, seed=spec.seed,
                    entry_time=record.entry_time, tail_sup=record.tail_sup)
    print(
        f"simulate: mode={spec.mode} seed={spec.seed} horizon={spec.horizon} "
        f"tail_sup={_fmt(record.tail_sup)} entry_time={record.entry_time} -> {outdir}"
    )
    return EXIT_OK


def cmd_ensemble(settings: dict[str, Any], args: argparse.Namespace) -> int:
    spec = build_run_spec(settings)
    seeds = _seeds(settings)

    outdir = _ensure_outdir(settings)
    outputs: list[str] = ["summary.json"]
    started = time.perf_counter()

    def records() -> Iterator[TrajectoryRecord]:
        for index, record in enumerate(iter_ensemble(spec, seeds)):
            if args.per_run:
                outputs.append(f"run_{index:04d}.csv")
                _write_metrics_csv(outdir / outputs[-1], record)
            yield record

    summary = summarize(records())
    duration = time.perf_counter() - started

    _write_json(outdir / "summary.json", {
        "runs": summary.runs,
        "seed_base": seeds.start,
        "converged_fraction": summary.converged_fraction,
        "tail_sup": {
            "min": summary.tail_sup_min,
            "median": summary.tail_sup_median,
            "max": summary.tail_sup_max,
        },
        "entry_time": {
            "count": summary.entry_count,
            "min": summary.entry_time_min,
            "median": summary.entry_time_median,
            "max": summary.entry_time_max,
        },
        "bounds": _bounds_dict(summary.bounds, spec.config.delta),
    })
    _write_manifest(outdir, "ensemble", spec, summary.bounds, outputs, duration,
                    seed_base=seeds.start, runs=len(seeds))
    frac = summary.converged_fraction
    print(
        f"ensemble: runs={len(seeds)} seed_base={seeds.start} "
        f"converged_fraction={'n/a' if frac is None else _fmt(frac)} "
        f"tail_sup_max={_fmt(summary.tail_sup_max)} -> {outdir}"
    )
    return EXIT_OK


def cmd_verify(settings: dict[str, Any], args: argparse.Namespace) -> int:
    for flag in ("trials", "steps", "draws"):
        if getattr(args, flag) < 1:
            raise CliError(f"--{flag} must be >= 1, got {getattr(args, flag)}")
    results = run_all(build_model_config(settings), trials=args.trials, steps=args.steps,
                      draws=args.draws, seed=settings["seed"])
    failed = 0
    for res in results:
        label = res.status.upper()
        margin = "n/a" if res.margin is None else _fmt(res.margin)
        line = f"[{label}] {res.name}: trials={res.trials} margin={margin}"
        if res.note:
            line += f" ({res.note})"
        print(line)
        failed += res.failed
    print(f"verify: {len(results) - failed}/{len(results)} suites ok")
    return EXIT_VERIFY if failed else EXIT_OK


def cmd_sweep(settings: dict[str, Any], args: argparse.Namespace) -> int:
    if args.ms is not None and "seekers" in settings:
        raise CliError("give either --ms or explicit seekers, not both")
    if args.alphas is None and isinstance(_alpha_value(settings), list):
        raise CliError("sweep requires a scalar alpha")

    deltas = [settings["delta"]] if args.deltas is None else _parse_list(args.deltas, float, "--deltas")
    alphas = [_alpha_value(settings)] if args.alphas is None else _parse_list(args.alphas, float, "--alphas")
    # without --ms every grid point keeps the resolved seekers
    ms = [len(_seeker_list(settings))] if args.ms is None else _parse_list(args.ms, int, "--ms")
    epsilons = [settings["epsilon"]] if args.epsilons is None else _parse_list(args.epsilons, float, "--epsilons")
    if not (deltas and alphas and ms and epsilons):
        raise CliError("sweep grid is empty")
    seeds = _seeds(settings)

    rows = []
    specs = []
    started = time.perf_counter()
    for delta, alpha, m, epsilon in itertools.product(deltas, alphas, ms, epsilons):
        specs.append(build_run_spec(dict(settings, delta=delta, alpha=alpha, m=m, epsilon=epsilon)))
        try:
            nb = bounds_for_config(specs[-1].config)
        except ValueError as exc:
            raise CliError(f"grid point (delta={delta}, alpha={alpha}, m={m}, "
                           f"epsilon={epsilon}) is invalid: {exc}") from exc
        summary = summarize(iter_ensemble(specs[-1], seeds))
        rows.append(
            f"{_fmt(delta)},{_fmt(alpha)},{m},{_fmt(epsilon)},"
            f"{_fmt(nb.delta1)},{_fmt(nb.delta2)},{_fmt(nb.delta_bar)},{_fmt(nb.delta_lower)},"
            f"{str(is_admissible(delta, nb)).lower()},"
            f"{_fmt(summary.converged_fraction)},{_fmt(summary.tail_sup_median)}"
        )
    duration = time.perf_counter() - started

    outdir = _ensure_outdir(settings)
    header = (
        "delta,alpha,m,epsilon,delta1,delta2,delta_bar,delta_lower,admissible,"
        "converged_fraction,median_tail_sup"
    )
    _write_csv(outdir / "sweep.csv", header, rows)
    grid = {"deltas": deltas, "alphas": alphas, "ms": ms, "epsilons": epsilons}
    _write_manifest(outdir, "sweep", specs[0], bounds_for_config(specs[0].config), ["sweep.csv"],
                    duration, seed_base=seeds.start, runs=len(seeds), grid=grid)
    print(f"sweep: {len(rows)} grid points, runs={len(seeds)} each -> {outdir / 'sweep.csv'}")
    return EXIT_OK


COMMANDS: dict[str, Callable[[dict[str, Any], argparse.Namespace], int]] = {
    "bounds": cmd_bounds,
    "simulate": cmd_simulate,
    "ensemble": cmd_ensemble,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return COMMANDS[args.command](_resolve(args), args)
    except ValueError as exc:  # a CliError or a library rejection
        print(f"hktruth: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"hktruth: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: ``bounds`` (closed-form bound report), ``simulate`` (one
seeded trajectory to CSV), ``ensemble`` (Monte Carlo summary JSON),
``verify`` (property suites), ``sweep`` (parameter grid to CSV).

Configuration comes from flags, optionally layered over a flat
``key = value`` config file (``#`` starts a comment); flags win.
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
from typing import Any, Iterator, Sequence

from . import __version__
from .bounds import NoiseBounds, bounds_for_config, compute_bounds, is_admissible
from .dynamics import ModelConfig
from .harness import (
    MODE_IID,
    MODE_NOISE_FREE,
    MODE_STEERED,
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

_MODE_ALIASES = {
    "noise-free": MODE_NOISE_FREE,
    "iid": MODE_IID,
    "iid-noise": MODE_IID,
    "steered": MODE_STEERED,
}

_INT_KEYS = {"n", "m", "horizon", "tail_window", "seed", "runs"}
_FLOAT_KEYS = {"epsilon", "truth", "delta"}
_STR_KEYS = {"alpha", "seekers", "mode", "init", "output"}


class CliError(Exception):
    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors map to exit code 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise CliError(EXIT_USAGE, f"{self.prog}: {message}")


def parse_config_file(path: str) -> dict[str, str]:
    """Read a flat key = value file; '#' starts a comment."""
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(EXIT_USAGE, f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(EXIT_USAGE, f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _INT_KEYS | _FLOAT_KEYS | _STR_KEYS:
            raise CliError(EXIT_USAGE, f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value
    return values


def _parse_typed(key: str, value: str) -> Any:
    try:
        if key in _INT_KEYS:
            return int(value)
        if key in _FLOAT_KEYS:
            return float(value)
    except ValueError as exc:
        raise CliError(EXIT_USAGE, f"config key {key} = {value!r} is not a number") from exc
    return value


def _parse_float_list(text: str, flag: str) -> list[float]:
    items = [part.strip() for part in text.split(",") if part.strip()]
    try:
        return [float(v) for v in items]
    except ValueError as exc:
        raise CliError(EXIT_USAGE, f"{flag} expects comma-separated numbers, got {text!r}") from exc


def _parse_int_list(text: str, flag: str) -> list[int]:
    items = [part.strip() for part in text.split(",") if part.strip()]
    try:
        return [int(v) for v in items]
    except ValueError as exc:
        raise CliError(EXIT_USAGE, f"{flag} expects comma-separated integers, got {text!r}") from exc


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="flat key = value config file")
    parser.add_argument("--n", type=int, help="agent count (default 20)")
    parser.add_argument("--epsilon", type=float, help="confidence threshold in (0,1] (default 0.2)")
    parser.add_argument("--truth", type=float, help="truth value A in [0,1] (default 0.8)")
    parser.add_argument(
        "--alpha", help="attraction strength: scalar or per-agent comma list (default 0.5)"
    )
    parser.add_argument("--delta", type=float, help="noise strength >= 0 (default 0.02)")
    parser.add_argument("--m", type=int, help="seeker count; seekers are agents 0..m-1 (default 10)")
    parser.add_argument("--seekers", help="explicit comma list of seeker indices (overrides --m)")


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--mode", choices=["noise-free", "iid", "steered"], help="dynamics mode (default iid)"
    )
    parser.add_argument("--horizon", type=int, help="steps per run (default 1000)")
    parser.add_argument(
        "--tail-window", type=int, dest="tail_window",
        help="trailing steps for the tail supremum (default horizon/10)",
    )
    parser.add_argument("--seed", type=int, help="base RNG seed (default 0)")
    parser.add_argument("--init", help='"uniform-random" or a comma list of initial opinions')
    parser.add_argument("--output", help="output directory (default ./out)")


def build_parser() -> _Parser:
    parser = _Parser(prog="hktruth", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"hktruth {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="print the closed-form noise/precision bounds as JSON")
    _add_model_flags(p)

    p = sub.add_parser("simulate", help="run one seeded trajectory and write CSV + manifest")
    _add_model_flags(p)
    _add_run_flags(p)
    p.add_argument("--full-states", action="store_true", help="also write per-step opinion CSV")

    p = sub.add_parser("ensemble", help="run a seeded Monte Carlo ensemble and write a summary")
    _add_model_flags(p)
    _add_run_flags(p)
    p.add_argument("--runs", type=int, help="number of runs (default 50)")
    p.add_argument("--per-run", action="store_true", help="also write one metrics CSV per run")

    p = sub.add_parser("verify", help="run the property suites against the config")
    _add_model_flags(p)
    p.add_argument("--trials", type=int, default=200, help="trials per suite (default 200)")
    p.add_argument("--steps", type=int, default=200, help="steps per absorption trial (default 200)")
    p.add_argument("--draws", type=int, default=100_000, help="noise draws (default 100000)")
    p.add_argument("--seed", type=int, help="suite RNG seed (default 0)")

    p = sub.add_parser("sweep", help="run one ensemble per grid point and write a CSV")
    _add_model_flags(p)
    _add_run_flags(p)
    p.add_argument("--runs", type=int, help="runs per grid point (default 50)")
    p.add_argument("--deltas", help="comma list of noise strengths")
    p.add_argument("--alphas", help="comma list of attraction strengths")
    p.add_argument("--ms", help="comma list of seeker counts")
    p.add_argument("--epsilons", help="comma list of confidence thresholds")
    return parser


def _resolve(args: argparse.Namespace) -> dict[str, Any]:
    """Layer defaults under config-file values under explicit flags."""
    settings: dict[str, Any] = {}
    if getattr(args, "config", None):
        file_values = parse_config_file(args.config)
    else:
        file_values = {}
    file_typed = {k: _parse_typed(k, v) for k, v in file_values.items()}

    flag_keys = (
        "n", "epsilon", "truth", "alpha", "delta", "m", "seekers",
        "mode", "horizon", "tail_window", "seed", "init", "output", "runs",
    )
    flags = {k: getattr(args, k) for k in flag_keys if getattr(args, k, None) is not None}

    if "m" in flags and "seekers" in flags:
        raise CliError(EXIT_USAGE, "give either --m or --seekers, not both")
    if "m" in flags or "seekers" in flags:
        file_typed.pop("m", None)
        file_typed.pop("seekers", None)
    elif "m" in file_typed and "seekers" in file_typed:
        raise CliError(EXIT_USAGE, "config file sets both m and seekers; keep one")

    settings.update(file_typed)
    settings.update(flags)

    settings.setdefault("n", 20)
    settings.setdefault("epsilon", 0.2)
    settings.setdefault("truth", 0.8)
    settings.setdefault("alpha", 0.5)
    settings.setdefault("delta", 0.02)
    settings.setdefault("mode", "iid")
    settings.setdefault("horizon", 1000)
    settings.setdefault("tail_window", max(1, settings["horizon"] // 10))
    settings.setdefault("seed", 0)
    settings.setdefault("init", "uniform-random")
    settings.setdefault("output", "out")
    settings.setdefault("runs", 50)
    if "seekers" not in settings:
        settings.setdefault("m", 10)
    return settings


def _seeker_list(settings: dict[str, Any]) -> list[int]:
    if "seekers" in settings:
        raw = settings["seekers"]
        return _parse_int_list(raw, "--seekers") if isinstance(raw, str) else list(raw)
    m = settings["m"]
    if m < 0 or m > settings["n"]:
        raise CliError(EXIT_USAGE, f"seeker count m must satisfy 0 <= m <= n, got m={m}")
    return list(range(m))


def _alpha_value(settings: dict[str, Any]) -> float | list[float]:
    alpha = settings["alpha"]
    if isinstance(alpha, str):
        values = _parse_float_list(alpha, "--alpha")
        if not values:
            raise CliError(EXIT_USAGE, "--alpha needs at least one value")
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


def build_run_spec(settings: dict[str, Any], config: ModelConfig, record_states: bool = False) -> RunSpec:
    init = settings["init"]
    initial: str | tuple[float, ...]
    if isinstance(init, str) and init != "uniform-random":
        initial = tuple(_parse_float_list(init, "--init"))
    else:
        initial = init
    mode = settings["mode"]
    if mode not in _MODE_ALIASES:
        raise CliError(EXIT_USAGE, f"unknown mode {mode!r}; use noise-free, iid or steered")
    return RunSpec(
        config=config,
        horizon=settings["horizon"],
        seed=settings["seed"],
        mode=_MODE_ALIASES[mode],
        initial=initial,
        tail_window=settings["tail_window"],
        record_states=record_states,
    )


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
    alpha: float | list[float]
    homog = config.homogeneous_alpha()
    alpha = homog if homog is not None else list(config.alpha)
    return {
        "n": config.n,
        "epsilon": config.epsilon,
        "truth": config.truth,
        "alpha": alpha,
        "seekers": sorted(config.seekers),
        "delta": config.delta,
    }


def _write_json(path: Path, payload: dict[str, Any]) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_metrics_csv(path: Path, record: TrajectoryRecord) -> None:
    lines = ["t,d_V,d_S,d_Sbar"]
    for t in range(record.d_v.shape[0]):
        lines.append(
            f"{t},{_fmt(record.d_v[t])},{_fmt(record.d_s[t])},{_fmt(record.d_sbar[t])}"
        )
    path.write_text("\n".join(lines) + "\n")


def _write_states_csv(path: Path, record: TrajectoryRecord) -> None:
    n = record.states.shape[1]
    lines = ["t," + ",".join(f"x_{i}" for i in range(n))]
    for t in range(record.states.shape[0]):
        lines.append(f"{t}," + ",".join(_fmt(v) for v in record.states[t]))
    path.write_text("\n".join(lines) + "\n")


def _manifest(
    command: str,
    config: ModelConfig,
    run_info: dict[str, Any],
    outputs: list[str],
    duration: float,
) -> dict[str, Any]:
    try:
        nb = bounds_for_config(config)
    except ValueError:
        nb = None
    return {
        "tool": "hktruth",
        "version": __version__,
        "command": command,
        "config": _config_dict(config),
        "run": run_info,
        "bounds": _bounds_dict(nb, config.delta),
        "outputs": sorted(outputs),
        "duration_seconds": duration,
    }


def _ensure_outdir(settings: dict[str, Any]) -> Path:
    outdir = Path(settings["output"])
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def cmd_bounds(settings: dict[str, Any]) -> int:
    config = build_model_config(settings)
    nb = bounds_for_config(config)
    alpha = config.homogeneous_alpha()
    payload = {
        "n": config.n,
        "m": config.m,
        "alpha": alpha,
        "epsilon": config.epsilon,
        "delta": config.delta,
        **_bounds_dict(nb, config.delta),
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_simulate(settings: dict[str, Any], full_states: bool) -> int:
    config = build_model_config(settings)
    spec = build_run_spec(settings, config, record_states=full_states)
    started = time.perf_counter()
    record = run_trajectory(spec)
    duration = time.perf_counter() - started

    outdir = _ensure_outdir(settings)
    outputs = ["metrics.csv"]
    _write_metrics_csv(outdir / "metrics.csv", record)
    if full_states:
        _write_states_csv(outdir / "states.csv", record)
        outputs.append("states.csv")
    run_info = {
        "mode": spec.mode,
        "horizon": spec.horizon,
        "tail_window": spec.tail_window,
        "seed": spec.seed,
        "initial": spec.initial if isinstance(spec.initial, str) else list(spec.initial),
        "entry_time": record.entry_time,
        "tail_sup": record.tail_sup,
    }
    _write_json(
        outdir / "manifest.json",
        _manifest("simulate", config, run_info, outputs + ["manifest.json"], duration),
    )
    print(
        f"simulate: mode={spec.mode} seed={spec.seed} horizon={spec.horizon} "
        f"tail_sup={_fmt(record.tail_sup)} entry_time={record.entry_time} -> {outdir}"
    )
    return EXIT_OK


def cmd_ensemble(settings: dict[str, Any], per_run: bool) -> int:
    config = build_model_config(settings)
    spec = build_run_spec(settings, config)
    runs = settings["runs"]
    if runs < 1:
        raise CliError(EXIT_USAGE, f"--runs must be >= 1, got {runs}")
    seed_base = settings["seed"]

    outdir = _ensure_outdir(settings)
    outputs: list[str] = ["summary.json"]
    started = time.perf_counter()

    def records() -> Iterator[TrajectoryRecord]:
        for index, record in enumerate(iter_ensemble(spec, runs, seed_base)):
            if per_run:
                outputs.append(f"run_{index:04d}.csv")
                _write_metrics_csv(outdir / outputs[-1], record)
            yield record

    summary = summarize(records(), runs, seed_base)
    duration = time.perf_counter() - started

    payload = {
        "runs": summary.runs,
        "seed_base": summary.seed_base,
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
        "bounds": _bounds_dict(summary.bounds, config.delta),
    }
    _write_json(outdir / "summary.json", payload)
    run_info = {
        "mode": spec.mode,
        "horizon": spec.horizon,
        "tail_window": spec.tail_window,
        "seed_base": seed_base,
        "runs": runs,
        "initial": spec.initial if isinstance(spec.initial, str) else list(spec.initial),
    }
    _write_json(
        outdir / "manifest.json",
        _manifest("ensemble", config, run_info, outputs + ["manifest.json"], duration),
    )
    frac = summary.converged_fraction
    print(
        f"ensemble: runs={runs} seed_base={seed_base} "
        f"converged_fraction={'n/a' if frac is None else _fmt(frac)} "
        f"tail_sup_max={_fmt(summary.tail_sup_max)} -> {outdir}"
    )
    return EXIT_OK


def cmd_verify(settings: dict[str, Any], trials: int, steps: int, draws: int) -> int:
    for flag, value in (("--trials", trials), ("--steps", steps), ("--draws", draws)):
        if value < 1:
            raise CliError(EXIT_USAGE, f"{flag} must be >= 1, got {value}")
    if settings["seed"] < 0:
        raise CliError(EXIT_USAGE, f"--seed must be >= 0, got {settings['seed']}")
    config = build_model_config(settings)
    results = run_all(config, trials=trials, steps=steps, draws=draws, seed=settings["seed"])
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
    deltas = _parse_float_list(args.deltas, "--deltas") if args.deltas is not None else [settings["delta"]]
    alphas = _parse_float_list(args.alphas, "--alphas") if args.alphas is not None else None
    if alphas is None:
        base_alpha = _alpha_value(settings)
        if isinstance(base_alpha, list):
            raise CliError(EXIT_USAGE, "sweep requires a scalar alpha")
        alphas = [base_alpha]
    ms = _parse_int_list(args.ms, "--ms") if args.ms is not None else [len(_seeker_list(settings))]
    epsilons = (
        _parse_float_list(args.epsilons, "--epsilons") if args.epsilons is not None else [settings["epsilon"]]
    )
    if not (deltas and alphas and ms and epsilons):
        raise CliError(EXIT_USAGE, "sweep grid is empty")

    runs = settings["runs"]
    seed_base = settings["seed"]
    rows = []
    started = time.perf_counter()
    for delta, alpha, m, epsilon in itertools.product(deltas, alphas, ms, epsilons):
        point = dict(settings)
        point.update({"delta": delta, "alpha": alpha, "epsilon": epsilon, "m": m})
        point.pop("seekers", None)
        config = build_model_config(point)
        try:
            nb = bounds_for_config(config)
        except ValueError as exc:
            raise CliError(EXIT_USAGE, f"grid point (delta={delta}, alpha={alpha}, m={m}, "
                                       f"epsilon={epsilon}) is invalid: {exc}") from exc
        spec = build_run_spec(point, config)
        summary = summarize(iter_ensemble(spec, runs, seed_base), runs, seed_base)
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
    (outdir / "sweep.csv").write_text("\n".join([header] + rows) + "\n")
    run_info = {
        "mode": _MODE_ALIASES[settings["mode"]] if settings["mode"] in _MODE_ALIASES else settings["mode"],
        "horizon": settings["horizon"],
        "tail_window": settings["tail_window"],
        "seed_base": seed_base,
        "runs": runs,
        "grid": {"deltas": deltas, "alphas": alphas, "ms": ms, "epsilons": epsilons},
    }
    config = build_model_config(dict(settings, m=ms[0], delta=deltas[0], alpha=alphas[0], epsilon=epsilons[0]))
    _write_json(
        outdir / "manifest.json",
        _manifest("sweep", config, run_info, ["sweep.csv", "manifest.json"], duration),
    )
    print(f"sweep: {len(rows)} grid points, runs={runs} each -> {outdir / 'sweep.csv'}")
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        settings = _resolve(args)
        if args.command == "bounds":
            return cmd_bounds(settings)
        if args.command == "simulate":
            return cmd_simulate(settings, full_states=args.full_states)
        if args.command == "ensemble":
            return cmd_ensemble(settings, per_run=args.per_run)
        if args.command == "verify":
            return cmd_verify(settings, trials=args.trials, steps=args.steps, draws=args.draws)
        if args.command == "sweep":
            return cmd_sweep(settings, args)
        raise CliError(EXIT_USAGE, f"unknown command {args.command!r}")
    except (CliError, ValueError) as exc:
        print(f"hktruth: error: {exc}", file=sys.stderr)
        return exc.code if isinstance(exc, CliError) else EXIT_USAGE
    except OSError as exc:
        print(f"hktruth: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

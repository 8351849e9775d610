"""Command-line front end.

Subcommands: ``bounds`` (closed-form bound report), ``simulate`` (one
seeded trajectory to CSV), ``ensemble`` (Monte Carlo summary JSON),
``verify`` (property suites), ``sweep`` (parameter grid to CSV).

Configuration comes from flags, optionally layered over a flat
``key = value`` config file (``#`` starts a comment); flags win. One
``SETTINGS`` entry gives each key's flag, parser, default and help text;
that parser reads the flag and the config-file value alike, so each value
is checked once, as it is read. Numeric CSV fields are rendered with 12
significant digits, JSON numbers with full double precision, so outputs
diff cleanly: with the same config and seed every data artifact is
byte-identical across runs (the manifest is too, except its
``duration_seconds`` field).

Exit codes: 0 success, 1 usage or config error (a ``ValueError`` from
the library included), 2 verification failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from . import __version__
from .bounds import NoiseBounds, bounds_for_config
from .dynamics import ModelConfig, _check_int
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


def _comma_list(text: str, kind: Callable[[str], Any] = float) -> list[Any]:
    """The comma-separated ``kind`` values of ``text``; empty items are dropped."""
    try:
        return [kind(item) for item in text.split(",") if item.strip()]
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise argparse.ArgumentTypeError(f"expects comma-separated {noun}, got {text!r}") from None


_ints = functools.partial(_comma_list, kind=int)


def _alpha(text: str) -> float | list[float]:
    values = _comma_list(text)
    return values[0] if len(values) == 1 else values


def _init(text: str) -> str | list[float]:
    return text if text == "uniform-random" else _comma_list(text)


def _mode(text: str) -> str:
    if text not in _MODE_NAMES:
        raise argparse.ArgumentTypeError(f"expects one of {', '.join(_MODE_NAMES)}, got {text!r}")
    return _MODE_NAMES[text]


# key -> (parser, default, help). The key is the config-file key and, with
# "_" written "-", the flag. A None default means unset: tail_window then
# follows the horizon, and without seekers the seekers are agents 0..m-1.
SETTINGS: dict[str, tuple[Callable[[str], Any], Any, str]] = {
    "n": (int, 20, "agent count"),
    "epsilon": (float, 0.2, "confidence threshold in (0,1]"),
    "truth": (float, 0.8, "truth value A in [0,1]"),
    "alpha": (_alpha, 0.5, "attraction strength: scalar or per-agent comma list"),
    "delta": (float, 0.02, "noise strength >= 0"),
    "m": (int, 10, "seeker count; seekers are agents 0..m-1"),
    "seekers": (_ints, None, "explicit comma list of seeker indices (overrides --m)"),
    "mode": (_mode, MODE_IID, f"dynamics mode: {', '.join(MODES)}, or iid for {MODE_IID}"),
    "horizon": (int, 1000, "steps per run"),
    "tail_window": (int, None, "trailing steps for the tail supremum (default horizon/10)"),
    "seed": (int, 0, "RNG seed: the first run's seed, or the suite seed of verify"),
    "init": (_init, "uniform-random", '"uniform-random" or a comma list of initial opinions'),
    "output": (str, "out", "output directory"),
    "runs": (int, 50, "number of runs (per grid point in sweep)"),
}
_MODEL_KEYS = ("n", "epsilon", "truth", "alpha", "delta", "m", "seekers")
_RUN_KEYS = (*_MODEL_KEYS, "mode", "horizon", "tail_window", "seed", "init", "output")

# sweep axis flag -> (the SETTINGS key it varies, parser, help noun); the
# grid is the product of the axes in this order
_SWEEP_AXES = {
    "deltas": ("delta", _comma_list, "noise strengths"),
    "alphas": ("alpha", _comma_list, "attraction strengths"),
    "ms": ("m", _ints, "seeker counts"),
    "epsilons": ("epsilon", _comma_list, "confidence thresholds"),
}


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors map to exit code 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise ValueError(f"{self.prog}: {message}")


def parse_config_file(path: str) -> dict[str, Any]:
    """Read a flat key = value file; '#' starts a comment. SETTINGS parsers read the values."""
    values: dict[str, Any] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in SETTINGS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = SETTINGS[key][0](value)
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"config key {key} {exc}") from None
        except ValueError as exc:
            raise ValueError(f"config key {key} = {value!r} is not a number") from exc
    return values


@functools.cache  # one parser per process: argparse reads the help width as it formats
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
    for axis, (_, parse, noun) in _SWEEP_AXES.items():
        p.add_argument("--" + axis, type=parse, help=f"comma list of {noun}")
    return parser


def _resolve(args: argparse.Namespace) -> dict[str, Any]:
    """Layer SETTINGS defaults under config-file values under explicit flags."""
    file_values = parse_config_file(args.config) if args.config else {}
    flags = {k: getattr(args, k) for k in SETTINGS if getattr(args, k, None) is not None}

    if "m" in flags and "seekers" in flags:
        raise ValueError("give either --m or --seekers, not both")
    if "m" in flags or "seekers" in flags:
        file_values.pop("m", None)
        file_values.pop("seekers", None)
    elif "m" in file_values and "seekers" in file_values:
        raise ValueError("config file sets both m and seekers; keep one")

    defaults = {key: entry[1] for key, entry in SETTINGS.items() if entry[1] is not None}
    settings = {**defaults, **file_values, **flags}
    settings.setdefault("tail_window", max(1, settings["horizon"] // 10))
    # checked here, so a bad value in a shared config file fails every command
    for key, floor in (("runs", 1), ("seed", 0), ("trials", 1), ("steps", 1), ("draws", 1)):
        # trials, steps and draws are verify flags
        _check_int(f"--{key}", settings.get(key, getattr(args, key, floor)), floor)
    return settings


def build_model_config(settings: dict[str, Any]) -> ModelConfig:
    if "seekers" not in settings:  # n first, so m's range is never empty
        _check_int("n", settings["n"], 1)
        _check_int("m", settings["m"], 0, settings["n"])
    return ModelConfig(
        n=settings["n"],
        epsilon=settings["epsilon"],
        truth=settings["truth"],
        alpha=settings["alpha"],
        seekers=settings.get("seekers", range(settings["m"])),
        delta=settings["delta"],
    )


def build_run_spec(settings: dict[str, Any], record_states: bool = False) -> RunSpec:
    return RunSpec(
        config=build_model_config(settings),
        horizon=settings["horizon"],
        seed=settings["seed"],
        mode=settings["mode"],
        initial=settings["init"],
        tail_window=settings["tail_window"],
        record_states=record_states,
    )


def _seeds(settings: dict[str, Any]) -> range:
    """The seeds of an ensemble: --runs consecutive seeds from --seed."""
    return range(settings["seed"], settings["seed"] + settings["runs"])


def _fmt(value: float) -> str:
    return format(float(value), ".12g")


def _bounds_dict(nb: NoiseBounds | None) -> dict[str, Any] | None:
    return None if nb is None else dataclasses.asdict(nb)


class _Output:
    """A command's output directory, the files written to it and its clock.

    The directory is made at the first write, so a command that fails
    before writing leaves none. The manifest lists every file written and
    the seconds since the writer was made, just before the runs: so they
    cover the runs and every file written before the manifest.
    """

    def __init__(self, settings: dict[str, Any]) -> None:
        self.dir, self.names, self.started = Path(settings["output"]), [], time.perf_counter()

    def write(self, name: str, text: str) -> None:
        if not self.names:
            self.dir.mkdir(parents=True, exist_ok=True)
        (self.dir / name).write_text(text)
        self.names.append(name)

    def json(self, name: str, payload: dict[str, Any]) -> None:
        self.write(name, json.dumps(payload, indent=2, sort_keys=True) + "\n")

    def csv(self, name: str, header: str, rows: Iterable[str]) -> None:
        self.write(name, "\n".join([header, *rows]) + "\n")

    def steps(self, name: str, columns: Iterable[str], table: np.ndarray) -> None:
        """A CSV of a (steps, columns) table: "t,<columns>", then a row per step from t = 0."""
        row = "%d," + ",".join(["%.12g"] * table.shape[1])  # each value as _fmt writes it
        rows = (row % (t, *values) for t, values in enumerate(table.tolist()))
        self.csv(name, ",".join(["t", *columns]), rows)

    def metrics(self, name: str, record: TrajectoryRecord) -> None:
        self.steps(name, ("d_V", "d_S", "d_Sbar"),
                   np.column_stack([record.d_v, record.d_s, record.d_sbar]))

    def manifest(self, command: str, spec: RunSpec, nb: NoiseBounds | None,
                 **run_info: Any) -> None:
        """Write manifest.json: the config and run parameters of ``spec``, plus ``run_info``."""
        config, alpha = spec.config, spec.config.homogeneous_alpha()
        self.json("manifest.json", {
            "tool": "hktruth",
            "version": __version__,
            "command": command,
            "config": {"n": config.n, "epsilon": config.epsilon, "truth": config.truth,
                       "alpha": list(config.alpha) if alpha is None else alpha,
                       "seekers": sorted(config.seekers), "delta": config.delta},
            "run": {"mode": spec.mode, "horizon": spec.horizon, "tail_window": spec.tail_window,
                    "initial": spec.initial, **run_info},
            "bounds": _bounds_dict(nb),
            "outputs": sorted([*self.names, "manifest.json"]),
            "duration_seconds": time.perf_counter() - self.started,
        })


def cmd_bounds(settings: dict[str, Any], args: argparse.Namespace) -> int:
    config = build_model_config(settings)
    payload = {
        "n": config.n,
        "m": config.m,
        "alpha": config.homogeneous_alpha(),
        "epsilon": config.epsilon,
        "delta": config.delta,
        **_bounds_dict(bounds_for_config(config)),
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_simulate(settings: dict[str, Any], args: argparse.Namespace) -> int:
    spec = build_run_spec(settings, record_states=args.full_states)
    out = _Output(settings)
    record = run_trajectory(spec)
    out.metrics("metrics.csv", record)
    if args.full_states:
        out.steps("states.csv", (f"x_{i}" for i in range(spec.config.n)), record.states)
    out.manifest("simulate", spec, record.bounds, seed=spec.seed,
                 entry_time=record.entry_time, tail_sup=record.tail_sup)
    print(
        f"simulate: mode={spec.mode} seed={spec.seed} horizon={spec.horizon} "
        f"tail_sup={_fmt(record.tail_sup)} entry_time={record.entry_time} -> {out.dir}"
    )
    return EXIT_OK


def cmd_ensemble(settings: dict[str, Any], args: argparse.Namespace) -> int:
    spec = build_run_spec(settings)
    seeds = _seeds(settings)
    out = _Output(settings)

    def records() -> Iterator[TrajectoryRecord]:
        for index, record in enumerate(iter_ensemble(spec, seeds)):
            if args.per_run:
                out.metrics(f"run_{index:04d}.csv", record)
            yield record

    summary = summarize(records())
    out.json("summary.json", {
        "runs": summary.runs,
        "seed_base": seeds.start,
        "converged_fraction": summary.converged_fraction,
        "tail_sup": {"min": summary.tail_sup_min, "median": summary.tail_sup_median,
                     "max": summary.tail_sup_max},
        "entry_time": {"count": summary.entry_count, "min": summary.entry_time_min,
                       "median": summary.entry_time_median, "max": summary.entry_time_max},
        "bounds": _bounds_dict(summary.bounds),
    })
    out.manifest("ensemble", spec, summary.bounds, seed_base=seeds.start, runs=len(seeds))
    frac = summary.converged_fraction
    print(
        f"ensemble: runs={len(seeds)} seed_base={seeds.start} "
        f"converged_fraction={'n/a' if frac is None else _fmt(frac)} "
        f"tail_sup_max={_fmt(summary.tail_sup_max)} -> {out.dir}"
    )
    return EXIT_OK


def cmd_verify(settings: dict[str, Any], args: argparse.Namespace) -> int:
    results = run_all(build_model_config(settings), trials=args.trials, steps=args.steps,
                      draws=args.draws, seed=settings["seed"])
    failed = 0
    for res in results:
        margin = "n/a" if res.margin is None else _fmt(res.margin)
        note = f" ({res.note})" if res.note else ""
        print(f"[{res.status.upper()}] {res.name}: trials={res.trials} margin={margin}{note}")
        failed += res.failed
    print(f"verify: {len(results) - failed}/{len(results)} suites ok")
    return EXIT_VERIFY if failed else EXIT_OK


def cmd_sweep(settings: dict[str, Any], args: argparse.Namespace) -> int:
    if args.ms is not None and "seekers" in settings:
        raise ValueError("give either --ms or explicit seekers, not both")
    if args.alphas is None and isinstance(settings["alpha"], list):
        raise ValueError("sweep requires a scalar alpha")

    # an axis not given takes its one value from settings; without --ms,
    # every grid point keeps the resolved seekers
    base = dict(settings, m=len(settings["seekers"]) if "seekers" in settings else settings["m"])
    grid = {axis: [base[key]] if getattr(args, axis) is None else getattr(args, axis)
            for axis, (key, _, _) in _SWEEP_AXES.items()}
    if not all(grid.values()):
        raise ValueError("sweep grid is empty")
    # every grid point's spec and bounds, checked before the first run
    plan = []
    for delta, alpha, m, epsilon in itertools.product(*grid.values()):
        try:
            spec = build_run_spec(dict(settings, delta=delta, alpha=alpha, m=m, epsilon=epsilon))
            plan.append((spec, bounds_for_config(spec.config)))
        except ValueError as exc:
            raise ValueError(f"grid point (delta={delta}, alpha={alpha}, m={m}, "
                             f"epsilon={epsilon}) is invalid: {exc}") from exc
    seeds = _seeds(settings)
    out = _Output(settings)

    rows = []
    for spec, nb in plan:
        cfg = spec.config
        summary = summarize(iter_ensemble(spec, seeds))
        fields = (cfg.delta, cfg.alpha[0], cfg.m, cfg.epsilon,
                  nb.delta1, nb.delta2, nb.delta_bar, nb.delta_lower)
        rows.append(",".join([*map(_fmt, fields), str(nb.admissible).lower(),
                              _fmt(summary.converged_fraction), _fmt(summary.tail_sup_median)]))

    header = ("delta,alpha,m,epsilon,delta1,delta2,delta_bar,delta_lower,admissible,"
              "converged_fraction,median_tail_sup")
    out.csv("sweep.csv", header, rows)
    out.manifest("sweep", *plan[0], seed_base=seeds.start, runs=len(seeds), grid=grid)
    print(f"sweep: {len(rows)} grid points, runs={len(seeds)} each -> {out.dir / 'sweep.csv'}")
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
    except ValueError as exc:  # a usage error or a library rejection
        print(f"hktruth: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"hktruth: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

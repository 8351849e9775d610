"""The real rule: a real model parameter is a number in a stated interval, never a bool or a string.

Every boundary that takes one checks it with ``dynamics._check_real``. Each
refuses True, np.True_, a numeric string, a list or 1-d array of one
number, a complex, a Fraction, NaN and the value just outside each end
of its interval (for an open end, the end itself), with a ValueError that
names the field and prints the interval; each accepts an interior value
as a NumPy float32 and as a 0-d array. The check runs where a config,
bounds or a noise block is built, and in ``neighbor_means``, never inside
a step. Opinions are checked at the same boundaries, never by the step
kernel or the run loop.
"""

from __future__ import annotations

import argparse
import math
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import hktruth.bounds
import hktruth.dynamics as dyn
from hktruth.bounds import block_length, compute_bounds, steered_noise
from hktruth.cli import _resolve, build_model_config
from hktruth.dynamics import ModelConfig
from hktruth.harness import MODES, RunSpec, draw_noise, run_trajectory
from hktruth.verify import check_quarter_bands, sample_admissible_config

# a value inside every interval below
INSIDE = 0.01


def _rng():
    return np.random.Generator(np.random.PCG64(0))


def _cli(key, value):
    """The config the CLI builds from its defaults with ``key`` set to ``value``."""
    return build_model_config({**_resolve(argparse.Namespace(config=None)), key: value})


# id, the call that takes the value, field name, interval
BOUNDARIES = [
    ("ModelConfig.epsilon", lambda v: ModelConfig(3, v, 0.8, 0.5, [], 0.01), "epsilon", "(0, 1]"),
    ("ModelConfig.truth", lambda v: ModelConfig(3, 0.2, v, 0.5, [], 0.01), "truth", "[0, 1]"),
    ("ModelConfig.delta", lambda v: ModelConfig(3, 0.2, 0.8, 0.5, [], v), "delta", "[0, inf)"),
    ("ModelConfig.alpha[1]", lambda v: ModelConfig(3, 0.2, 0.8, [0.5, v, 0.5], [0], 0.01),
     "alpha[1]", "[0, 1]"),
    ("ModelConfig.seeker-alpha[1]", lambda v: ModelConfig(3, 0.2, 0.8, [0.5, v, 0.5], [1], 0.01),
     "alpha[1]", "(0, 1]"),
    ("compute_bounds.alpha", lambda v: compute_bounds(4, 1, v, 0.2, 0.01), "alpha", "(0, 1]"),
    ("compute_bounds.epsilon", lambda v: compute_bounds(4, 1, 0.5, v, 0.01), "epsilon", "(0, 1]"),
    ("compute_bounds.delta", lambda v: compute_bounds(4, 1, 0.5, 0.2, v), "delta", "[0, inf)"),
    ("block_length", block_length, "delta", "(0, 1)"),
    ("draw_noise", lambda v: draw_noise(_rng(), 3, v), "delta", "[0, inf)"),
    ("check_quarter_bands", lambda v: check_quarter_bands(draws=10, delta=v), "delta", "[0, inf)"),
    # a sampled config takes another delta only through replace
    ("sample_admissible_config.replace-delta",
     lambda v: replace(sample_admissible_config(_rng()), delta=v), "delta", "[0, inf)"),
    ("cli.epsilon", lambda v: _cli("epsilon", v), "epsilon", "(0, 1]"),
    ("cli.truth", lambda v: _cli("truth", v), "truth", "[0, 1]"),
    ("cli.delta", lambda v: _cli("delta", v), "delta", "[0, inf)"),
]
# a scalar alpha is one value for every agent; a list is one per agent, so
# these refuse all of the above but the list
SCALAR_ALPHA = [
    ("ModelConfig.alpha", lambda v: ModelConfig(3, 0.2, 0.8, v, [], 0.01), "alpha", "[0, 1]"),
    ("ModelConfig.seeker-alpha", lambda v: ModelConfig(3, 0.2, 0.8, v, [0], 0.01),
     "alpha", "(0, 1]"),
    # the default settings name seekers
    ("cli.alpha", lambda v: _cli("alpha", v), "alpha", "(0, 1]"),
]


def _outside(interval):
    """The values just outside each end: the end itself where it is open."""
    low, high = (float(end) for end in interval[1:-1].split(", "))
    yield math.nextafter(low, -math.inf) if interval[0] == "[" else low
    yield math.nextafter(high, math.inf) if interval[-1] == "]" else high


def _refused():
    for rows, lists in ((BOUNDARIES, True), (SCALAR_ALPHA, False)):
        for name, call, field, interval in rows:
            values = [True, np.True_, "0.5", 0.5 + 0j, Fraction(1, 2), math.nan,
                      *([[0.5], np.array([0.5])] if lists else []), *_outside(interval)]
            for value in values:
                message = f"{field} must be a real number in {interval}, got {value!r}"
                yield pytest.param(call, value, f"^{re.escape(message)}$", id=f"{name}-{value!r}")


@pytest.mark.parametrize("call, value, message", _refused())
def test_boundary_refuses_what_is_not_a_real_number_in_range(call, value, message):
    with pytest.raises(ValueError, match=message):
        call(value)


@pytest.mark.parametrize("call, field", [pytest.param(call, field, id=name)
                                         for name, call, field, interval in BOUNDARIES
                                         if interval == "[0, inf)"])
def test_an_int_beyond_the_float_range_is_refused(call, field):
    # it lies in [0, inf), but float() cannot hold it
    message = f"{field} must be a real number in [0, inf), got {10**400!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(10**400)


@pytest.mark.parametrize("call, field, interval, value", [
    *(pytest.param(call, field, interval, np.longdouble("1e400"), id=f"{name}-1e400")
      for name, call, field, interval in BOUNDARIES if interval == "[0, inf)"),
    *(pytest.param(call, field, interval, np.longdouble("1e-4000"), id=f"{name}-1e-4000")
      for name, call, field, interval in BOUNDARIES + SCALAR_ALPHA if interval == "(0, 1]"),
])
def test_a_long_double_that_rounds_out_of_the_interval_is_refused(call, field, interval, value):
    # it lies in the interval, but as a float it is inf, or 0 at an open end
    message = f"{field} must be a real number in {interval}, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("kind", [np.float32, np.array])
@pytest.mark.parametrize("call", [pytest.param(call, id=name)
                                  for name, call, _, _ in BOUNDARIES + SCALAR_ALPHA])
def test_boundary_accepts_an_interior_float32_and_0d_array(call, kind):
    call(kind(INSIDE))


@pytest.mark.parametrize("alpha, message", [
    (["0.5"] * 3, "alpha[0] must be a real number in [0, 1], got '0.5'"),
    ([0.5, True, 0.5], "alpha[1] must be a real number in [0, 1], got True"),
    ([0.5, 0.5, 0.0], "alpha[2] must be a real number in (0, 1], got 0.0"),
    (np.array([0.5, 1.5, 0.5]),
     f"alpha[1] must be a real number in [0, 1], got {np.float64(1.5)!r}"),
])
def test_per_agent_alpha_names_the_agent(alpha, message):
    # agent 2 is the seeker
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ModelConfig(3, 0.2, 0.8, alpha, [2], 0.01)


def test_checked_values_are_stored_as_floats():
    cfg = ModelConfig(2, np.float32(0.25), np.array(1), [np.int64(1), np.array(0.5)], [0], 0)
    assert (cfg.epsilon, cfg.truth, cfg.alpha, cfg.delta) == (0.25, 1.0, (1.0, 0.5), 0.0)
    assert all(type(v) is float for v in (cfg.epsilon, cfg.truth, *cfg.alpha, cfg.delta))


# neighbor_means takes epsilon in (0, inf], whose closed inf end _outside cannot give
@pytest.mark.parametrize("n", [20, 200])
@pytest.mark.parametrize("eps", [True, np.True_, "0.2", 0.2 + 0j, Fraction(1, 5), math.nan,
                                 0.0, -0.1, [0.2], np.array([0.2])], ids=repr)
def test_neighbor_means_refuses_what_is_not_a_real_number_in_range(n, eps):
    message = f"epsilon must be a real number in (0, inf], got {eps!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        dyn.neighbor_means(_rng().random(n), eps)


@pytest.mark.parametrize("n", [20, 200])
@pytest.mark.parametrize("eps", [math.inf, 1, np.float32(0.2), np.array(0.2)], ids=repr)
def test_neighbor_means_takes_a_real_epsilon_as_its_float(n, eps):
    x = _rng().random(n)
    assert dyn.neighbor_means(x, eps).tobytes() == dyn.neighbor_means(x, float(eps)).tobytes()


@pytest.mark.parametrize("n", [20, 200])
def test_a_step_makes_no_real_check(monkeypatch, n):
    calls = []

    def counted(*args):
        calls.append(args)
        return check(*args)

    check = dyn._check_real
    for module in (dyn, hktruth.bounds):
        monkeypatch.setattr(module, "_check_real", counted)
    cfg = ModelConfig(n, 0.2, 0.8, 0.5, range(n // 2), 0.02)
    assert len(calls) == 4  # epsilon, truth, delta and the one alpha
    calls.clear()
    x = _rng().random((2, n))
    for noise in (None, np.full((2, n), 0.01), steered_noise):
        dyn._step(x, cfg, noise)
    assert calls == []


def _counting(monkeypatch, calls):
    """Count every real check and every opinion check, wherever it is looked up."""
    def counter(check):
        def counted(*args):
            calls.append(check.__name__)
            return check(*args)
        return counted

    for module in (dyn, hktruth.bounds):
        monkeypatch.setattr(module, "_check_real", counter(dyn._check_real))
    monkeypatch.setattr(dyn, "_check_opinions", counter(dyn._check_opinions))


# n = 20 takes the dense kernel, a single row or a batch, and with every row within
# epsilon (a spread of 0.1) the consensus group; n = 200 takes the sorted-window kernel
@pytest.mark.parametrize("n", [20, 200])
@pytest.mark.parametrize("rows", [(), (3,)], ids=["row", "batch"])
@pytest.mark.parametrize("spread", [1.0, 0.1], ids=["spread", "group"])
def test_a_step_checks_neither_reals_nor_opinions(monkeypatch, n, rows, spread):
    calls = []
    _counting(monkeypatch, calls)
    cfg = ModelConfig(n, 0.2, 0.8, 0.5, range(n // 2), 0.02)
    x = 0.5 + spread * (_rng().random((*rows, n)) - 0.5)
    calls.clear()
    for noise in (None, np.full(x.shape, 0.01), steered_noise):
        dyn._step(x, cfg, noise)
    assert calls == []


@pytest.mark.parametrize("n", [20, 200])
def test_a_run_checks_its_opinions_as_often_whatever_its_horizon(monkeypatch, n):
    # none per step and one per run: RunSpec checks its explicit initial profile, and the
    # record's copy of the spec, with the run's seed, is made without checking it again
    calls = []
    _counting(monkeypatch, calls)
    cfg = ModelConfig(n, 0.2, 0.8, 0.5, range(n // 2), 0.02)
    start = tuple(np.linspace(0.0, 1.0, n))
    counts = []
    for horizon in (10, 1000):
        calls.clear()
        for mode in MODES:
            run_trajectory(RunSpec(cfg, horizon, mode=mode, initial=start))
        counts.append(calls.count("_check_opinions"))
    assert counts == [len(MODES)] * 2

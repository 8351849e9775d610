"""The integer rule: a count, seed or index is an int or NumPy integer, never a bool.

Every boundary that takes one checks it with ``dynamics._check_int``. Each
refuses True, 2.0, the value below its floor and, where it has one, the
value above its cap, with a ValueError that names the field and its
bound; each accepts its floor as a NumPy integer.
"""

from __future__ import annotations

import argparse
import re

import numpy as np
import pytest

from hktruth.bounds import bounds_for_config, compute_bounds
from hktruth.cli import _resolve, build_model_config
from hktruth.dynamics import ModelConfig
from hktruth.harness import RunSpec, iter_ensemble
from hktruth.verify import absorption_margin, check_quarter_bands, sample_admissible_config

REF_CONFIG = ModelConfig(n=20, epsilon=0.2, truth=0.8, alpha=0.5, seekers=range(10), delta=0.02)


def _rng():
    return np.random.Generator(np.random.PCG64(0))


def _cli(**flags):
    """The settings the CLI resolves from ``flags`` alone, as the command line would give them."""
    return _resolve(argparse.Namespace(config=None, **flags))


# id, the call that takes the value, field name, floor, cap (None: no cap)
BOUNDARIES = [
    ("ModelConfig.n", lambda v: ModelConfig(v, 0.2, 0.8, 0.5, [], 0.01), "n", 1, None),
    ("ModelConfig.seekers", lambda v: ModelConfig(4, 0.2, 0.8, 0.5, [v], 0.01),
     "seeker index", 0, 3),
    ("compute_bounds.n", lambda v: compute_bounds(v, 1, 0.5, 0.2, 0.01), "n", 1, None),
    ("compute_bounds.m", lambda v: compute_bounds(4, v, 0.5, 0.2, 0.01), "m", 1, 4),
    ("RunSpec.horizon", lambda v: RunSpec(REF_CONFIG, horizon=v), "horizon", 1, None),
    ("RunSpec.tail_window", lambda v: RunSpec(REF_CONFIG, horizon=5, tail_window=v),
     "tail_window", 1, 5),
    ("RunSpec.seed", lambda v: RunSpec(REF_CONFIG, horizon=5, seed=v), "seed", 0, None),
    ("iter_ensemble.seeds", lambda v: list(iter_ensemble(RunSpec(REF_CONFIG, horizon=2), [3, v])),
     "seed", 0, None),
    ("suite.seed", lambda v: check_quarter_bands(draws=10, seed=v), "seed", 0, None),
    ("suite.draws", lambda v: check_quarter_bands(draws=v), "draws", 1, None),
    ("absorption_margin.steps",
     lambda v: absorption_margin(REF_CONFIG, bounds_for_config(REF_CONFIG), v, _rng()),
     "steps", 1, None),
    ("sample_admissible_config.n_max", lambda v: sample_admissible_config(_rng(), n_max=v),
     "n_max", 2, None),
    ("cli.m", lambda v: build_model_config(dict(_cli(), m=v)), "m", 0, 20),
    *((f"cli.{key}", lambda v, key=key: _cli(**{key: v}), f"--{key}", floor, None)
      for key, floor in [("runs", 1), ("seed", 0), ("trials", 1), ("steps", 1), ("draws", 1)]),
]


def _refused():
    for name, call, field, least, most in BOUNDARIES:
        bound = f">= {least}" if most is None else f"in [{least}, {most}]"
        for value in [True, 2.0, least - 1, *([] if most is None else [most + 1])]:
            message = f"^{re.escape(f'{field} must be an integer {bound}, got {value!r}')}$"
            yield pytest.param(call, value, message, id=f"{name}-{value!r}")


@pytest.mark.parametrize("call, value, message", _refused())
def test_boundary_refuses_what_is_not_an_integer_in_range(call, value, message):
    with pytest.raises(ValueError, match=message):
        call(value)


@pytest.mark.parametrize("call, least",
                         [pytest.param(call, least, id=name)
                          for name, call, _, least, _ in BOUNDARIES])
def test_boundary_accepts_its_floor_as_a_numpy_integer(call, least):
    call(np.int64(least))

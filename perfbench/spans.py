"""In-memory span tracing of hktruth's public functions, from outside the package.

A ``Tracer`` records one span per call of a wrapped function: its name,
start, end and the span that was open when it began (its parent). Spans
go into flat arrays while the traced work runs; ``self_times`` reduces
them afterwards, so no I/O or aggregation happens inside the timed code.

``patched`` swaps every module-level binding of each wrapped function in
every loaded ``hktruth`` module for a recording wrapper, because the
modules import names from one another directly (``bounds`` binds its own
``neighbor_means``, ``cli`` its own ``run_trajectory``, and so on), and
restores the originals on exit. A name that a later version of the
package no longer defines is skipped and reports zero calls.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Iterator

# module -> public functions traced in it, as "<module>.<fn>" span names
TRACED = {
    "dynamics": ("neighbor_means", "validate_state", "step_noisy", "step_noise_free"),
    "harness": ("draw_noise", "run_trajectory", "iter_ensemble", "summarize"),
    "bounds": ("steered_noise", "bounds_for_config"),
    "verify": ("absorption_margin", "steered_walk", "sample_admissible_config"),
    "cli": ("main",),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


class Tracer:
    """Flat span store: name index, start, end and parent index per span."""

    def __init__(self, names: tuple[str, ...] = SPAN_NAMES,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.names = names
        self.clock = clock
        self.name_ids = {name: i for i, name in enumerate(names)}
        self.clear()

    def clear(self) -> None:
        self.name_idx = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._open: list[int] = []

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_idx.append(name_id)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        popped = self._open.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while span {popped} was innermost")

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per name: (calls, self time), self time = span duration minus child spans."""
        if self._open:
            raise RuntimeError(f"{len(self._open)} spans are still open")
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: [0, 0.0] for name in self.names}
        for i, name_id in enumerate(self.name_idx):
            entry = out[self.names[name_id]]
            entry[0] += 1
            entry[1] += (self.end[i] - self.start[i]) - child[i]
        return {name: (calls, total) for name, (calls, total) in out.items()}

    def wrap(self, fn: Callable, name: str) -> Callable:
        name_id = self.name_ids[name]
        if inspect.isgeneratorfunction(fn):
            # one span per next(), so time the caller spends between items
            # (writing files, say) is not charged to the generator
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = self.open(name_id)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self.close(idx)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return wrapper


def _originals() -> dict[str, Callable]:
    originals = {}
    for mod, fns in TRACED.items():
        module = sys.modules.get(f"hktruth.{mod}")
        for fn in fns:
            obj = getattr(module, fn, None) if module is not None else None
            if callable(obj):
                originals[f"{mod}.{fn}"] = obj
    return originals


@contextmanager
def patched(tracer: Tracer) -> Iterator[None]:
    """Route every binding of each traced function through ``tracer`` for the block."""
    originals = _originals()  # keeps the functions alive, so their ids stay unique
    wrappers = {id(fn): tracer.wrap(fn, name) for name, fn in originals.items()}
    swapped: list[tuple[object, str, Callable]] = []
    try:
        for mod_name, module in list(sys.modules.items()):
            if module is None or mod_name.split(".")[0] != "hktruth":
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    swapped.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        yield
    finally:
        for module, attr, value in reversed(swapped):
            setattr(module, attr, value)

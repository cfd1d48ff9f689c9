"""Instrumentation the benchmark installs around platoonrl's public functions.

Two pieces, both patched in from outside the package so that the program
under test is unchanged:

- ``Meter`` counts ``PlatoonEnv.step`` calls per episode, because
  collisions shorten episodes and the throughput metric counts steps
  actually simulated, and in untraced rounds runs the ``ReferenceKernel``
  probe every 0.2 s of work. It is installed in every run.
- ``Tracer`` records a span around each call into a layer while a round's
  root span is open. Self time is a span's duration minus the time its
  child spans cover, so the self times of all spans, the root's included,
  add up to the root's duration. Totals are kept for every traced round;
  the individual spans are kept in memory for the first traced round only
  (one replay round makes about 150 000 of them) and written out when the
  run ends.
"""

from __future__ import annotations

import csv
import importlib
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

env_mod = importlib.import_module("platoonrl.env")
nn_mod = importlib.import_module("platoonrl.nn")
# platoonrl re-exports the function train() over its train module's name.
train_mod = importlib.import_module("platoonrl.train")

ROOT = "train.self"

# (module or class, attribute, layer). The physics functions are patched
# in the env module's namespace, so they are timed as called from env; the
# nested calls inside vehicle/ovm (driving_force, headway_velocity from
# ovm_accel) stay inside their caller's span.
LAYER_TARGETS = (
    (nn_mod, "forward", "nn.forward"),
    (nn_mod, "backward", "nn.backward"),
    (nn_mod, "flatten_params", "nn.params"),
    (nn_mod, "set_flat_params", "nn.params"),
    (nn_mod, "param_count", "nn.params"),
    (nn_mod, "save_params", "nn.save"),
    (env_mod.PlatoonEnv, "step", "env"),
    (env_mod.PlatoonEnv, "reset", "env"),
    (env_mod, "step_kinematics", "physics"),
    (env_mod, "electric_power", "physics"),
    (env_mod, "ovm_accel", "physics"),
    (env_mod, "headway_velocity", "physics"),
    (train_mod, "apply_consensus", "consensus"),
)


@contextmanager
def _patched(targets):
    """Replace attributes for the duration of the block, then restore them."""
    saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in targets]
    try:
        for owner, name, replacement in targets:
            setattr(owner, name, replacement)
        yield
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)


@dataclass(frozen=True)
class _Car:
    gap: float
    v: float
    u: float


class ReferenceKernel:
    """A fixed piece of work, independent of platoonrl, that measures how
    fast the machine runs right now. It mixes the kinds of work the package
    does: a pure-Python float loop, chains of small numpy matrix-vector
    products with tanh, and a per-vehicle car-following loop that builds a
    frozen dataclass per vehicle per step. About 14 ms on the machine the
    reference figures in README.md come from. Either part alone tracked one
    workload well and another badly; together the spread across seeds was
    the smallest on all three."""

    def __init__(self) -> None:
        self._a = np.random.default_rng(0).standard_normal((256, 64))

    def __call__(self) -> float:
        t0 = time.perf_counter()
        s = 0.0
        for i in range(40_000):
            s += (i * 0.5) ** 0.5
        y = np.ones(64)
        for _ in range(400):
            y = np.tanh(self._a @ y)[:64]
        cars = [_Car(20.0 + 0.5 * i, 15.0 - 0.1 * i, 0.0) for i in range(16)]
        for _ in range(40):
            v_ahead = 15.0
            moved = []
            for c in cars:
                frac = min(max((c.gap - 5.0) / 30.0, 0.0), 1.0)
                v_head = 15.0 * (1.0 - math.cos(math.pi * frac))
                u = min(max(0.5 * (v_head - c.v) + 0.5 * (v_ahead - c.v), -2.5), 2.5)
                moved.append(_Car(c.gap + (v_ahead - c.v) * 0.1, c.v + u * 0.1, u))
                v_ahead = c.v
            cars = moved
            for _ in range(5):
                y = np.tanh(self._a @ y)[:64]
            y = np.concatenate([y[:32], y[32:]])
        return time.perf_counter() - t0


class Meter:
    """Counts ``PlatoonEnv.step`` calls per episode and, with a ``probe``
    set, runs the probe at most every ``interval`` seconds of work: before a
    reset or a backward pass, or after a step. It records
    ``(time before the probe, probe seconds)`` for each probe, so that a
    round's wall time can be split into stretches between probes and each
    stretch scaled by the machine speed measured at its two ends."""

    interval = 0.2

    def __init__(self) -> None:
        self.probe = None
        self.episodes: list[int] = []
        self.marks: list[tuple[float, float]] = []
        self._last = 0.0

    def begin(self) -> None:
        """Start a round: forget the last one, count time from now."""
        self.episodes, self.marks = [], []
        self._last = time.perf_counter()

    def take(self) -> tuple[list[int], list[tuple[float, float]]]:
        return self.episodes, self.marks

    def _maybe_probe(self) -> None:
        t = time.perf_counter()
        if self.probe is not None and t - self._last >= self.interval:
            d = self.probe()
            self.marks.append((t, d))
            self._last = t + d

    @contextmanager
    def installed(self):
        orig_reset = env_mod.PlatoonEnv.reset
        orig_step = env_mod.PlatoonEnv.step
        orig_backward = nn_mod.backward

        def reset(env, *args, **kwargs):
            self._maybe_probe()
            out = orig_reset(env, *args, **kwargs)
            self.episodes.append(0)
            return out

        def step(env, *args, **kwargs):
            out = orig_step(env, *args, **kwargs)
            self.episodes[-1] += 1
            self._maybe_probe()
            return out

        def backward(*args, **kwargs):
            self._maybe_probe()
            return orig_backward(*args, **kwargs)

        with _patched(
            (
                (env_mod.PlatoonEnv, "reset", reset),
                (env_mod.PlatoonEnv, "step", step),
                (nn_mod, "backward", backward),
            )
        ):
            yield self


class LayerTotals:
    """One layer's totals over all traced rounds. ``inclusive`` counts a
    layer nested in itself once."""

    __slots__ = ("inclusive", "self_time", "calls")

    def __init__(self) -> None:
        self.inclusive = 0.0
        self.self_time = 0.0
        self.calls = 0


class Tracer:
    """Span recorder with per-layer totals (see the module docstring)."""

    def __init__(self) -> None:
        self.layers: dict[str, LayerTotals] = {}
        # Open spans, innermost last: [totals, child time, span id].
        self._stack: list[list] = []
        self._round = 0
        self._keep = True
        self.spans: list[tuple[int, int, int, str, float, float] | None] = []

    def totals(self, layer: str) -> LayerTotals:
        return self.layers.setdefault(layer, LayerTotals())

    def _open(self, totals: LayerTotals) -> list:
        span_id = -1
        if self._keep:
            span_id = len(self.spans)
            self.spans.append(None)  # filled in when the span closes
        frame = [totals, 0.0, span_id]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, layer: str, t0: float, t1: float) -> None:
        stack = self._stack
        stack.pop()
        totals, child, span_id = frame
        d = t1 - t0
        totals.calls += 1
        totals.self_time += d - child
        parent_id = -1
        if stack:
            parent = stack[-1]
            parent[1] += d
            parent_id = parent[2]
            if parent[0] is not totals:
                totals.inclusive += d
        else:
            totals.inclusive += d
        if span_id >= 0:
            self.spans[span_id] = (self._round, span_id, parent_id, layer, t0, t1)

    def _wrap(self, layer: str, fn):
        stack = self._stack
        totals = self.totals(layer)
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            frame = self._open(totals)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame, layer, t0, clock())

        return wrapped

    @contextmanager
    def installed(self):
        """Wrap every layer function for the duration of the block."""
        targets = [
            (owner, name, self._wrap(layer, owner.__dict__[name]))
            for owner, name, layer in LAYER_TARGETS
        ]
        with _patched(targets):
            yield self

    @contextmanager
    def root(self):
        """A round's root span; layer calls outside it are not traced."""
        frame = self._open(self.totals(ROOT))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(frame, ROOT, t0, time.perf_counter())
            self._round += 1
            self._keep = False

    def write(self, path: Path) -> None:
        """Kept spans as CSV, times in seconds from the start of the root."""
        base = self.spans[0][4] if self.spans else 0.0
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["round", "span", "parent", "layer", "start_s", "end_s"])
            for rnd, span_id, parent_id, layer, t0, t1 in self.spans:
                writer.writerow([rnd, span_id, parent_id, layer, f"{t0 - base:.9f}", f"{t1 - base:.9f}"])

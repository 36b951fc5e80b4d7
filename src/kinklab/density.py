"""Monte Carlo kink-density measurement under the uniform Bernoulli measure.

Wide cyclic configurations emulate the shift-invariant measure.  Trials draw
their streams from a counter-based Philox generator keyed on (seed, trial), so
each trial's cells depend on nothing but the seed and its index.

The engine is bit-parallel ("multi-spin" coding): a trial's configuration is
one Python int, bit i holding cell i, stepped by ``dynamics.step_cyclic_packed``
(two rotations and an xor) and counted by ``kinks.cyclic_kink_counter``, both at
single width.  Word frequencies read x extended by its first |w| - 1 cells, so
every cyclic window of w is an ordinary bit range.  The string engines ``step_cyclic``
and ``count_kinks_cyclic`` share no code with this engine and are its references.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from . import __version__
from .dynamics import CyclicConfig, check_word, step_cyclic_packed
from .errors import BadWord, DegenerateWindow, WidthTooSmall
from .kinks import cyclic_kink_counter

GENERATOR_NAME = "numpy-philox-4x64"
ENGINE_NAME = "python-int-bitparallel"


def _check_seed(seed: int) -> int:
    if not isinstance(seed, numbers.Integral) or not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return int(seed)


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(seed << 64) + trial))


def sample_uniform(width: int, seed: int) -> CyclicConfig:
    """Cyclic configuration with i.i.d. Bernoulli(1/2) cells, deterministic per
    (width, seed)."""
    if width < 3:
        raise WidthTooSmall(f"width {width} < 3")
    bits = _trial_rng(_check_seed(seed), 0).integers(0, 2, size=width, dtype=np.uint8)
    return CyclicConfig("".join("1" if b else "0" for b in bits))


def _occurrence_counter(w: str, width: int) -> Callable[[int], int]:
    """Cyclic occurrences of w in a packed configuration: the AND, over k, of x
    extended by its first |w| - 1 cells, shifted by k, complemented where ``w[k]`` is 0."""
    wrap, ext = (1 << len(w) - 1) - 1, (1 << width + len(w) - 1) - 1

    def count(x: int) -> int:
        d = x | (x & wrap) << width
        hits, nd = ext, d ^ ext
        for k, ch in enumerate(w):
            hits &= (d if ch == "1" else nd) >> k
        return hits.bit_count()

    return count


class DensitySeries(NamedTuple):
    width: int
    steps: int
    trials: int
    seed: int
    values: tuple[float, ...]  # mean kinks per cell, one entry per step 0..steps
    stderr: tuple[float, ...]
    generator: str = GENERATOR_NAME


class PowerLawFit(NamedTuple):
    exponent: float
    amplitude: float
    window: tuple[int, int]
    residual: float

    @property
    def diffusion_coefficient(self) -> float:
        # amplitude = (8 pi D)^(-1/2)
        return 1.0 / (8.0 * math.pi * self.amplitude**2)


def _trajectory(width: int, steps: int, trials: int, seed: int,
                observe: Callable[[int], int], monotone: bool) -> DensitySeries:
    """Per-step mean of ``observe(x) / width``; if ``monotone``, counts never rise."""
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    if trials < 1:
        raise ValueError("need at least one trial")
    seed = _check_seed(seed)
    rows = []
    for t in range(trials):
        bits = _trial_rng(seed, t).integers(0, 2, size=width, dtype=np.uint8)
        x = int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")
        counts = [observe(x)]
        for _ in range(steps):
            x = step_cyclic_packed(x, width)
            cur = observe(x)
            if monotone and cur > counts[-1]:
                raise RuntimeError(
                    f"kink count increased ({counts[-1]} -> {cur}) in trial {t}: engine bug"
                )
            counts.append(cur)
        rows.append(counts)
    counts = np.array(rows, dtype=np.float64) / width
    values = tuple(float(v) for v in counts.mean(axis=0))
    if trials > 1:
        err = counts.std(axis=0, ddof=1) / math.sqrt(trials)
    else:
        err = np.zeros(steps + 1)
    return DensitySeries(width, steps, trials, seed, values, tuple(float(e) for e in err))


def density_trajectory(width: int, steps: int, trials: int, seed: int) -> DensitySeries:
    """Per-step mean kink density over independent Bernoulli trials.

    The width floor 2*steps+3 keeps the cyclic wrap outside any single cell's
    light cone over the measured horizon.  Kink counts are asserted to be
    non-increasing within every trial: creation would be an engine bug.
    """
    floor = max(3, 2 * steps + 3)
    if width < floor:
        raise WidthTooSmall(f"width {width} < {floor} required for {steps} steps")
    return _trajectory(width, steps, trials, seed, cyclic_kink_counter(width), monotone=True)


def word_frequency_trajectory(
    w: str, width: int, steps: int, trials: int, seed: int
) -> DensitySeries:
    """Per-step empirical frequency of cyclic occurrences of w per cell."""
    if not check_word(w):
        raise BadWord("pattern word must be non-empty")
    if width < 3:
        raise WidthTooSmall(f"width {width} < 3")
    if len(w) > width - 2 * steps:
        raise WidthTooSmall(f"|w| = {len(w)} exceeds width - 2*steps = {width - 2 * steps}")
    observe = _occurrence_counter(w, width)
    return _trajectory(width, steps, trials, seed, observe, monotone=False)


def default_window(steps: int) -> tuple[int, int]:
    # discard the transient below 32 and the noisy final tenth
    hi = max(steps - steps // 10, 35)
    return (32, min(hi, steps))


def fit_power_law(series: DensitySeries, window: tuple[int, int]) -> PowerLawFit:
    """Least-squares line in (log n, log d_n) over the window."""
    lo, hi = window
    pairs = [
        (n, v)
        for n, v in enumerate(series.values)
        if lo <= n <= hi and n >= 1 and v > 0
    ]
    if len(pairs) < 3:
        raise DegenerateWindow(
            f"window {window} leaves {len(pairs)} usable points (< 3)"
        )
    log_n = np.log([n for n, _ in pairs])
    log_v = np.log([v for _, v in pairs])
    slope, intercept = np.polyfit(log_n, log_v, 1)
    resid = log_v - (slope * log_n + intercept)
    return PowerLawFit(
        exponent=float(slope),
        amplitude=float(np.exp(intercept)),
        window=(lo, hi),
        residual=float(np.sqrt(np.mean(resid**2))),
    )


def write_density_csv(series: DensitySeries, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "mean_density", "stderr", "trials", "width", "seed"])
        for n, (v, e) in enumerate(zip(series.values, series.stderr)):
            writer.writerow(
                [n, repr(v), repr(e), series.trials, series.width, series.seed]
            )


def write_density_metadata(
    series: DensitySeries, path: str, fit: PowerLawFit | None = None
) -> None:
    payload: dict = {
        "engine": ENGINE_NAME,
        "kinklab_version": __version__,
        "numpy_version": np.__version__,
        "rng": series.generator,
        "width": series.width,
        "steps": series.steps,
        "trials": series.trials,
        "seed": series.seed,
    }
    if fit is not None:
        payload["fit"] = {
            "exponent": fit.exponent,
            "amplitude": fit.amplitude,
            "window": list(fit.window),
            "residual_rms_loglog": fit.residual,
            "diffusion_coefficient": fit.diffusion_coefficient,
        }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

import hashlib
import json
import math

import numpy as np
import pytest

import kinklab
from kinklab import (
    count_kinks_cyclic,
    density_trajectory,
    fit_power_law,
    sample_uniform,
    step_cyclic,
    word_frequency_trajectory,
)
from kinklab.density import (
    ENGINE_NAME,
    GENERATOR_NAME,
    DensitySeries,
    _trajectory,
    default_window,
    write_density_csv,
    write_density_metadata,
)
from kinklab.errors import BadWord, DegenerateWindow, WidthTooSmall


DENSITY_NAMES = (
    "DensitySeries",
    "PowerLawFit",
    "density_trajectory",
    "fit_power_law",
    "sample_uniform",
    "word_frequency_trajectory",
)


def test_lazy_package_attributes():
    assert kinklab.density_trajectory is kinklab.density.density_trajectory
    for name in DENSITY_NAMES:
        assert getattr(kinklab, name) is getattr(kinklab.density, name)
        assert name in dir(kinklab)
    assert "density" in dir(kinklab)
    with pytest.raises(AttributeError):
        kinklab.no_such_name


def test_sample_uniform_is_deterministic():
    a = sample_uniform(64, seed=7)
    b = sample_uniform(64, seed=7)
    c = sample_uniform(64, seed=8)
    assert a == b
    assert a != c
    assert len(a.bits) == 64
    assert set(a.bits) <= {"0", "1"}


def test_density_trajectory_deterministic():
    s1 = density_trajectory(131, 64, 8, seed=42)
    s2 = density_trajectory(131, 64, 8, seed=42)
    assert s1 == s2
    assert s1.generator == GENERATOR_NAME
    assert len(s1.values) == 65


def test_trial_row_independent_of_later_trials():
    def recorder(rows):
        def observe(x):
            rows.append(x)
            return 0
        return observe

    few, many = [], []
    _trajectory(131, 32, 2, 1, recorder(few), monotone=False)
    _trajectory(131, 32, 6, 1, recorder(many), monotone=False)
    assert len(few) == 2 * 33 and len(many) == 6 * 33
    assert many[: len(few)] == few


def test_initial_density_near_one_third():
    s = density_trajectory(2003, 0, 64, seed=3)
    d0 = s.values[0]
    assert abs(d0 - 1 / 3) < 5 * max(s.stderr[0], 1e-9)


def test_density_monotone_nonincreasing_means():
    s = density_trajectory(259, 128, 16, seed=11)
    # per-trial monotonicity is hard-asserted inside; means inherit it
    for prev, cur in zip(s.values, s.values[1:]):
        assert cur <= prev + 1e-12


def test_width_floor_enforced():
    with pytest.raises(WidthTooSmall):
        density_trajectory(64, 64, 2, seed=0)


def test_word_frequency_uniform_start():
    s0 = word_frequency_trajectory("0", 4096, 0, 32, seed=5)
    assert abs(s0.values[0] - 0.5) < 0.02
    s11 = word_frequency_trajectory("11", 4096, 0, 32, seed=5)
    assert abs(s11.values[0] - 0.25) < 0.02


def _synthetic_series(exponent, amplitude, steps=256):
    values = [amplitude]  # n=0 placeholder, excluded from fits
    for n in range(1, steps + 1):
        values.append(amplitude * n**exponent)
    return DensitySeries(
        width=1,
        steps=steps,
        trials=1,
        seed=0,
        values=tuple(values),
        stderr=tuple(0.0 for _ in values),
    )


@pytest.mark.parametrize("exponent", [-0.5, -1.0])
def test_fit_recovers_exact_power_law(exponent):
    s = _synthetic_series(exponent, amplitude=0.7)
    fit = fit_power_law(s, (16, 200))
    assert math.isclose(fit.exponent, exponent, abs_tol=1e-6)
    assert math.isclose(fit.amplitude, 0.7, abs_tol=1e-6)
    assert fit.residual < 1e-9


def test_diffusion_coefficient_formula():
    s = _synthetic_series(-0.5, amplitude=1 / math.sqrt(8 * math.pi))
    fit = fit_power_law(s, (16, 200))
    assert math.isclose(fit.diffusion_coefficient, 1.0, rel_tol=1e-6)


def test_degenerate_window_rejected():
    s = _synthetic_series(-0.5, 0.7, steps=64)
    with pytest.raises(DegenerateWindow):
        fit_power_law(s, (60, 61))


def test_default_window():
    lo, hi = default_window(512)
    assert lo == 32
    assert hi == 512 - 51


def test_csv_reruns_byte_identical(tmp_path):
    s = density_trajectory(131, 32, 4, seed=9)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_density_csv(s, p1)
    write_density_csv(density_trajectory(131, 32, 4, seed=9), p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == "n,mean_density,stderr,trials,width,seed"


def test_metadata_sidecar(tmp_path):
    s = density_trajectory(259, 128, 8, seed=2)
    fit = fit_power_law(s, (16, 115))
    path = tmp_path / "meta.json"
    write_density_metadata(s, path, fit)
    payload = json.loads(path.read_text())
    assert payload["rng"] == GENERATOR_NAME
    assert payload["fit"]["window"] == [16, 115]
    assert payload["fit"]["diffusion_coefficient"] == pytest.approx(
        1 / (8 * math.pi * fit.amplitude**2)
    )


def test_kink_increase_is_an_engine_error():
    counts = iter(range(100))
    with pytest.raises(RuntimeError, match=r"kink count increased \(0 -> 1\) in trial 0"):
        _trajectory(131, 8, 1, 0, lambda x: next(counts), monotone=True)


def test_metadata_provenance(tmp_path):
    s = density_trajectory(131, 16, 2, seed=4)
    path = tmp_path / "meta.json"
    write_density_metadata(s, path)
    payload = json.loads(path.read_text())
    assert payload["engine"] == ENGINE_NAME
    assert payload["kinklab_version"] == kinklab.__version__
    assert payload["numpy_version"] == np.__version__


# Golden results, computed with the numpy engine this runner replaced.
GOLDEN_CSV = {
    (131, 32, 6, 1): "2384f22c5ebd71e024ce9948825609e3ed0a64c806005ad269ed650815ca71da",
    (259, 128, 16, 11): "2fab20221a38b532182c74ed113bae7ae4dee93a1da13bf5b118ae270cbe021a",
}
GOLDEN_FREQUENCY = "99b43999b59ec54387ea50c4edf7a75bdce89bf343877721cf4558141a7048fa"


@pytest.mark.parametrize("shape", sorted(GOLDEN_CSV))
def test_density_csv_golden_digest(tmp_path, shape):
    path = tmp_path / "run.csv"
    write_density_csv(density_trajectory(*shape), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_CSV[shape]


def test_word_frequency_golden_digest():
    s = word_frequency_trajectory("1101001", 257, 64, 4, 3)
    digest = hashlib.sha256(repr((s.values, s.stderr)).encode()).hexdigest()
    assert digest == GOLDEN_FREQUENCY


@pytest.mark.parametrize(
    "call",
    [
        lambda: density_trajectory(131, -1, 2, seed=0),
        lambda: density_trajectory(131, 8, 0, seed=0),
        lambda: density_trajectory(131, 8, 2, seed=-1),
        lambda: density_trajectory(131, 8, 2, seed=2**64),
        lambda: density_trajectory(131, 8, 2, seed=1.5),
        lambda: word_frequency_trajectory("11", 131, 8, 0, seed=0),
        lambda: word_frequency_trajectory("11", 131, -1, 2, seed=0),
        lambda: sample_uniform(64, seed=-1),
    ],
    ids=[
        "negative-steps",
        "zero-trials",
        "negative-seed",
        "seed-too-large",
        "float-seed",
        "frequency-zero-trials",
        "frequency-negative-steps",
        "sample-negative-seed",
    ],
)
def test_bad_run_parameters_rejected(call):
    with pytest.raises(ValueError, match="steps|trial|seed"):
        call()


@pytest.mark.parametrize("w", ["", "0a", "12", " 1"])
def test_word_frequency_rejects_bad_words(w):
    with pytest.raises(BadWord):
        word_frequency_trajectory(w, 131, 8, 2, seed=0)


@pytest.mark.parametrize("width, steps, seed", [(64, 30, 0), (131, 64, 7), (97, 40, 2**64 - 1)])
def test_one_trial_run_matches_string_engine(width, steps, seed):
    x = sample_uniform(width, seed)
    counts = [count_kinks_cyclic(x)]
    for _ in range(steps):
        x = step_cyclic(x)
        counts.append(count_kinks_cyclic(x))
    one = density_trajectory(width, steps, 1, seed)
    assert one.values == tuple(c / width for c in counts)

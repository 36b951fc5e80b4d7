"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Criterion 15 is exploratory and report-only: its line is informational and the
test never fails on the fitted values.
"""

from collections import defaultdict
from itertools import product

import numpy as np
import pytest

from kinklab import (
    CyclicConfig,
    OracleStatus,
    R90,
    count_kinks,
    density_trajectory,
    fit_power_law,
    in_P,
    preimages,
    rule18_local,
    step_cyclic,
    step_word,
)
from kinklab import oracles
from kinklab.density import write_density_csv
from kinklab.wordclasses import is_stable

WIDTH, STEPS, TRIALS, SEED = 4096, 512, 64, 2024


def report(capsys, num, name, ok, extra=""):
    line = f"[acceptance] criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if extra:
        line += f" ({extra})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def big_series():
    return density_trajectory(WIDTH, STEPS, TRIALS, SEED)


def all_words(n):
    return ("".join(bits) for bits in product("01", repeat=n))


def test_criterion_01_rule_table(capsys):
    ones = {(0, 0, 1), (1, 0, 0)}
    ok = all(
        rule18_local(a, b, c) == (1 if (a, b, c) in ones else 0)
        for a in (0, 1)
        for b in (0, 1)
        for c in (0, 1)
    )
    report(capsys, 1, "rule-table", ok)


def test_criterion_02_figure_iterates(capsys):
    r = oracles.verify_figure_iterates()
    report(capsys, 2, "figure-iterates", r.status is OracleStatus.PASS, r.detail or "")


def test_criterion_03_rule90_coincidence(capsys):
    rng = np.random.default_rng(123)
    checked = 0
    ok = True
    for _ in range(100_000):
        n = int(rng.integers(3, 65))
        parity = int(rng.integers(0, 2))
        cells = ["0"] * n
        positions = range(parity, n, 2)
        picks = rng.integers(0, 2, size=len(list(positions)))
        for p, keep in zip(range(parity, n, 2), picks):
            if keep:
                cells[p] = "1"
        w = "".join(cells)
        if step_word(w) != step_word(w, R90):
            ok = False
            break
        checked += 1
    report(capsys, 3, "rule90-coincidence", ok, f"{checked} kinkless words")


def test_criterion_04_non_creation_and_stable_parity(capsys):
    ok = True
    checked = 0
    for n in range(3, 17):
        for w in all_words(n):
            fw = step_word(w)
            if count_kinks(fw) > count_kinks(w):
                ok = False
                break
            if is_stable(w) and count_kinks(fw) % 2 != count_kinks(w) % 2:
                ok = False
                break
            checked += 1
        if not ok:
            break
    report(capsys, 4, "non-creation-and-stable-parity", ok, f"{checked} words")


def test_criterion_05_extension_counterexample(capsys):
    r = oracles.verify_extension_counterexample()
    report(capsys, 5, "extension-counterexample", r.status is OracleStatus.PASS)


def test_criterion_06_preimage_exactness(capsys):
    ok = True
    for n in range(1, 11):
        buckets = defaultdict(list)
        for u in all_words(n + 2):
            buckets[step_word(u)].append(u)
        for w in all_words(n):
            if tuple(preimages(w).members) != tuple(sorted(buckets.get(w, ()))):
                ok = False
                break
        if not ok:
            break
    report(capsys, 6, "preimage-exactness", ok, "all |w| <= 10 vs brute force")


def two_kink_formula(w):
    """The paper's closed-form two-kink preimage of a two-kink 11 v 11 whose
    separator v holds an even number of 1s: 100, then (10)^n or (00)^n for the
    even- or odd-numbered zero-runs of v, of odd length 2n - 1, then 01."""
    runs = w[2:-2].split("1")
    middle = "".join(("10", "00")[j % 2] * ((len(r) + 1) // 2) for j, r in enumerate(runs))
    return "100" + middle + "01"


def even_separators(max_len):
    """Every v with |v| <= max_len that makes 11 v 11 a two-kink word with an
    even number of 1s in v: v = 0^{a_1} 1 0^{a_2} ... 1 0^{a_k}, every a_i odd
    (an even zero-run or a 11 would add a kink) and k odd."""
    frontier = ["0" * a for a in range(1, max_len + 1, 2)]
    while frontier:
        v = frontier.pop()
        if v.count("1") % 2 == 0:
            yield v
        frontier += [v + "1" + "0" * a for a in range(1, max_len - len(v), 2)]


def formula_matches(w):
    two_kinked = [p for p in preimages(w).members if count_kinks(p) == 2]
    return two_kinked == [two_kink_formula(w)]


def test_criterion_07_no_preimage_families(capsys):
    assert two_kink_formula("11011") == "1001001"
    assert two_kink_formula("1100011") == "100101001"
    ok = not preimages("111").members
    checked_odd, even = 0, []
    for k in range(0, 9):
        for v in all_words(k):
            w = "11" + v + "11"
            if v.count("1") % 2 == 1:
                if preimages(w).members:
                    ok = False
                checked_odd += 1
            elif count_kinks(w) == 2:
                if not formula_matches(w):
                    ok = False
                even.append(v)
    generated = list(even_separators(20))
    ok = ok and sorted(even) == sorted(v for v in generated if len(v) <= 8)
    ok = ok and all(count_kinks(f"11{v}11") == 2 and formula_matches(f"11{v}11") for v in generated)
    report(
        capsys, 7, "no-preimage-families", ok,
        f"{checked_odd} odd-ones separators empty, {len(even)} formula matches, "
        f"{len(generated)} generated to |v| <= 20",
    )


def test_criterion_08_kinkless_surjectivity(capsys):
    seen = set()
    ok = True
    for n in range(1, 15):
        for parity in (0, 1):
            positions = list(range(parity, n, 2))
            for bits in product((0, 1), repeat=len(positions)):
                cells = ["0"] * n
                for p, keep in zip(positions, bits):
                    if keep:
                        cells[p] = "1"
                w = "".join(cells)
                if w in seen:
                    continue
                seen.add(w)
                if not any(count_kinks(u) == 0 for u in preimages(w).members):
                    ok = False
    report(capsys, 8, "kinkless-surjectivity", ok, f"{len(seen)} kinkless words")


def test_criterion_09_annihilation(capsys):
    r = oracles.verify_annihilation(max_support=12, max_steps=4096)
    report(capsys, 9, "annihilation", r.status is OracleStatus.PASS, r.detail or "")


def test_criterion_10_separation_witnesses(capsys):
    ok = step_cyclic(step_cyclic(CyclicConfig("1001"))).bits == "1001"
    ok = ok and in_P("10011") is False
    fw = step_word("001101100")
    ok = ok and fw == "1000001"
    ok = ok and count_kinks("001101100") - count_kinks(fw) == 2
    ok = ok and in_P("001101100") is True
    report(capsys, 10, "separation-witnesses", ok)


def test_criterion_11_mobility(capsys):
    r = oracles.verify_mobility(max_pad=8)
    report(capsys, 11, "mobility", r.status is OracleStatus.PASS, r.detail or "")


def test_criterion_12_flipflop(capsys):
    r = oracles.verify_flipflop(max_k=2, pad=2)
    report(capsys, 12, "flipflop", r.status is OracleStatus.PASS, r.detail or "")


def test_criterion_13_two_kink_backward(capsys):
    r = oracles.verify_two_kink_backward(max_m=4, max_back_len=17)
    report(
        capsys, 13, "two-kink-backward-constructions", r.status is OracleStatus.PASS,
        r.detail or "",
    )


def test_criterion_14_density_statistics(capsys, big_series, tmp_path):
    # >= 10^6 sampled cells for the initial density estimate
    d0_run = density_trajectory(width=32768, steps=0, trials=32, seed=SEED)
    d0, err0 = d0_run.values[0], d0_run.stderr[0]
    ok = abs(d0 - 1 / 3) <= 3 * err0
    # mean trajectory inherits the hard-asserted per-trial monotonicity
    ok = ok and all(
        b <= a + 1e-12 for a, b in zip(big_series.values, big_series.values[1:])
    )
    # byte-identical reproduction per seed
    p1, p2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    write_density_csv(big_series, p1)
    write_density_csv(density_trajectory(WIDTH, STEPS, TRIALS, SEED), p2)
    ok = ok and p1.read_bytes() == p2.read_bytes()
    report(
        capsys, 14, "density-statistics", ok,
        f"d0={d0:.5f}±{err0:.5f} over {32768 * 32} cells",
    )


def test_criterion_15_decay_exponent_report(capsys, big_series):
    # exploratory and non-gating: reported, never asserted
    fit = fit_power_law(big_series, (64, 512))
    in_range = -0.65 <= fit.exponent <= -0.35
    line = (
        f"[acceptance] criterion 15 decay-exponent: REPORT "
        f"(exponent={fit.exponent:.4f}, in [-0.65,-0.35]: {in_range}, "
        f"amplitude={fit.amplitude:.4f}, D={fit.diffusion_coefficient:.4f}, "
        f"window=[64,512]; conjecture-tracking only, not a gate)"
    )
    with capsys.disabled():
        print(line, flush=True)

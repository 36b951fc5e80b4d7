import hashlib
import json
import tracemalloc

import pytest

from kinklab import OracleStatus, find_kinks, run_all
from kinklab import oracles
from kinklab.dynamics import iterate_word, padded, step_word, words
from kinklab.preimage import has_preimage, preimages


def test_run_all_quick_passes():
    reports = run_all("quick")
    assert len(reports) == 9
    assert [r.check for r in reports] == sorted(r.check for r in reports)
    for r in reports:
        assert r.status is OracleStatus.PASS, (r.check, r.detail, r.witness)


def test_unknown_profile_rejected():
    with pytest.raises(ValueError):
        run_all("exhaustive")


def test_report_json_round_trip():
    r = run_all("quick")[0]
    payload = json.loads(r.to_json())
    assert payload["check"] == r.check
    assert payload["status"] == "Pass"
    assert "budget" in payload


def test_profiles_name_the_same_checks_each_with_a_verify_function():
    assert list(oracles.PROFILES) == ["quick", "full"]
    quick, full = (set(profile) for profile in oracles.PROFILES.values())
    assert quick == full and len(full) == 9
    for name in full:
        assert oracles._ORACLES[name] is getattr(oracles, f"verify_{name}")


@pytest.mark.parametrize("name", sorted(oracles._ORACLES))
def test_each_oracle_passes_individually(name):
    report = oracles._ORACLES[name](**oracles.PROFILES["quick"][name])
    assert report.status is OracleStatus.PASS, (report.detail, report.witness)


@pytest.mark.parametrize(
    "name, bounds",
    [
        ("kink_elimination_parity", {"max_len": -5}),
        ("annihilation", {"max_support": -3}),
        ("annihilation", {"max_steps": -1}),
        ("preimage_reduction_cases", {"max_k": -1}),
        ("mobility", {"max_pad": -1}),
        ("flipflop", {"max_k": -1}),
        ("flipflop", {"pad": -1}),
        ("two_kink_backward", {"max_m": -1}),
        ("two_kink_backward", {"max_back_len": -1}),
    ],
    ids=lambda v: v if isinstance(v, str) else next(iter(v)),
)
def test_negative_budget_rejected(name, bounds):
    # a negative bound explores nothing, so the check would Pass vacuously
    (bound,) = bounds
    with pytest.raises(ValueError, match=f"{bound} must be non-negative"):
        oracles._ORACLES[name](**bounds)


def test_reduction_cases_failure_reports(monkeypatch):
    # cases 3 and 4 pad to the same word, checked once under case 3's text
    monkeypatch.setattr(oracles.dynamics, "iterate_word", lambda w, n: "00")
    r = oracles.verify_preimage_reduction_cases(0)
    assert (r.status, r.witness) == (OracleStatus.FAIL, "001100")
    assert r.detail == "f^2 of padded 11(01)^00 is not 11"


def test_mobility_budget_reports(monkeypatch):
    def witness(missing):
        return lambda steps, shift, max_pad: None if shift in missing else f"w{steps}"

    for missing, detail in [
        ((-1, 1), "no left-move witness within pad budget"),
        ((1,), "no right-move witness within pad budget"),
    ]:
        monkeypatch.setattr(oracles, "_find_mobility_witness", witness(missing))
        r = oracles.verify_mobility(8)
        assert (r.status, r.witness, r.detail) == (OracleStatus.BUDGET_EXHAUSTED, None, detail)
    monkeypatch.setattr(oracles, "_find_mobility_witness", witness(()))
    assert oracles.verify_mobility(8).detail == "left via w5, right via w3"


def test_two_kink_backward_failure_reports(monkeypatch):
    # a shaped set missing a shape's first survivor: nothing survives there
    real = oracles._two_kink_words_shaped
    for lost, detail in [
        ("11001", "shape-A survivors at length 5 differ from ['11001']"),
        ("1100011", "shape-B survivors at length 7 differ from ['1100011']"),
    ]:
        def shaped(prefix, suffix, max_length, lost=lost):
            return [[w for w in g if w != lost] for g in real(prefix, suffix, max_length)]

        monkeypatch.setattr(oracles, "_two_kink_words_shaped", shaped)
        r = oracles.verify_two_kink_backward(0, 13)
        assert (r.status, r.witness, r.detail) == (OracleStatus.FAIL, "(empty)", detail)


# the backward maps of verify_two_kink_backward, by shape suffix
STEP_BACK = {
    "1001": lambda w: step_word("00" + w)[::-1],
    "0011": lambda w: iterate_word("00" + w + "00", 2),
}


def _backward_survivors_walk(candidates, prefix, suffix, step_back):
    """The per-candidate walk that _survivors replaced, kept as its reference:
    step each candidate w back |w| times, keeping it only while every step is a
    two-kink word of the given boundary shape."""
    survivors = set()
    for w in candidates:
        cur = w
        for _ in range(len(w)):
            cur = step_back(cur)
            if not (cur.startswith(prefix) and cur.endswith(suffix) and len(find_kinks(cur)) == 2):
                break
        else:
            survivors.add(w)
    return survivors


@pytest.mark.parametrize("suffix", sorted(STEP_BACK))
def test_survivors_fixpoint_matches_the_walk(suffix):
    groups = oracles._two_kink_words_shaped("1100", suffix, 21)
    for length, group in enumerate(groups):
        expected = _backward_survivors_walk(group, "1100", suffix, STEP_BACK[suffix])
        assert oracles._survivors(group, STEP_BACK[suffix], length) == expected, length


def test_survivors_counts_its_rounds():
    # negative control: a chain of same-length words whose last step leaves the
    # set; chain[i] stays inside for 4 - i steps, so after r rounds chain[4 - r]
    # survives and chain[5 - r], one step closer to the exit, does not
    chain = ["0000", "0001", "0010", "0011", "0100"]
    step = dict(zip(chain, chain[1:] + ["0101"])).__getitem__
    for rounds in range(len(chain) + 2):
        assert oracles._survivors(chain, step, rounds) == set(chain[: max(5 - rounds, 0)])


def test_figure_iterates_detects_corrupted_rule(monkeypatch):
    # negative control: a broken step function must be caught, not absorbed
    real = oracles.dynamics.step_word

    def corrupted(w, rule=None):
        out = real(w) if rule is None else real(w, rule)
        if out:
            flipped = "1" if out[0] == "0" else "0"
            out = flipped + out[1:]
        return out

    monkeypatch.setattr(oracles.dynamics, "step_word", corrupted)
    report = oracles.verify_figure_iterates()
    assert report.status is OracleStatus.FAIL
    assert report.witness is not None


def test_flipflop_violation_finds_wrong_partner():
    # 11001 genuinely pairs with 10011; a wrong partner yields a witness
    assert oracles.flipflop_violation("11001", "10011") is None
    assert oracles.flipflop_violation("11001", "11011") == "1001100"


def test_flipflop_violation_partner_to_the_right():
    # the partner read one cell to the right: preimage index offset 2
    assert oracles.flipflop_violation("10011", "11001", shift=2) is None
    assert oracles.flipflop_violation("10011", "11011", shift=2) == "0011001"


def test_flipflop_violation_refuses_negative_shift():
    # a partner left of u's own preimages is the one case a context can decide
    with pytest.raises(ValueError, match="shift must be non-negative"):
        oracles.flipflop_violation("11001", "10011", shift=-1)


def _flipflop_violation_in_contexts(u, partner, pad, shift):
    """The context loop that flipflop_violation replaced, kept as its
    reference: the preimages of every a u b with |a|, |b| <= pad."""
    for la, ctx in padded(u, pad, pad):
        at = la + shift
        for v in preimages(ctx).members:
            if v[at : at + len(partner)] != partner and has_preimage(v):
                return v
    return None


def test_flipflop_violation_matches_context_loop():
    # every u of length <= 6 with partners cut from its first twice-steppable
    # preimage, then mutated (first bit flipped) and overrunning the right
    # end: 1,134 cases, 397 of them passes, in about 0.3 s
    for u in (u for n in range(1, 7) for u in words(n)):
        steppable = [v for v in preimages(u).members if has_preimage(v)]
        for shift in range(3):
            real = steppable[0][shift : shift + 4] if steppable else "1001"
            flipped = "10"[int(real[0])] + real[1:]
            for partner in (real, flipped, real + "1"):
                fast = oracles.flipflop_violation(u, partner, shift)
                for pad in (1, 2):
                    assert fast == _flipflop_violation_in_contexts(u, partner, pad, shift), (
                        u, partner, shift, pad)


def _no_double_zero_words_strings(max_len):
    """The string generator that the packed _no_double_zero_words replaced,
    kept as its reference."""
    frontier = [""]
    while frontier:
        w = frontier.pop()
        yield w
        if len(w) < max_len:
            frontier.append(w + "1")
            if not w.endswith("0"):
                frontier.append(w + "0")


@pytest.mark.parametrize("max_len", range(15))
def test_no_double_zero_words_packed_matches_strings(max_len):
    assert list(oracles._no_double_zero_words(max_len)) == [
        (len(w), int(w or "0", 2)) for w in _no_double_zero_words_strings(max_len)
    ]


@pytest.mark.parametrize("max_len", range(6))
def test_kink_elimination_parity_needs_six_cells(max_len):
    # no 001 w 100 fits in fewer than 6 cells, so the check would Pass vacuously
    with pytest.raises(ValueError, match="max_len must be at least 6"):
        oracles.verify_kink_elimination_parity(max_len)


def _kink_elimination_parity_reference(max_len):
    """The per-word loop that the packed lanes replaced, kept as their
    reference: one step_packed and one count_kinks_packed call per middle w,
    in depth-first order, stopping at the first failure."""
    budget = {"max_len": max_len}
    for n, w in oracles._no_double_zero_words(max_len - 6):
        u = 1 << n + 3 | w << 3 | 4
        image = oracles.dynamics.step_packed(u) >> 2 & (1 << n + 4) - 1
        expected = 1 << n + 3 | 1
        if image != expected:
            return oracles._fail(
                "kink_elimination_parity", budget, f"{u:0{n + 6}b}",
                f"step({u:0{n + 6}b}) = {image:0{n + 4}b}, expected {expected:0{n + 4}b}",
            )
        image_is_kink = n % 2 == 0  # gap n+2 even
        if image_is_kink != (oracles.kinks.count_kinks_packed(u) % 2 == 1):
            return oracles._fail(
                "kink_elimination_parity", budget, f"{u:0{n + 6}b}",
                "kink parity of input does not match image gap parity",
            )
    return oracles._ok("kink_elimination_parity", budget)


def test_kink_elimination_parity_failure_reports(monkeypatch):
    # witness and detail texts as the string implementation reported them; the
    # faults below read whole words (bit_count), so only the per-word
    # reference sees them as it did
    real_step = oracles.dynamics.step_packed
    # cells outside step_word's window are ignored, as step_word ignores them
    monkeypatch.setattr(
        oracles.dynamics, "step_packed", lambda x: real_step(x) | 1 << x.bit_length() + 2 | 3
    )
    assert _kink_elimination_parity_reference(16).status is OracleStatus.PASS
    assert oracles.verify_kink_elimination_parity(16).status is OracleStatus.PASS
    monkeypatch.setattr(
        oracles.dynamics, "step_packed",
        lambda x: real_step(x) ^ (8 if x.bit_count() > 5 else 0),
    )
    r = _kink_elimination_parity_reference(16)
    assert (r.status, r.witness, r.detail) == (
        OracleStatus.FAIL, "00101010101100",
        "step(00101010101100) = 100000000011, expected 100000000001",
    )
    monkeypatch.setattr(oracles.dynamics, "step_packed", real_step)
    real_count = oracles.kinks.count_kinks_packed
    monkeypatch.setattr(
        oracles.kinks, "count_kinks_packed", lambda x: real_count(x) + (x.bit_count() == 5)
    )
    r = _kink_elimination_parity_reference(16)
    assert (r.status, r.witness, r.detail) == (
        OracleStatus.FAIL, "001010101100",
        "kink parity of input does not match image gap parity",
    )


@pytest.mark.parametrize("max_len", range(6, 25))
def test_kink_elimination_parity_matches_reference(max_len):
    assert oracles.verify_kink_elimination_parity(max_len).to_json() == (
        _kink_elimination_parity_reference(max_len).to_json()
    )


_REAL_STEP = oracles.dynamics.step_packed
_REAL_ODD_DISTANCE = oracles.kinks._odd_distance

# faults that read only a few neighbouring cells, as a wrong engine would:
# three step_packed outputs flipped where the input shows a pattern, and one
# carry result flipped on 111; lanes see them exactly as single words do
_CELL_FAULTS = {
    "step-101": (oracles.dynamics, "step_packed",
                 lambda x: _REAL_STEP(x) ^ (x & x >> 2 & ~(x >> 1))),
    "step-1011": (oracles.dynamics, "step_packed",
                  lambda x: _REAL_STEP(x) ^ (x & x >> 1 & x >> 3 & ~(x >> 2)) << 1),
    "step-11x11": (oracles.dynamics, "step_packed",
                   lambda x: _REAL_STEP(x) ^ (x & x >> 1 & x >> 3 & x >> 4) << 3),
    "odd-111": (oracles.kinks, "_odd_distance",
                lambda d, f, e: _REAL_ODD_DISTANCE(d, f, e) ^ (d & d >> 1 & d >> 2)),
}


@pytest.mark.parametrize("fault", sorted(_CELL_FAULTS))
def test_kink_elimination_parity_matches_reference_under_cell_faults(monkeypatch, fault):
    monkeypatch.setattr(*_CELL_FAULTS[fault])
    for max_len in range(6, 25):
        assert oracles.verify_kink_elimination_parity(max_len).to_json() == (
            _kink_elimination_parity_reference(max_len).to_json()
        ), max_len


@pytest.mark.parametrize("fault, max_len, witness, detail", [
    ("step-101", 20, "0010100", "step(0010100) = 10000, expected 10001"),
    # an 18-cell middle: a 2-cell prefix before the 16-cell lanes
    ("odd-111", 24, "001010101010101010111100",
     "kink parity of input does not match image gap parity"),
])
def test_kink_elimination_parity_fault_reports(monkeypatch, fault, max_len, witness, detail):
    monkeypatch.setattr(*_CELL_FAULTS[fault])
    r = oracles.verify_kink_elimination_parity(max_len)
    assert (r.status, r.witness, r.detail) == (OracleStatus.FAIL, witness, detail)


def test_kink_elimination_parity_memory_is_bounded():
    # the middles longer than 16 cells go through a prefix loop, so no int
    # holds every word of a length: 128 kB traced at max_len 32
    tracemalloc.start()
    try:
        assert oracles.verify_kink_elimination_parity(32).status is OracleStatus.PASS
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak


def test_annihilation_budget_exhaustion_is_reported():
    # witness and detail as the plain per-support walk reported them
    report = oracles.verify_annihilation(max_support=6, max_steps=1)
    assert (report.status, report.witness, report.detail) == (
        OracleStatus.BUDGET_EXHAUSTED, "10011", "still 2 kinks after 1 steps",
    )


def test_annihilation_fails_when_a_step_creates_a_kink(monkeypatch):
    # negative control for the invariant inside the packed loop: a step that
    # sets the cell next to a trailing 1 turns 111 (2 kinks) into 1111 (3)
    monkeypatch.setattr(oracles.dynamics, "step_packed", lambda x: x << 1 | 1)
    report = oracles.verify_annihilation(max_support=4)
    assert report.status is OracleStatus.FAIL
    assert report.witness == "111"
    assert report.detail == "kink count rose from 2 to 3 at step 1"


def _annihilation_plain(max_support, max_steps):
    """The per-support walk that verify_annihilation's deduplicated walk
    replaced, kept as its reference: every support is stepped from scratch."""
    budget = {"max_support": max_support, "max_steps": max_steps}
    supports = [""] + ["1"] * (max_support >= 1) + [
        "1" + m + "1" for n in range(max_support - 1) for m in words(n)
    ]
    for s in supports:
        x = int(s, 2) if s else 0
        m = oracles.kinks.count_kinks_packed(x)
        parity = m % 2
        steps = 0
        while m > 1:
            if steps >= max_steps:
                return oracles.OracleReport(
                    "annihilation", OracleStatus.BUDGET_EXHAUSTED, budget, s,
                    f"still {m} kinks after {max_steps} steps",
                )
            x = oracles.dynamics.step_packed(x)
            before, m = m, oracles.kinks.count_kinks_packed(x)
            steps += 1
            if m > before:
                return oracles._fail(
                    "annihilation", budget, s,
                    f"kink count rose from {before} to {m} at step {steps}",
                )
        if m % 2 != parity:
            return oracles._fail(
                "annihilation", budget, s, f"kink parity flipped after {steps} steps"
            )
    return oracles._ok("annihilation", budget)


@pytest.mark.parametrize("max_support", range(12))
def test_annihilation_matches_plain_walk(max_support):
    # a stored tail is taken only when it fits the step budget, so every
    # budget reports what the plain walk reports, exhaustion texts included
    for max_steps in (0, 1, 2, 3, 4, 5, 8, 13, 21, 34, 4096):
        assert oracles.verify_annihilation(max_support, max_steps).to_json() == (
            _annihilation_plain(max_support, max_steps).to_json()
        ), max_steps


def test_annihilation_faults_match_plain_walk(monkeypatch):
    # a rising step is caught on a stepped transition
    monkeypatch.setattr(oracles.dynamics, "step_packed", lambda x: x << 1 | 1)
    assert oracles.verify_annihilation(4).to_json() == _annihilation_plain(4, 4096).to_json()
    monkeypatch.undo()
    # a wrong parity on 1001011 (2 kinks read as 3), whose first image lies
    # on an earlier walk: the flipped parity is read off the stored tail
    real_count, real_step = oracles.kinks.count_kinks_packed, oracles.dynamics.step_packed
    stepped = []
    monkeypatch.setattr(
        oracles.kinks, "count_kinks_packed", lambda x: real_count(x) + (x == 0b1001011)
    )
    monkeypatch.setattr(
        oracles.dynamics, "step_packed", lambda x: stepped.append(x) or real_step(x)
    )
    report = oracles.verify_annihilation(9)
    assert stepped[-1] == 0b1001011  # one step, then the tail of 6
    assert (report.status, report.witness, report.detail) == (
        OracleStatus.FAIL, "1001011", "kink parity flipped after 7 steps",
    )
    assert report.to_json() == _annihilation_plain(9, 4096).to_json()
    # a wrong parity on 1011000001, which two walks pass through: the plain
    # walk compares only first and final counts, so the stored tail must too
    monkeypatch.setattr(
        oracles.kinks, "count_kinks_packed", lambda x: real_count(x) + (x == 0b1011000001)
    )
    report = oracles.verify_annihilation(9)
    assert report.status is OracleStatus.PASS
    assert report.to_json() == _annihilation_plain(9, 4096).to_json()


def test_extension_counterexample_fails_without_101(monkeypatch):
    # negative control: a stable-extension report that does not list 101
    real = oracles.preimage.check_stable_extension

    def without_101(w, pad):
        r = real(w, pad)
        return r._replace(counterexamples=tuple(u for u in r.counterexamples if u != "101"))

    monkeypatch.setattr(oracles.preimage, "check_stable_extension", without_101)
    report = oracles.verify_extension_counterexample()
    assert report.status is OracleStatus.FAIL
    assert report.witness == "101"
    assert report.detail == (
        "101 is not listed as a kink-preserving extension of 10 with no lift through 0011"
    )
    assert report.budget == {"pads": 1}


def _two_kink_words_shaped_template(prefix, suffix, length):
    """The template-and-free-cells generator that _two_kink_words_shaped
    replaced, kept as its reference."""
    if length < max(len(prefix), len(suffix)):
        return
    template = [None] * length
    for i, ch in enumerate(prefix):
        template[i] = ch
    for i, ch in enumerate(suffix):
        j = length - len(suffix) + i
        if template[j] is not None and template[j] != ch:
            return
        template[j] = ch
    free = [i for i, t in enumerate(template) if t is None]
    for bits in words(len(free)):
        cells = list(template)
        for i, b in zip(free, bits):
            cells[i] = b
        w = "".join(cells)
        if len(find_kinks(w)) == 2:
            yield w


@pytest.mark.parametrize(
    "prefix, suffix",
    [
        ("1100", "1001"), ("1100", "0011"), ("11", "1"), ("101", "0101"), ("1", "111"),
        ("111", "1"), ("1001", "11"), ("", "11"), ("11", ""), ("1101", "011"),
        ("0011", "1100"),
    ],
)
def test_two_kink_words_shaped_matches_template(prefix, suffix):
    # ("1", "111") has a suffix longer than some lengths: nothing is yielded;
    # ("111", "1") and ("1001", "11") hold kinks in the prefix, so the cut on
    # more than two kinks fires at the first or second middle cell
    groups = oracles._two_kink_words_shaped(prefix, suffix, 15)
    assert len(groups) == 16
    for length, group in enumerate(groups):
        assert group == list(_two_kink_words_shaped_template(prefix, suffix, length)), length


def test_two_kink_backward_candidates_at_benchmark_budget():
    # the candidates verify_two_kink_backward(max_back_len=21) steps back,
    # shape A from length 5 and shape B from length 6, as the per-length
    # walks generated them
    candidates = [
        w
        for suffix, first in (("1001", 5), ("0011", 6))
        for group in oracles._two_kink_words_shaped("1100", suffix, 21)[first:]
        for w in group
    ]
    assert len(candidates) == 256
    assert hashlib.sha256("".join(w + "\n" for w in candidates).encode()).hexdigest() == (
        "34492b1a0ded388c10e298fba841809295a959173888c3251769b0837486ba61"
    )


def test_full_profile_json_digest():
    # verdicts, budgets, witnesses and the enumeration-order-dependent
    # mobility witnesses are all pinned
    text = "".join(r.to_json() + "\n" for r in run_all("full"))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "d4f22a7e2ad76fd363a5ee828d265acc585285fe56fa9ac5350fe595bfd81d26"
    )


def test_benchmark_budget_json_digest():
    # the two pruned enumerations at the budgets of the perfbench oracles workload
    text = "".join(
        r.to_json() + "\n"
        for r in (
            oracles.verify_kink_elimination_parity(24),
            oracles.verify_two_kink_backward(8, 21),
        )
    )
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "5eb91d1f42ab8308f9ca7dcabdfa8a014ea8700577084706ea1624986ecd4676"
    )


def test_full_profile_passes():
    for r in run_all("full"):
        assert r.status is OracleStatus.PASS, (r.check, r.detail, r.witness)

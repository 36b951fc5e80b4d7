"""Each bit-parallel fast path against its reference, in one table.

A case lists the fast path, its reference, inputs checked every time, a
hypothesis strategy (or None when the fixed inputs cover the whole domain) and
the number of hypothesis examples.  No reference calls its own fast path.
"""

import io
import re
from contextlib import redirect_stdout
from typing import Callable, NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinklab import (
    R18,
    R90,
    CyclicConfig,
    FiniteSupportConfig,
    count_kinks,
    count_kinks_cyclic,
    count_kinks_packed,
    find_kinks,
    step_cyclic,
    step_cyclic_packed,
    step_packed,
    step_support,
    step_word,
    step_word_scalar,
)
from kinklab.cli import main
from kinklab.density import _occurrence_counter
from kinklab.dynamics import words
from kinklab.kinks import cyclic_kink_counter
from kinklab.preimage import _automaton
from kinklab.wordclasses import is_right_unstable

RIGHT_UNSTABLE_RE = re.compile(r"[01]*11(01)*0?")


class Case(NamedTuple):
    fast: Callable
    reference: Callable
    fixed: list
    inputs: st.SearchStrategy | None
    examples: int = 300


def _packed(w: str) -> int:
    return int(w, 2) if w else 0


def _step_packed_as_support(s: str) -> tuple[str, int]:
    """step_packed on s (first cell at coordinate 0), read back as the
    canonical support and its offset: bit k of the result is cell |s| - k."""
    y = step_packed(_packed(s))
    if not y:
        return "", 0
    return format(y, "b").rstrip("0"), len(s) - (y.bit_length() - 1)


def _step_scalar_as_support(s: str) -> tuple[str, int]:
    """One scalar step of s (first cell at coordinate 0) on a 0 background,
    trimmed to its support and offset: cell j of the image is coordinate j - 1."""
    y = step_word_scalar("00" + s + "00")
    return (y.strip("0"), y.index("1") - 1) if "1" in y else ("", 0)


def _annihilation_steps_packed(s: str) -> int:
    """Steps to at most one kink, taken as verify_annihilation takes each of
    its steps: step_packed, then count_kinks_packed."""
    x, steps = _packed(s), 0
    while count_kinks_packed(x) > 1:
        x, steps = step_packed(x), steps + 1
    return steps


def _annihilation_steps_reference(s: str) -> int:
    steps = 0
    while len(find_kinks(s)) > 1:
        s = _step_scalar_as_support(s)[0]
        steps += 1
    return steps


def _rendered_support(case: tuple[str, int, int, str]) -> tuple[tuple[str, ...], int]:
    """The rows of ``kinklab simulate --support ... --render ascii`` and the
    coordinate of their first cell, the final line's."""
    support, offset, steps, rule = case
    buf = io.BytesIO()
    with redirect_stdout(io.TextIOWrapper(buf)) as out:  # the rows go to its buffer
        argv = ["simulate", "--support", support, "--offset", str(offset)]
        assert main([*argv, "--steps", str(steps), "--rule", rule, "--render", "ascii"]) == 0
        out.flush()
    *rows, last = buf.getvalue().decode().splitlines()
    return tuple(r.translate(str.maketrans(".#", "01")) for r in rows), int(last.split(" @ ")[1])


def _spacetime_support_per_cell(case: tuple[str, int, int, str]) -> tuple[tuple[str, ...], int]:
    """Each row read cell by cell, a cell off the support reading 0, over the
    window from the leftmost to the rightmost live cell of the run."""
    support, offset, steps, rule = case
    configs = [FiniteSupportConfig(support, offset)]
    for _ in range(steps):
        configs.append(step_support(configs[-1], rule))
    live = [i for c in configs for i in range(c.offset, c.offset + len(c.support))]
    left, right = (min(live), max(live) + 1) if live else (0, 1)
    cells = [dict(enumerate(c.support, c.offset)) for c in configs]
    rows = tuple("".join(row.get(i, "0") for i in range(left, right)) for row in cells)
    return rows, left


def _support_light_cone(case: tuple[str, int, int, str]) -> list[tuple[str, int]]:
    """A packed support stepped t times, read as |s| + 2t cells at offset - t."""
    support, offset, steps, rule = case
    x = FiniteSupportConfig(support, offset)
    y, n = int(x.support or "0", 2), len(x.support)
    rows = [(x.support, x.offset)]
    for t in range(1, steps + 1):
        y = step_packed(y, rule)
        rows.append((format(y, f"0{n + 2 * t}b"), x.offset - t) if n else ("", 0))
    return rows


def _support_steps(case: tuple[str, int, int, str]) -> list[tuple[str, int]]:
    support, offset, steps, rule = case
    configs = [FiniteSupportConfig(support, offset)]
    for _ in range(steps):
        configs.append(step_support(configs[-1], rule))
    return [(c.support, c.offset) for c in configs]


def _simulate(case: tuple[str, str, int, int, str]) -> str:
    """stdout of ``kinklab simulate`` without --render."""
    geometry, bits, offset, steps, rule = case
    out = io.StringIO()
    with redirect_stdout(out):
        argv = ["simulate", geometry, bits, "--offset", str(offset)]
        assert main([*argv, "--steps", str(steps), "--rule", rule]) == 0
    return out.getvalue()


def _simulate_strings(case: tuple[str, str, int, int, str]) -> str:
    """The same run on the string engines, step_cyclic or step_support."""
    geometry, bits, offset, steps, rule = case
    if geometry == "--cyclic":
        x = CyclicConfig(bits)
        for _ in range(steps):
            x = step_cyclic(x, rule)
        return x.bits + "\n"
    y = FiniteSupportConfig(bits, offset)
    for _ in range(steps):
        y = step_support(y, rule)
    return f"{y.support or '(empty)'} @ {y.offset}\n"


def _pack(bits: str) -> int:
    """Cyclic configuration to the density engine's int: bit i holds cell i."""
    return int(bits[::-1], 2)


def _unpack(x: int, width: int) -> str:
    return format(x, f"0{width}b")[::-1]


_widths = st.integers(3, 80)
cyclic_words = st.one_of(
    _widths.flatmap(lambda n: st.text("01", min_size=n, max_size=n)),
    _widths.flatmap(
        lambda n: st.sampled_from(
            ["0" * n, "1" + "0" * (n - 1), "0" * (n - 1) + "1", "1" * n]
        )
    ),
)


def _occurrences(case: tuple[str, str]) -> int:
    """Cyclic occurrences of w in bits, by string comparison on the doubled word."""
    bits, w = case
    doubled = bits + bits
    return sum(doubled[i : i + len(w)] == w for i in range(len(bits)))


# a cyclic configuration and a word of length 1 to its width
occurrence_cases = cyclic_words.flatmap(
    lambda bits: st.tuples(st.just(bits), st.text("01", min_size=1, max_size=len(bits)))
)


def _automaton_emits(case: tuple[int, int]) -> list[str]:
    """The bits that the depth-d automaton lists window x as emitting."""
    d, x = case
    windows, _ = _automaton(d)
    return [t for t in "01" if windows[t] >> x & 1]


def _window_scalar(case: tuple[int, int]) -> list[str]:
    """Window x stepped d times by the scalar reference."""
    d, x = case
    u = format(x, f"0{2 * d + 1}b")
    for _ in range(d):
        u = step_word_scalar(u)
    return [u]


EDGE_WORDS = ["", "0", "00", "0000000", "1", "11", "111", "0001", "0001011", "0101", "1001"]

CASES = {
    "count_kinks_packed": Case(
        lambda w: count_kinks_packed(_packed(w)),
        lambda w: len(find_kinks(w)),
        EDGE_WORDS,
        st.text(alphabet="01", max_size=200),
    ),
    "count_kinks": Case(
        count_kinks, lambda w: len(find_kinks(w)), EDGE_WORDS,
        st.text(alphabet="01", max_size=200),
    ),
    "step_packed": Case(
        _step_packed_as_support, _step_scalar_as_support, EDGE_WORDS,
        st.text(alphabet="01", max_size=64),
    ),
    "annihilation_steps": Case(
        _annihilation_steps_packed,
        _annihilation_steps_reference,
        [w for n in range(11) for w in words(n)],
        None,
    ),
    "step_word": Case(
        lambda a: step_word(*a),
        lambda a: step_word_scalar(*a),
        [],
        st.tuples(st.text(alphabet="01", min_size=3, max_size=64), st.sampled_from([R18, R90])),
    ),
    "cyclic_kink_counter": Case(
        lambda bits: cyclic_kink_counter(len(bits))(_pack(bits)),
        lambda bits: count_kinks_cyclic(CyclicConfig(bits)),
        # a lone 1 at odd and even width, all ones, width 3
        ["10000", "00100", "1000", "0001", "111111", "11111", "000", "100", "010", "101", "111"],
        cyclic_words,
        400,
    ),
    # both bit orders, since both rules are mirror-symmetric
    "step_cyclic_packed": Case(
        lambda c: (
            _unpack(step_cyclic_packed(_pack(c[0]), len(c[0]), c[1]), len(c[0])),
            format(step_cyclic_packed(int(c[0], 2), len(c[0]), c[1]), f"0{len(c[0])}b"),
        ),
        lambda c: (step_cyclic(CyclicConfig(c[0]), c[1]).bits,) * 2,
        [],
        st.tuples(cyclic_words, st.sampled_from([R18, R90])),
        200,
    ),
    "support_light_cone": Case(
        _support_light_cone,
        _support_steps,
        [("", 0, 3, R18), ("000", 5, 2, R90), ("1", 0, 0, R18), ("0110", -3, 5, R90)],
        st.tuples(
            st.text(alphabet="01", max_size=24), st.integers(-40, 40),
            st.integers(0, 16), st.sampled_from([R18, R90]),
        ),
        100,
    ),
    "simulate": Case(
        _simulate,
        _simulate_strings,
        [("--support", "", 0, 3, R18), ("--support", "0", 4, 2, R90),
         ("--cyclic", "1001", 0, 3, R18)],
        st.one_of(
            st.tuples(st.just("--support"), st.text("01", max_size=16), st.integers(-20, 20),
                      st.integers(0, 12), st.sampled_from([R18, R90])),
            st.tuples(st.just("--cyclic"), st.text("01", min_size=3, max_size=16),
                      st.just(0), st.integers(0, 12), st.sampled_from([R18, R90])),
        ),
        60,
    ),
    "occurrence_counter": Case(
        lambda c: _occurrence_counter(c[1], len(c[0]))(_pack(c[0])),
        _occurrences,
        [],
        occurrence_cases,
        400,
    ),
    "spacetime_support": Case(
        _rendered_support,
        _spacetime_support_per_cell,
        [("", 0, 3, R18), ("000", 5, 2, R90), ("1", 0, 0, R18), ("1", -3, 5, R90)],
        st.tuples(
            st.text(alphabet="01", max_size=24), st.integers(-40, 40),
            st.integers(0, 16), st.sampled_from([R18, R90]),
        ),
    ),
    "is_right_unstable": Case(
        is_right_unstable,
        lambda w: RIGHT_UNSTABLE_RE.fullmatch(w) is not None,
        [w for n in range(17) for w in words(n)],
        None,
    ),
    "preimage_automaton": Case(
        _automaton_emits,
        _window_scalar,
        [(d, x) for d in range(1, 4) for x in range(2 << 2 * d)],
        None,
    ),
}


def test_cyclic_kink_counter_on_every_small_cycle():
    """Every cycle of width 3 to 12: the packed count equals the string scan,
    and one rule-18 step never raises it."""
    for width in range(3, 13):
        count = cyclic_kink_counter(width)
        for x in range(1 << width):
            assert count(x) == count_kinks_cyclic(CyclicConfig(_unpack(x, width))), (width, x)
            assert count(step_cyclic_packed(x, width, R18)) <= count(x), (width, x)


@pytest.mark.parametrize("name", CASES)
def test_fast_path_matches_reference(name):
    case = CASES[name]
    for x in case.fixed:
        assert case.fast(x) == case.reference(x), x
    if case.inputs is None:
        return

    @settings(max_examples=case.examples)
    @given(case.inputs)
    def agree(x):
        assert case.fast(x) == case.reference(x)

    agree()

"""Each bit-parallel fast path against its reference, in one table.

A case lists the fast path, its reference, inputs checked every time and a
hypothesis strategy (or None when the fixed inputs cover the whole domain).
"""

from typing import Callable, NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinklab import (
    R18,
    R90,
    FiniteSupportConfig,
    count_kinks,
    count_kinks_packed,
    find_kinks,
    step_packed,
    step_support,
    step_word,
    step_word_scalar,
)
from kinklab.dynamics import words
from kinklab.oracles import _kink_counts


class Case(NamedTuple):
    fast: Callable
    reference: Callable
    fixed: list
    inputs: st.SearchStrategy | None


def _packed(w: str) -> int:
    return int(w, 2) if w else 0


def _step_packed_as_support(s: str) -> tuple[str, int]:
    """step_packed on s (first cell at coordinate 0), read back as the
    canonical support and its offset: bit k of the result is cell |s| - k."""
    y = step_packed(_packed(s))
    if not y:
        return "", 0
    return format(y, "b").rstrip("0"), len(s) - (y.bit_length() - 1)


def _step_support_reference(s: str) -> tuple[str, int]:
    c = step_support(FiniteSupportConfig(s))
    return c.support, c.offset


def _annihilation_steps_packed(s: str) -> int:
    return next(t for t, m in enumerate(_kink_counts(_packed(s))) if m <= 1)


def _annihilation_steps_reference(s: str) -> int:
    cfg = FiniteSupportConfig(s)
    steps = 0
    while len(find_kinks(cfg.support)) > 1:
        cfg = step_support(cfg)
        steps += 1
    return steps


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
        _step_packed_as_support, _step_support_reference, EDGE_WORDS,
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
}


@pytest.mark.parametrize("name", CASES)
def test_fast_path_matches_reference(name):
    case = CASES[name]
    for x in case.fixed:
        assert case.fast(x) == case.reference(x), x
    if case.inputs is None:
        return

    @settings(max_examples=300)
    @given(case.inputs)
    def agree(x):
        assert case.fast(x) == case.reference(x)

    agree()

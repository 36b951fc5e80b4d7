from itertools import product

import pytest

from kinklab import (
    StabilityClass,
    classify_stability,
    count_kinks,
    in_B,
    in_P,
    is_left_kink_word,
)
from kinklab.errors import NotTwoKink
from kinklab.wordclasses import is_left_unstable


def all_words(max_len, min_len=0):
    for n in range(min_len, max_len + 1):
        for bits in product("01", repeat=n):
            yield "".join(bits)


@pytest.mark.parametrize(
    "w,expected",
    [
        ("0011", StabilityClass.RIGHT_UNSTABLE),
        ("001101100", StabilityClass.STABLE),
        ("11", StabilityClass.BOTH_UNSTABLE),
        ("", StabilityClass.STABLE),
        ("0", StabilityClass.STABLE),
        ("1", StabilityClass.STABLE),
        ("1100", StabilityClass.LEFT_UNSTABLE),
        ("0011", StabilityClass.RIGHT_UNSTABLE),
    ],
)
def test_classify_examples(w, expected):
    assert classify_stability(w) is expected


def test_left_kink_word_examples():
    assert is_left_kink_word("11")
    assert is_left_kink_word("100101")
    assert not is_left_kink_word("0110")
    assert not is_left_kink_word("10011")


def test_in_B_examples():
    assert in_B("11001")
    assert not in_B("11011")  # the excluded alternating shape 11(01)^1 1
    assert in_B("1100001")
    assert not in_B("111")
    assert not in_B("10011")  # does not begin with 11
    assert not in_B("1101011")  # the excluded alternating shape 11(01)^2 1
    assert in_B("1101001")  # one cell off it


def test_in_B_members_are_left_unstable():
    for w in all_words(12):
        if in_B(w):
            assert is_left_unstable(w), w


def test_in_B_reversed():
    assert in_B("10011"[::-1])
    assert not in_B("11001"[::-1])


@pytest.mark.parametrize(
    "w,expected",
    [
        ("10011", False),
        ("001101100", True),
        ("1101011", False),
        ("1101001", True),
        ("11001", False),  # flip-flop endpoint k=0
        ("11011", True),
        ("11000101001", False),  # 1 (100010)^1 1001
        ("10010100011", False),  # 1001 (010001)^1 1
        ("0110001010010", False),  # the k=1 shape inside zeros
        ("11000101000101001", False),  # 1 (100010)^2 1001
        ("10010100010100011", False),  # 1001 (010001)^2 1
        ("11000001001", True),  # one cell off the k=1 shape
        ("10010000010100011", True),  # one cell off the k=2 shape
    ],
)
def test_in_P_examples(w, expected):
    assert in_P(w) is expected


def test_in_P_requires_two_kinks():
    with pytest.raises(NotTwoKink):
        in_P("101")
    with pytest.raises(NotTwoKink):
        in_P("11011011")


def test_in_P_on_111():
    # 111 holds two overlapping kinks, so it is in scope, and excluded
    assert in_P("111") is False


def test_extension_stability_exhaustive():
    # one-symbol kink-preserving extensions of stable words stay stable
    for w in all_words(12):
        if classify_stability(w) is not StabilityClass.STABLE:
            continue
        m = count_kinks(w)
        for a in ("0", "1"):
            for b in ("0", "1"):
                e = a + w + b
                if count_kinks(e) == m:
                    assert classify_stability(e) is StabilityClass.STABLE, e

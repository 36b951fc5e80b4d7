import pytest
from hypothesis import given
from hypothesis import strategies as st

from kinklab import (
    CyclicConfig,
    count_kinks,
    count_kinks_cyclic,
    count_kinks_packed,
    find_kinks,
    step_word,
    two_kink_decompose,
)
from kinklab.errors import NotTwoKink
from kinklab.kinks import cyclic_kink_counter
from kinklab.wordclasses import is_stable

words = st.text(alphabet="01", max_size=64)


def brute_force_kinks(w):
    """Quadratic reference scan for 1 0^{2k} 1 occurrences."""
    out = []
    for i in range(len(w)):
        for k in range((len(w) - i - 2) // 2 + 1):
            if w[i : i + 2 * k + 2] == "1" + "0" * 2 * k + "1":
                out.append((i, 2 * k))
    return sorted(out)


def test_find_kinks_examples():
    assert find_kinks("111") == [(0, 0), (1, 0)]
    assert find_kinks("1001011") == [(0, 2), (5, 0)]
    assert find_kinks("10101") == []


def test_count_examples():
    assert count_kinks("1101001") == 2
    assert count_kinks("0" * 9) == 0
    assert count_kinks("10011") == 2
    assert count_kinks("111") % 2 == 0
    assert count_kinks("11") % 2 == 1


def test_count_kinks_packed_rejects_negative():
    # a negative int has infinitely many 1s
    with pytest.raises(ValueError):
        count_kinks_packed(-1)


@pytest.mark.parametrize("x", [-1, -3, 0b100000, 1 << 70], ids=["-1", "-3", "2**5", "2**70"])
def test_cyclic_kink_counter_rejects_x_outside_the_width(x):
    with pytest.raises(ValueError, match=r"\[0, 2\*\*5\)"):
        cyclic_kink_counter(5)(x)


@given(words)
def test_find_kinks_matches_brute_force(w):
    assert [tuple(o) for o in find_kinks(w)] == brute_force_kinks(w)


def test_count_kinks_cyclic_examples():
    assert count_kinks_cyclic(CyclicConfig("1001")) == 2
    assert count_kinks_cyclic(CyclicConfig("0101")) == 0
    assert count_kinks_cyclic(CyclicConfig("1111")) == 4
    assert count_kinks_cyclic(CyclicConfig("0000")) == 0
    # a lone 1 is (1 0^(w-1))^∞: one kink per period when the width w is odd
    assert count_kinks_cyclic(CyclicConfig("10000")) == 1
    assert count_kinks_cyclic(CyclicConfig("1000")) == 0


def test_two_kink_decompose_examples():
    d = two_kink_decompose("11011")
    assert (d.b, d.delta, d.left_gap, d.right_gap) == ("11011", "0", 0, 0)
    d = two_kink_decompose("10011")
    assert (d.b, d.delta, d.left_gap, d.right_gap) == ("10011", "", 2, 0)
    assert d.overlapping
    d = two_kink_decompose("1101001")
    assert (d.b, d.delta, d.left_gap, d.right_gap) == ("1101001", "0", 0, 2)


def test_two_kink_decompose_rejects_other_counts():
    with pytest.raises(NotTwoKink):
        two_kink_decompose("101")
    with pytest.raises(NotTwoKink):
        two_kink_decompose("11011011")
    # 111 holds exactly two overlapping kinks and is in scope
    d = two_kink_decompose("111")
    assert d.overlapping and d.b == "111"


@given(words)
def test_decomposition_reassembles(w):
    if count_kinks(w) != 2:
        return
    d = two_kink_decompose(w)
    assert w[d.b_start : d.b_start + len(d.b)] == d.b
    left = "1" + "0" * d.left_gap + "1"
    right = "1" + "0" * d.right_gap + "1"
    if d.overlapping:
        assert d.b == left + right[1:]
    else:
        assert d.b == left + d.delta + right


@given(st.text(alphabet="01", min_size=3, max_size=64))
def test_kink_non_creation(w):
    assert count_kinks(step_word(w)) <= count_kinks(w)


@given(st.text(alphabet="01", min_size=3, max_size=64))
def test_stable_parity_preserved(w):
    if is_stable(w):
        assert count_kinks(step_word(w)) % 2 == count_kinks(w) % 2

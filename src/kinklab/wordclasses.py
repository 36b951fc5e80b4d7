"""Membership tests for the word classes governing kink dynamics.

A word is left unstable when it matches the regular expression
(e+0)(10)*11(0+1)*, decided by the stdlib ``re`` engine, and right unstable
when its reversal is left unstable, i.e. it matches (0+1)*11(01)*(e+0).
A word is stable when it is neither.
"""

from __future__ import annotations

import re
from enum import Enum

from .dynamics import check_word
from .errors import NotTwoKink
from .kinks import count_kinks, find_kinks, two_kink_decompose


class StabilityClass(Enum):
    STABLE = "Stable"
    LEFT_UNSTABLE = "LeftUnstable"
    RIGHT_UNSTABLE = "RightUnstable"
    BOTH_UNSTABLE = "BothUnstable"


_LEFT_UNSTABLE_RE = re.compile(r"0?(10)*11[01]*")
# B excludes the alternating shapes; P excludes the flip-flop shapes.
_ALTERNATING_B_RE = re.compile(r"11(01)*1")
_FLIPFLOP_RE = re.compile(r"1(100010)*1001|1001(010001)*1")


def is_left_unstable(w: str) -> bool:
    return _LEFT_UNSTABLE_RE.fullmatch(check_word(w)) is not None


def is_right_unstable(w: str) -> bool:
    return is_left_unstable(w[::-1])


def classify_stability(w: str) -> StabilityClass:
    left = is_left_unstable(w)
    right = is_right_unstable(w)
    if left and right:
        return StabilityClass.BOTH_UNSTABLE
    if left:
        return StabilityClass.LEFT_UNSTABLE
    if right:
        return StabilityClass.RIGHT_UNSTABLE
    return StabilityClass.STABLE


def is_stable(w: str) -> bool:
    return classify_stability(w) is StabilityClass.STABLE


def is_left_kink_word(w: str) -> bool:
    """Begins with a kink and contains no other kink."""
    occ = find_kinks(w)
    return len(occ) == 1 and occ[0].position == 0


def in_B(w: str) -> bool:
    """Two-kink words that begin with 11 and end with a kink (the terminal kink
    may overlap the prefix), excluding the alternating shapes 11(01)^k 1."""
    check_word(w)
    occ = find_kinks(w)
    if len(occ) != 2 or not w.startswith("11"):
        return False
    if not any(p + g + 1 == len(w) - 1 for p, g in occ):
        return False
    return _ALTERNATING_B_RE.fullmatch(w) is None


def in_P(w: str) -> bool:
    """The two-kink words occurring in the generic limit set.

    Precondition: w has exactly two kinks (NotTwoKink otherwise); the
    characterization only quantifies over two-kink words.
    """
    if count_kinks(w) != 2:
        raise NotTwoKink(f"membership in P is defined for two-kink words: {w!r}")
    d = two_kink_decompose(w)
    if d.b == "111":
        return False
    if d.left_gap == 0 and d.right_gap == 0 and not d.overlapping:
        # b = 11 v 11: the separator must hold an even number of 1s.
        if d.delta.count("1") % 2 == 1:
            return False
    return _FLIPFLOP_RE.fullmatch(d.b) is None

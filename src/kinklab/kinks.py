"""Kink detection and decomposition.

A kink is an occurrence of 1 0^{2k} 1; its position is the index of its left
border (the leftmost 1).  Occurrences at distinct positions are distinct kinks
even when they share a 1-symbol: 111 holds two.

The string scans ``find_kinks`` and ``count_kinks_cyclic`` are the references
for the packed counters, which share one carry helper, ``_odd_distance``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

from .dynamics import CyclicConfig, check_word
from .errors import NotTwoKink


class KinkOccurrence(NamedTuple):
    position: int
    gap: int


def find_kinks(w: str) -> list[KinkOccurrence]:
    """All kink occurrences, sorted by position, in a single left-to-right scan.

    Only consecutive 1-symbols can bound a kink, and the gap between ones at
    positions p < q is even exactly when q - p is odd.
    """
    check_word(w)
    out: list[KinkOccurrence] = []
    prev = -1
    for i, ch in enumerate(w):
        if ch == "1":
            if prev >= 0 and (i - prev) % 2 == 1:
                out.append(KinkOccurrence(prev, i - prev - 1))
            prev = i
    return out


def _odd_distance(d: int, full: int, even: int) -> int:
    """On the 1s of d, the bits whose last lower 1 in d lies at odd distance,
    ``even`` being alternate bits up to ``full`` >= d; other bits are noise.  In
    ``2g + (full - d) = g + (g | zeros)``, g = d & even, a 1 in g generates a
    carry, another 1 kills it and a 0 passes it on."""
    return ((d & even) * 2 + full - d) ^ even


def count_kinks_packed(x: int) -> int:
    """Kinks of the finite word held in the bits of x (reference: ``find_kinks``):
    the 1s whose preceding 1 lies at odd distance.  Leading zeros and the
    reading direction do not change the count."""
    if x < 0:
        raise ValueError(f"packed word must be non-negative, got {x}")
    rest = x & (x - 1)  # every 1 but the lowest
    full = (1 << x.bit_length()) - 1
    return (_odd_distance(x, full, full // 3) & rest).bit_count()


def count_kinks(w: str) -> int:
    check_word(w)
    return count_kinks_packed(int(w, 2)) if w else 0


def cyclic_kink_counter(width: int) -> Callable[[int], int]:
    """Cyclic kink count of a packed configuration x < 2**width, bit i holding
    cell i (reference: ``count_kinks_cyclic``): the 1s whose cyclic predecessor
    1 lies at odd distance.  Every 1 but the lowest reads its predecessor in x
    itself; the lowest wraps to the highest, and a lone 1 to itself."""
    full = (1 << width) - 1
    even = full // 3

    def count(x: int) -> int:
        if x >> width:  # x < 0 or x >= 2**width
            raise ValueError(f"packed cycle must lie in [0, 2**{width})")
        if not x:
            return 0
        rest = x & (x - 1)
        wrap = width - x.bit_length() + (x ^ rest).bit_length()  # wrap gap + 1
        return (_odd_distance(x, full, even) & rest).bit_count() + (wrap & 1)

    return count


def count_kinks_cyclic(x: CyclicConfig) -> int:
    """Kinks of the periodic configuration x^∞ per period: the even gaps between
    cyclically consecutive 1s, the first and last pieces joined as the wrap gap.
    On an odd cycle a lone 1 bounds one kink with its own next copy."""
    pieces = x.bits.split("1")
    if len(pieces) == 1:
        return 0
    inner = sum(1 for gap in pieces[1:-1] if len(gap) % 2 == 0)
    return inner + ((len(pieces[0]) + len(pieces[-1])) % 2 == 0)


class TwoKinkDecomposition(NamedTuple):
    b: str
    delta: str
    left_gap: int
    right_gap: int
    b_start: int
    overlapping: bool  # b = 1 0^{2k} 1 0^{2l} 1 with the middle 1 shared


def two_kink_decompose(w: str) -> TwoKinkDecomposition:
    """Smallest subword containing both kinks, plus the separator between them."""
    occ = find_kinks(w)
    if len(occ) != 2:
        raise NotTwoKink(f"expected exactly 2 kinks, found {len(occ)} in {w!r}")
    (p1, g1), (p2, g2) = occ
    end = p2 + g2 + 2
    b = w[p1:end]
    overlapping = p2 == p1 + g1 + 1
    delta = "" if overlapping else w[p1 + g1 + 2 : p2]
    return TwoKinkDecomposition(b, delta, g1, g2, p1, overlapping)

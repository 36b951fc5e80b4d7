"""Exact steps of rules 18 and 90 on finite words, cycles and finite-support
configurations; ``kinklab simulate`` writes a run's diagram a row per step.

Words are plain Python strings over {0, 1}.  Each geometry steps one packed int
with a few shifts and bitwise ops: ``step_packed`` on a 0 background (words and
supports), ``step_cyclic_packed`` on a cycle.  The string engines
``step_word_scalar``, ``step_cyclic`` and ``step_support`` are their references.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

from .errors import BadWord, WidthTooSmall, WordTooShort

R18 = "r18"
R90 = "r90"

# Output bit for neighborhood abc at index 4a+2b+c.
RULE18_TABLE = (0, 1, 0, 0, 1, 0, 0, 0)
RULE90_TABLE = (0, 1, 0, 1, 1, 0, 1, 0)

_TABLES = {R18: RULE18_TABLE, R90: RULE90_TABLE}


def check_word(w: str) -> str:
    if w.strip("01"):
        raise BadWord(f"not a binary word: {w!r}")
    return w


def words(n: int):
    """Every binary word of length n, in lexicographic order."""
    return ("".join(bits) for bits in product("01", repeat=n))


def padded(w: str, max_left: int, max_right: int):
    """Yield (|a|, a + w + b) for binary |a| <= max_left, |b| <= max_right,
    ordered by |a|, then |b|, then a, then b."""
    for la in range(max_left + 1):
        for lb in range(max_right + 1):
            for a in words(la):
                for b in words(lb):
                    yield la, a + w + b


def rule18_local(a: int, b: int, c: int) -> int:
    return RULE18_TABLE[4 * a + 2 * b + c]


def step_word(w: str, rule: str = R18) -> str:
    """One synchronous step on a finite word; output is 2 symbols shorter:
    ``step_packed`` on the word packed into an int, without the border cells."""
    if rule not in (R18, R90):
        raise ValueError(f"unknown rule {rule!r}")
    n = len(check_word(w))
    if n < 3:
        raise WordTooShort(f"cannot step word of length {n} < 3")
    return format(step_packed(int(w, 2), rule) >> 2 & (1 << n - 2) - 1, f"0{n - 2}b")


def step_packed(x: int, rule: str = R18) -> int:
    """One step of the word in the bits of x on a 0 background, one cell left:
    ``step_word("00" + s + "00", rule)`` read as an int.  Rule 18 is
    ``~b & (a ^ c)`` and rule 90 is ``a ^ c``."""
    if x < 0:
        raise ValueError(f"packed word must be non-negative, got {x}")
    if rule == R18:
        return ~(x << 1) & (x ^ x << 2)
    if rule == R90:
        return x ^ x << 2
    raise ValueError(f"unknown rule {rule!r}")


def step_cyclic_packed(x: int, width: int, rule: str = R18) -> int:
    """One step of the cycle held in x < 2**width: each rotation is a shift with
    the bit it pushes out moved to the other end.  Both rules are mirror-symmetric,
    so bit i may hold cell i or cell width - 1 - i."""
    top = width - 1
    h = x >> top
    if h >> 1:  # x < 0 or x >= 2**width
        raise ValueError(f"packed cycle must lie in [0, 2**{width})")
    lanes = x << 1 ^ x >> 1 ^ (h | h << width) ^ (x & 1) << top
    if rule == R18:
        return lanes ^ (lanes & x)
    if rule == R90:
        return lanes
    raise ValueError(f"unknown rule {rule!r}")


def step_word_scalar(w: str, rule: str = R18) -> str:
    """Naive triple-loop reference used to cross-check the bit-parallel path."""
    if rule not in (R18, R90):
        raise ValueError(f"unknown rule {rule!r}")
    check_word(w)
    if len(w) < 3:
        raise WordTooShort(f"cannot step word of length {len(w)} < 3")
    table = _TABLES[rule]
    bits = [int(ch) for ch in w]
    return "".join(
        str(table[4 * bits[i] + 2 * bits[i + 1] + bits[i + 2]])
        for i in range(len(w) - 2)
    )


def iterate_word(w: str, n: int, rule: str = R18) -> str:
    if rule not in (R18, R90):
        raise ValueError(f"unknown rule {rule!r}")
    check_word(w)
    if n < 0:
        raise ValueError("step count must be non-negative")
    if n == 0:
        return w
    if len(w) < 2 * n + 1:
        raise WordTooShort(f"length {len(w)} word cannot survive {n} steps")
    for _ in range(n):
        w = step_word(w, rule)
    return w


class CyclicConfig(NamedTuple("_Cyclic", [("bits", str)])):
    """Fixed-width periodic configuration; indexing is modulo the width."""

    __slots__ = ()

    def __new__(cls, bits: str) -> CyclicConfig:
        if len(check_word(bits)) < 3:
            raise WidthTooSmall(f"cyclic width {len(bits)} < 3")
        return super().__new__(cls, bits)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    @property
    def width(self) -> int:
        return len(self.bits)


def step_cyclic(x: CyclicConfig, rule: str = R18) -> CyclicConfig:
    wrapped = x.bits[-1] + x.bits + x.bits[0]
    return CyclicConfig(step_word(wrapped, rule))


class FiniteSupportConfig(NamedTuple("_FiniteSupport", [("support", str), ("offset", int)])):
    """Bi-infinite configuration with 0-background and finite support.

    The support is trimmed to canonical form (begins and ends with 1, or is
    empty); the offset is the coordinate of the support's leftmost symbol.
    """

    __slots__ = ()

    def __new__(cls, support: str = "", offset: int = 0) -> FiniteSupportConfig:
        if "1" not in check_word(support):
            return super().__new__(cls, "", 0)
        lead = support.index("1")
        return super().__new__(cls, support[lead : support.rindex("1") + 1], offset + lead)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace trims too


def step_support(x: FiniteSupportConfig, rule: str = R18) -> FiniteSupportConfig:
    """Step the whole bi-infinite configuration.

    Padding the support with two background zeros on each side and stepping it
    as a word is exact, also when it is empty, since both rules map 000 to 0.
    """
    stepped = step_word("00" + x.support + "00", rule)
    return FiniteSupportConfig(stepped, x.offset - 1)

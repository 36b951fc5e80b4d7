"""Preimage enumeration under rule 18 and kink-preserving extension families.

A u with f^d(u) = w is a walk through 2d-cell overlap states: each move appends
one cell and emits the (2d+1)-cell window stepped d times, which must equal the
next bit of w.  A right-to-left pass over the backward closure of the moves
gives, per layer, the mask of states that can still complete w, and enumeration
walks only those states (the transfer-matrix view of Jen 1989); the automaton
is walked per word and never determinized.  Extension families are honest
finite truncations with explicit pad bounds.
"""

from __future__ import annotations

import re
from functools import cache
from typing import NamedTuple

from .dynamics import check_word, padded, step_packed, step_word
from .errors import PadTooLarge, WordTooShort
from .kinks import count_kinks

MAX_PAD = 8
MAX_DEPTH = 10

_EXCLUDED_FORM_RE = re.compile(r"0?(10)*1?")


class PreimageSet(NamedTuple("_PreimageSet", [("target", str), ("members", tuple[str, ...])])):
    """The preimages of target; ``len`` and ``in`` read the members."""

    __slots__ = ()

    def __contains__(self, u: str) -> bool:
        return u in self.members

    def __len__(self) -> int:
        return len(self.members)

    # the stock _make, which _replace calls, checks len() against the 2 fields
    _make = classmethod(lambda cls, fields: cls(*fields))


@cache
def _automaton(d: int) -> tuple[dict[str, int], dict[str, dict[int, int]]]:
    """Rule 18 stepped d times, over the 4^d overlaps of 2d cells: the
    (2d+1)-cell window x moves from state x >> 1 to its last 2d cells.

    windows[t]: the set of windows that emit t, as bits.  back[t][mask]: the
    states with a move emitting t into a state of mask, filled by _reach_masks
    as masks occur and kept for the process, at most 2^24 bits of them per t."""
    emits = "01"  # emits[x]: the bit window x emits, after 0 steps so far
    for k in range(3, 2 * d + 2, 2):  # one more step: x steps onto k - 2 cells
        emits = "".join(emits[step_packed(x) >> 2 & (1 << k - 2) - 1] for x in range(1 << k))
    ones = int(emits[::-1], 2)
    return {"0": ones ^ (1 << len(emits)) - 1, "1": ones}, {"0": {}, "1": {}}


def _check_target(w: str) -> str:
    """Validate a preimage target: a nonempty binary word."""
    if not check_word(w):
        raise WordTooShort("preimages need a nonempty target")
    return w


def _reach_masks(w: str, d: int = 1):
    """Yield, for i from |w| down to 0, the mask of the depth-d overlap states
    at layer i that can complete w[i:]."""
    n = 1 << 2 * d  # states
    windows, back = _automaton(d)
    yield (r := (1 << n) - 1)
    for t in reversed(_check_target(w)):
        try:
            r = back[t][r]
        except KeyError:  # first use of r: x holds the windows that emit t and
            # end in a state of r; state s owns windows 2s and 2s + 1, so its
            # bit is an odd binary digit of x | x >> 1
            x = (r | r << n) & windows[t]
            prev, r = r, int(format(x | x >> 1, f"0{2 * n}b")[1::2], 2)
            if len(back[t]) < 1 << 24 - 2 * d:  # each mask has 4^d bits
                back[t][prev] = r
        yield r


def _walk(w: str, at: int = 0, pin: str = "") -> list[str]:
    """Every u with step_word(u) = w and u[at + j] = pin[j] wherever that cell
    lies in u, in lexicographic order.  A branch ends at its first cell off
    pin, so the walk takes at most 2^(|w| + 2 - len(pin)) branches."""
    reach = [*_reach_masks(w)][::-1]
    windows, _ = _automaton(1)
    n = len(w)
    # fits[k]: the values cell k may take, as bits
    fits = [1 << int(pin[k - at]) if 0 <= k - at < len(pin) else 3 for k in range(n + 2)]
    # nxt[i][s]: the cells c, as bits, that layer i appends from state s: window
    # 2s + c emits w[i], state 2(s & 1) + c is in reach and cell i + 2 fits c
    nxt = [[windows[t] >> 2 * s & reach[i + 1] >> 2 * (s & 1) & fits[i + 2] for s in range(4)]
           for i, t in enumerate(w)]
    members: list[str] = []
    stack = [(0, s, format(s, "02b")) for s in range(3, -1, -1)
             if reach[0] >> s & fits[0] >> (s >> 1) & fits[1] >> (s & 1) & 1]
    while stack:  # depth first, "0" pushed last and popped first: lexicographic
        i, s, prefix = stack.pop()
        if i == n:
            members.append(prefix)
            continue
        m, h = nxt[i][s], (s & 1) << 1
        if m & 2:
            stack.append((i + 1, h | 1, prefix + "1"))
        if m & 1:
            stack.append((i + 1, h, prefix + "0"))
    return members


def preimages(w: str) -> PreimageSet:
    """All u of length |w|+2 with step_word(u) = w, in lexicographic order."""
    return PreimageSet(w, tuple(_walk(w)))


def count_preimages(w: str) -> int:
    """len(preimages(w)) without enumerating: per layer, the number of walks
    ending in each overlap state, in Python ints, O(|w|).  Windows s and s | 4
    end in state s, from states s >> 1 and s >> 1 | 2."""
    windows, _ = _automaton(1)
    counts = [1] * 4
    for t in _check_target(w):
        x = windows[t]
        counts = [(x >> s & 1) * counts[s >> 1] + (x >> (s | 4) & 1) * counts[s >> 1 | 2]
                  for s in range(4)]
    return sum(counts)


def has_preimage(w: str) -> bool:
    """Existence-only variant of preimages(), O(|w|): no reach mask is empty."""
    return all(_reach_masks(w))


def preimage_depth(w: str, d: int) -> bool:
    """True iff a preimage chain of length d above w exists, that is, some u
    of length |w| + 2d steps d times onto w.  The first probe at depth d builds
    the 4^d-state automaton, so d is at most MAX_DEPTH."""
    if not 0 <= d <= MAX_DEPTH:
        raise ValueError(f"depth must be between 0 and {MAX_DEPTH}, got {d}")
    if d == 0:
        check_word(w)
        return True
    return all(_reach_masks(w, d))  # a dead mask stays dead: stop at the first


class ExtensionFamily(NamedTuple):
    """Finite truncation of the kink-preserving extension set of a base word."""

    base: str
    left_pad: int
    right_pad: int
    members: frozenset[str]


def enumerate_extensions(w: str, left_pad: int, right_pad: int) -> ExtensionFamily:
    check_word(w)
    if left_pad < 0 or right_pad < 0:
        raise ValueError(f"pads must be non-negative, got {(left_pad, right_pad)}")
    if left_pad > MAX_PAD or right_pad > MAX_PAD:
        raise PadTooLarge(f"pads {(left_pad, right_pad)} exceed bound {MAX_PAD}")
    m = count_kinks(w)
    members = frozenset(
        e for _, e in padded(w, left_pad, right_pad) if count_kinks(e) == m
    )
    return ExtensionFamily(w, left_pad, right_pad, members)


def is_excluded_form(w: str) -> bool:
    """Shapes 0^a (10)^n 1^b with a, b in {0, 1}, on which lifting is only
    determined up to parity."""
    return bool(_EXCLUDED_FORM_RE.fullmatch(check_word(w)))


class StableExtensionReport(NamedTuple):
    word: str
    pad: int
    inclusion_holds: bool
    equality_holds: bool
    excluded_form: bool
    counterexamples: tuple[str, ...] = ()


def check_stable_extension(w: str, pad: int) -> StableExtensionReport:
    """Bounded check that stepping maps the extension family of w into (and
    onto) the extension family of step_word(w).

    Equality is only probed for extensions representable within the pad
    budget; the report carries the budget so an inconclusive result is
    distinguishable from a refutation.
    """
    if len(check_word(w)) < 3:
        raise WordTooShort(f"need |w| >= 3, got {len(w)}")
    fw = step_word(w)
    m_w = count_kinks(w)
    m_fw = count_kinks(fw)
    excluded = is_excluded_form(w)
    alpha = 1 if w.startswith("0") else 0
    bad: list[str] = []

    inclusion = True
    family = enumerate_extensions(w, pad, pad)
    for e in sorted(family.members):
        # step_word(e) holds step_word(w) where e holds w (locality), so only
        # its kink count can fail
        if count_kinks(step_word(e)) != m_fw:
            inclusion = False
            bad.append(e)

    equality = True
    for la, u in padded(fw, pad, pad):
        if count_kinks(u) != m_fw:
            continue
        if excluded and any(
            u[i] == "1" for i in range(len(u)) if (i - la - alpha) % 2 != 0
        ):
            continue  # equality is only claimed up to parity
        if not _lifts(w, m_w, u, la):
            equality = False
            bad.append(u)
    return StableExtensionReport(
        word=w,
        pad=pad,
        inclusion_holds=inclusion,
        equality_holds=equality,
        excluded_form=excluded,
        counterexamples=tuple(bad),
    )


def _lifts(w: str, m_w: int, u: str, la: int) -> list[str]:
    """Every a' w b' with |a'| = la and m_w kinks that steps onto u, in
    lexicographic order: the preimages of u with w pinned at la."""
    return [e for e in _walk(u, la, w) if count_kinks(e) == m_w]

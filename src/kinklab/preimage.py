"""Preimage enumeration under rule 18 and kink-preserving extension families.

A preimage u of w is a walk through 2-bit overlap states: the state at layer i
is (u[i], u[i+1]), and the move to (u[i+1], u[i+2]) emits rule18 of the three
cells, which must equal w[i].  The moves form a fixed transition table, built
once; a right-to-left pass over its backward closure gives, per layer, the mask
of states that can still complete w, and enumeration walks only those states
(the transfer-matrix view of Jen 1989).  Extension families are honest finite
truncations with explicit pad bounds.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import dynamics, wordclasses
from .dynamics import check_word, padded, step_word, words
from .errors import (
    BadShape,
    ExcludedForm,
    NoLift,
    NonUnique,
    NotStable,
    PadTooLarge,
    WordTooShort,
)
from .kinks import count_kinks

MAX_PAD = 8

_EXCLUDED_FORM_RE = re.compile(r"0?(10)*1?")


@dataclass(frozen=True)
class PreimageSet:
    target: str
    members: tuple[str, ...]

    def __contains__(self, u: str) -> bool:
        return u in self.members

    def __len__(self) -> int:
        return len(self.members)


def _moves(t: int) -> tuple[tuple[tuple[str, int], ...], ...]:
    """Per overlap state s = (x, y): the (c, (y, c)) moves with rule18(x, y, c) = t,
    c = "1" first so that a stack walk pops "0" first."""
    return tuple(
        tuple(
            (str(c), (s & 1) << 1 | c)
            for c in (1, 0)
            if dynamics.rule18_local(s >> 1, s & 1, c) == t
        )
        for s in range(4)
    )


# The rule as a fixed automaton over 2-bit overlap states, keyed by emitted bit.
_MOVES = {str(t): _moves(t) for t in (0, 1)}
# _BACK[t][mask]: the states with a move emitting t into a state of mask.
_BACK = {
    t: tuple(
        sum(1 << s for s in range(4) if any(mask >> ns & 1 for _, ns in moves[s]))
        for mask in range(16)
    )
    for t, moves in _MOVES.items()
}


def _check_target(w: str) -> str:
    """Validate a preimage target: a nonempty binary word."""
    if not check_word(w):
        raise WordTooShort("preimages need a nonempty target")
    return w


def _reach_table(w: str) -> list[int]:
    """reach[i] = mask of the overlap states at layer i that can complete w[i:]."""
    reach = [15] * (len(w) + 1)
    for i in range(len(w) - 1, -1, -1):
        reach[i] = _BACK[w[i]][reach[i + 1]]
    return reach


def preimages(w: str) -> PreimageSet:
    """All u of length |w|+2 with step_word(u) = w, in lexicographic order."""
    n = len(_check_target(w))
    reach = _reach_table(w)
    members: list[str] = []
    stack = [(0, s, format(s, "02b")) for s in range(3, -1, -1) if reach[0] >> s & 1]
    while stack:  # depth first, smaller bits popped first: lexicographic
        i, s, prefix = stack.pop()
        if i == n:
            members.append(prefix)
            continue
        for c, ns in _MOVES[w[i]][s]:
            if reach[i + 1] >> ns & 1:
                stack.append((i + 1, ns, prefix + c))
    return PreimageSet(w, tuple(members))


def count_preimages(w: str) -> int:
    """len(preimages(w)) without enumerating: per layer, the number of walks
    ending in each overlap state, in Python ints, O(|w|)."""
    counts = [1] * 4
    for t in _check_target(w):
        nxt = [0] * 4
        for s, moves in enumerate(_MOVES[t]):
            for _, ns in moves:
                nxt[ns] += counts[s]
        counts = nxt
    return sum(counts)


def has_preimage(w: str) -> bool:
    """Existence-only variant of preimages(), O(|w|)."""
    return _reach_table(_check_target(w))[0] != 0


def preimage_depth(w: str, d: int) -> bool:
    """True iff a preimage chain of length d above w exists."""
    if d < 0:
        raise ValueError("depth must be non-negative")
    frontier = {check_word(w)}
    for _ in range(d):
        frontier = {u for v in frontier for u in preimages(v).members}
        if not frontier:
            return False
    return True


@dataclass(frozen=True)
class ExtensionFamily:
    """Finite truncation of the kink-preserving extension set of a base word."""

    base: str
    left_pad: int
    right_pad: int
    members: frozenset[str]


def enumerate_extensions(
    w: str, left_pad: int, right_pad: int, max_pad: int = MAX_PAD
) -> ExtensionFamily:
    check_word(w)
    if left_pad < 0 or right_pad < 0:
        raise ValueError(f"pads must be non-negative, got {(left_pad, right_pad)}")
    if left_pad > max_pad or right_pad > max_pad:
        raise PadTooLarge(f"pads {(left_pad, right_pad)} exceed bound {max_pad}")
    m = count_kinks(w)
    members = frozenset(
        e for _, e in padded(w, left_pad, right_pad) if count_kinks(e) == m
    )
    return ExtensionFamily(w, left_pad, right_pad, members)


def is_excluded_form(w: str) -> bool:
    """Shapes 0^a (10)^n 1^b with a, b in {0, 1}, on which lifting is only
    determined up to parity."""
    return bool(_EXCLUDED_FORM_RE.fullmatch(w))


@dataclass(frozen=True)
class StableExtensionReport:
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
    if len(w) < 3:
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
        fe = step_word(e)
        # step_word(e) must keep the kink count of step_word(w) and contain it
        # at the offset of some occurrence of w in e
        ok = count_kinks(fe) == m_fw and any(
            e[start : start + len(w)] == w and fe[start : start + len(fw)] == fw
            for start in range(len(e) - len(w) + 1)
        )
        if not ok:
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
        lb = len(u) - la - len(fw)
        if next(_lifts(w, m_w, u, la, lb), None) is None:
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


def _lifts(w: str, m_w: int, u: str, la: int, lb: int):
    """Yield every a' w b' with |a'| = la, |b'| = lb and m_w kinks that steps
    onto u."""
    for a in words(la):
        for b in words(lb):
            e = a + w + b
            if count_kinks(e) == m_w and step_word(e) == u:
                yield e


def unique_lift(w: str, a: str, b: str) -> str:
    """The unique a', b' with step_word(a' w b') = a·step_word(w)·b.

    NoLift and NonUnique are distinct failures: the former falsifies the
    existence half of the uniqueness guarantee, the latter its uniqueness half
    (or the implementation).
    """
    check_word(a), check_word(b)
    if len(w) < 2:
        raise WordTooShort("unique_lift needs |w| >= 2")
    if not wordclasses.is_stable(w):
        raise NotStable(f"{w!r} is unstable")
    if is_excluded_form(w):
        raise ExcludedForm(f"{w!r} is of the excluded alternating form")
    fw = "" if len(w) == 2 else step_word(w)
    u = a + fw + b
    if count_kinks(u) != count_kinks(fw):
        raise ValueError(f"{u!r} is not a kink-preserving extension of {fw!r}")
    if not a and not b:
        return w
    # uniqueness holds within the kink-preserving extension family of w;
    # lifts that introduce extra kinks are out of scope
    m_w = count_kinks(w)
    found = list(_lifts(w, m_w, u, len(a), len(b)))
    if not found:
        raise NoLift(f"no lift of {u!r} through {w!r}")
    if len(found) > 1:
        raise NonUnique(f"multiple lifts of {u!r} through {w!r}: {found}")
    return found[0]


def two_kink_preimage(w: str) -> str:
    """The unique two-kink preimage of a two-kink word 11 v 11 whose separator
    v holds an even number of 1s, built from the closed-form shape and verified
    by stepping before it is returned."""
    check_word(w)
    if len(w) < 5 or not (w.startswith("11") and w.endswith("11")):
        raise BadShape(f"{w!r} is not of the form 11 v 11")
    if count_kinks(w) != 2:
        raise BadShape(f"{w!r} does not have exactly two kinks")
    v = w[2:-2]
    if v.count("1") % 2 == 1:
        raise BadShape(f"separator of {w!r} has an odd number of 1s: no preimage")
    runs = v.split("1")
    if any(len(r) % 2 == 0 for r in runs):
        raise BadShape(f"{w!r} separator zero-runs must all have odd length")
    parts = ["100"]
    for j, r in enumerate(runs):
        n_j = (len(r) + 1) // 2
        parts.append("10" * n_j if j % 2 == 0 else "00" * n_j)
    parts.append("01")
    result = "".join(parts)
    if step_word(result) != w or count_kinks(result) != 2:
        raise BadShape(f"internal error: formula preimage of {w!r} failed to verify")
    return result

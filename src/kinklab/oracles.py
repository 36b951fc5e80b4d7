"""Bounded-scale mechanical verification of the concrete computations behind
the kink-dynamics theory.

Every oracle reduces to the stepping and preimage primitives only and never
consults another oracle's conclusion.  BudgetExhausted is distinct from Fail:
the underlying claims quantify over infinite families, so a bounded search can
refute but only ever confirm within its budget.
"""

from __future__ import annotations

import json
from enum import Enum
from itertools import chain
from typing import Any, Callable, NamedTuple

from . import dynamics, kinks, preimage, wordclasses
from .dynamics import words


class OracleStatus(Enum):
    PASS = "Pass"
    FAIL = "Fail"
    BUDGET_EXHAUSTED = "BudgetExhausted"


class OracleReport(NamedTuple):
    check: str
    status: OracleStatus
    budget: dict[str, Any]
    witness: str | None = None
    detail: str | None = None

    def to_json(self) -> str:
        payload: dict[str, Any] = {
            "check": self.check,
            "status": self.status.value,
            "budget": self.budget,
        }
        if self.witness is not None:
            payload["witness"] = self.witness
        if self.detail is not None:
            payload["detail"] = self.detail
        return json.dumps(payload, sort_keys=True)


def _budget(**bounds: int) -> dict[str, int]:
    """A report's budget; a negative bound would make a check vacuous."""
    for name, value in bounds.items():
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")
    return bounds


def _fail(check: str, budget: dict, witness: str, detail: str) -> OracleReport:
    return OracleReport(check, OracleStatus.FAIL, budget, witness, detail)


def _ok(check: str, budget: dict, detail: str | None = None) -> OracleReport:
    return OracleReport(check, OracleStatus.PASS, budget, None, detail)


# ---------------------------------------------------------------------------
# explicit iterates from the worked figures

FIGURE_ITERATES = (
    ("0010101100101", 3, "1001011"),
    ("1010010110100", 3, "1101001"),
    ("00101100001", 2, "1001011"),
    ("00001011000110101000100", 8, "1101001"),
)


def verify_figure_iterates() -> OracleReport:
    """Each figure's n-step image is exact and every word strictly before the
    final step is stable."""
    budget = _budget(figures=len(FIGURE_ITERATES))
    for start, steps, expected in FIGURE_ITERATES:
        w = start
        for t in range(steps):
            if not wordclasses.is_stable(w):
                return _fail(
                    "figure_iterates", budget, w,
                    f"intermediate f^{t}({start}) is unstable",
                )
            w = dynamics.step_word(w)
        if w != expected:
            return _fail(
                "figure_iterates", budget, w,
                f"f^{steps}({start}) = {w}, expected {expected}",
            )
    return _ok("figure_iterates", budget)


def _no_double_zero_words(max_len: int):
    """(n, w) for every word of length n <= max_len avoiding the factor 00
    (incl. empty), w packed into an int with its last cell in bit 0."""
    frontier = [(0, 0)]
    while frontier:
        n, w = frontier.pop()
        yield n, w
        if n < max_len:
            frontier.append((n + 1, w << 1 | 1))
            if n == 0 or w & 1:  # w does not end in 0
                frontier.append((n + 1, w << 1))


_SUFFIX_CELLS = 16  # longest middle laned whole: 2,584 words, 10 kB at 32-bit lanes


def verify_kink_elimination_parity(max_len: int = 16) -> OracleReport:
    """For u = 001 w 100 with 00-free w: one step collapses u to a single
    even-or-odd gap 1 0^{|w|+2} 1, a kink exactly when u held an odd number.

    Every w of one length n gets a lane of one int u, ``lane`` bits wide (the
    next power of two >= max_len), lane k holding ``1 << n+3 | w << 3 | 4``
    and k rising with w.  The 00 at both ends of each word keeps its step
    inside its lane, so one step_packed and one carry count check the whole
    length.  Middles longer than 16 cells are a 00-free prefix from
    ``_no_double_zero_words`` followed by the 16-cell lanes (only those
    starting with 1 after a prefix ending in 0).  The witness is the
    lexicographically smallest failing w, the first one a word-by-word
    depth-first walk meets; its detail is built for that one word, the image
    checked before the parity."""
    budget = _budget(max_len=max_len)
    if max_len < 6:
        raise ValueError(f"max_len must be at least 6 to hold 001100, got {max_len}")
    lane = 1 << (max_len - 1).bit_length()
    folds = [lane >> i for i in range(1, lane.bit_length())]

    def smallest_failure(n: int, ws: int, count: int, rep: int) -> str | None:
        """The smallest failing w of the ascending lanes ws, each w of n cells
        (rep: a 1 at the bottom of each of the count lanes), or None."""
        u = rep * (1 << n + 3 | 4) | ws << 3
        diff = dynamics.step_packed(u) >> 2 & rep * ((1 << n + 4) - 1) ^ rep * (1 << n + 3 | 1)
        bad = diff + rep * ((1 << lane - 1) - 1) >> lane - 1  # carry: bit 0 set iff lane differs
        full = (1 << count * lane) - 1
        odd = kinks._odd_distance(u, full, full // 3) & u & ~(rep << 2)
        for s in folds:
            odd ^= odd >> s  # bit 0 of each lane: its kink count mod 2
        bad = (bad | odd ^ rep * (n % 2 == 0)) & rep
        if not bad:
            return None
        w = ws >> (bad & -bad).bit_length() - 1 & (1 << n) - 1
        return f"{w:0{n}b}" if n else ""

    # (ws, count, rep) lane sets in ascending order: t holds every 00-free word
    # of n cells, o those starting with 1 (and the empty word), t = 0·o then 1·t
    t = o = (0, 1, 1)
    failing = []
    for n in range(min(max_len - 6, _SUFFIX_CELLS) + 1):
        if n:
            ws, count, rep = t
            head = (ws + (rep << n - 1), count, rep)
            shift = o[1] * lane
            t, o = (o[0] | head[0] << shift, o[1] + count, o[2] | rep << shift), head
        failing.append(smallest_failure(n, *t))
    for m, p in _no_double_zero_words(max_len - 6 - _SUFFIX_CELLS):
        if m:
            ws, count, rep = t if p & 1 else o
            ws |= rep * (p << _SUFFIX_CELLS)
            failing.append(smallest_failure(m + _SUFFIX_CELLS, ws, count, rep))
    witnesses = [w for w in failing if w is not None]
    if not witnesses:
        return _ok("kink_elimination_parity", budget)
    w = min(witnesses)
    word, n = f"001{w}100", len(w)
    image = dynamics.step_packed(int(word, 2)) >> 2 & (1 << n + 4) - 1
    expected = 1 << n + 3 | 1
    if image != expected:
        detail = f"step({word}) = {image:0{n + 4}b}, expected {expected:0{n + 4}b}"
    else:
        detail = "kink parity of input does not match image gap parity"
    return _fail("kink_elimination_parity", budget, word, detail)


def verify_annihilation(max_support: int = 12, max_steps: int = 4096) -> OracleReport:
    """Every finite-support configuration reaches at most one kink, with the
    surviving parity equal to the initial parity and no kink ever created.
    ``finished`` maps each configuration on a completed walk (packed: a step
    keeps the right end at bit 0, so translates share a key) to 2 * (steps
    left) + (final count); a walk reaching one takes that tail if it fits."""
    budget = _budget(max_support=max_support, max_steps=max_steps)
    supports = chain((0,), range(1, 1 << max_support, 2))  # 1 and 1…1 by length, then value
    finished: dict[int, int] = {}
    for s in supports:
        path, x, m = [], s, kinks.count_kinks_packed(s)
        parity = m % 2
        while True:
            tail = m if m <= 1 else finished.get(x)
            if tail is not None and len(path) + (tail >> 1) <= max_steps:
                break
            if len(path) >= max_steps:
                return OracleReport(
                    "annihilation", OracleStatus.BUDGET_EXHAUSTED, budget,
                    f"{s:b}" if s else "", f"still {m} kinks after {max_steps} steps",
                )
            path.append(x)
            x = dynamics.step_packed(x)
            before, m = m, kinks.count_kinks_packed(x)
            if m > before:
                return _fail(
                    "annihilation", budget, f"{s:b}" if s else "",
                    f"kink count rose from {before} to {m} at step {len(path)}",
                )
        if tail & 1 != parity:
            return _fail(
                "annihilation", budget, f"{s:b}" if s else "",
                f"kink parity flipped after {len(path) + (tail >> 1)} steps",
            )
        finished[x] = tail
        for i, y in enumerate(reversed(path), 1):
            finished[y] = tail + 2 * i
    return _ok("annihilation", budget)


def verify_extension_counterexample() -> OracleReport:
    """101 extends step(0011) = 10 without new kinks, yet no kink-preserving
    extension of 0011 maps onto it: the published permuting claim fails on
    unstable words.  check_stable_extension lists such u = a·10·b, |a|, |b| <= 1;
    a cell left of 0011 adds the kink 1001 or changes nothing, so pads=1 is all."""
    budget = _budget(pads=1)
    if "101" not in preimage.check_stable_extension("0011", 1).counterexamples:
        return _fail(
            "extension_counterexample", budget, "101",
            "101 is not listed as a kink-preserving extension of 10 with no lift through 0011",
        )
    return _ok("extension_counterexample", budget)


def verify_preimage_reduction_cases(max_k: int = 8) -> OracleReport:
    """The constructive steps that funnel any left kink word down to 11.  Cases
    3 and 4, 11(01)^k 0 and 11(01)^k, both pad to 0011(01)^k 00 (the only
    padding of either to 2k + 6 cells whose f^(k+2) is 11): one check per k."""
    budget = _budget(max_k=max_k)
    for k in range(max_k + 1):
        w = "00" + "11" + "01" * k + "00"
        if dynamics.iterate_word(w, k + 2) != "11":
            return _fail(
                "preimage_reduction_cases", budget, w,
                f"f^{k + 2} of padded 11(01)^{k}0 is not 11",
            )
        # the image's first 2k + 4 cells read only 0011(01)^k00, never u, so
        # u = 0 stands for every u
        w5 = w + "0"
        if not dynamics.step_word(w5).startswith("1" + "0" * (2 * (k + 1)) + "1"):
            return _fail(
                "preimage_reduction_cases", budget, w5,
                f"step image does not begin with 1 0^{2 * (k + 1)} 1",
            )
    return _ok("preimage_reduction_cases", budget)


def _find_mobility_witness(steps: int, shift: int, max_pad: int):
    """Search two-kink a 1101001 b, by |a| + |b|, |a|, a, b, whose n-step image
    holds the marker shift cells over (|a| >= steps - shift keeps it inside)."""
    marker = "1101001"
    for total in range(2 * steps, 2 * max_pad + 1):
        for la in range(max(total - max_pad, steps - shift, 0), min(total, max_pad) + 1):
            pos = la + shift - steps
            for a in words(la):
                for b in words(total - la):
                    u = a + marker + b
                    if kinks.count_kinks(u) != 2:
                        continue
                    if dynamics.iterate_word(u, steps)[pos : pos + 7] == marker:
                        return u
    return None


def verify_mobility(max_pad: int = 8) -> OracleReport:
    """1101001 can be walked one cell left in 5 steps and one cell right in 3,
    matching the worked spacetime figures."""
    budget = _budget(max_pad=max_pad)
    found = []
    for side, steps, shift in (("left", 5, -1), ("right", 3, +1)):
        witness = _find_mobility_witness(steps, shift, max_pad)
        if witness is None:
            return OracleReport(
                "mobility", OracleStatus.BUDGET_EXHAUSTED, budget, None,
                f"no {side}-move witness within pad budget",
            )
        found.append(witness)
    return _ok("mobility", budget, "left via {}, right via {}".format(*found))


def flipflop_violation(u: str, partner: str, shift: int = 0) -> str | None:
    """A preimage v of u that has a preimage itself but does not carry partner
    at index shift, or None.  Index j of u is index j + 1 of v: partner one
    cell left of u is shift 0, one cell right is shift 2.  Contexts add
    nothing: a preimage of a u b holds one of u at |a| (locality) that has a
    preimage whenever the whole does (images are factor-closed) and misses
    partner where the whole does.  Only a negative shift would read the
    context, so it is refused."""
    if shift < 0:
        raise ValueError(f"shift must be non-negative, got {shift}")
    for v in preimage.preimages(u).members:
        if v[shift : shift + len(partner)] != partner and preimage.has_preimage(v):
            return v
    return None


def verify_flipflop(max_k: int = 2, pad: int = 2) -> OracleReport:
    """The alternating pair 1(100010)^k 1001 / 1001(010001)^k 1 force each
    other in consecutive twice-steppable preimages.  By the factor argument of
    flipflop_violation every pad gives the verdict of pad 0: pad is reported."""
    budget = _budget(max_k=max_k, pad=pad)
    for k in range(max_k + 1):
        u = "1" + "100010" * k + "1001"
        u_prime = "1001" + "010001" * k + "1"
        # u_prime one cell to the left of u, then u one cell to the right of u_prime
        for centre, partner, shift in ((u, u_prime, 0), (u_prime, u, 2)):
            witness = flipflop_violation(centre, partner, shift)
            if witness is not None:
                return _fail(
                    "flipflop", budget, witness,
                    f"preimage of context around {centre} misses {partner}",
                )
    return _ok("flipflop", budget)


def _two_kink_words_shaped(prefix: str, suffix: str, max_length: int) -> list[list[str]]:
    """Two-kink words with the given boundary shape by length up to max_length,
    each length in lexicographic order: entry L is the whole shaped set of length
    L.  One depth-first walk from the empty packed head serves every length (n
    cells: length n + |suffix|): a head shorter than the prefix takes its next
    cell, a longer one "1" pushed before "0"; a head's kinks are the word's, so
    a branch is cut once they pass two."""
    lp, p, ls, end = len(prefix), int(prefix or "0", 2), len(suffix), int(suffix or "0", 2)
    groups: list[list[str]] = [[] for _ in range(max_length + 1)]
    stack = [(0, 0)] if ls <= max_length else []
    while stack:
        n, h = stack.pop()
        w = h << ls | end
        if (n >= lp or n + ls >= lp and w >> n + ls - lp == p) and kinks.count_kinks_packed(w) == 2:
            groups[n + ls].append(f"{w:0{n + ls}b}")
        if n + ls < max_length:
            children = (h << 1 | 1, h << 1) if n >= lp else (p >> lp - n - 1,)
            stack += [(n + 1, v) for v in children if kinks.count_kinks_packed(v) <= 2]
    return groups


def _survivors(candidates: list[str], step_back: Callable[[str], str], rounds: int) -> set[str]:
    """The candidates whose first `rounds` backward steps stay in candidates:
    each is stepped once, and after k rounds live holds those whose k steps do."""
    live = {w: step_back(w) for w in candidates}
    for _ in range(rounds):
        live = {w: v for w, v in live.items() if v in live}
    return set(live)


def verify_two_kink_backward(max_m: int = 4, max_back_len: int = 17) -> OracleReport:
    """The two-branch double-step constructions for the difficult alternating
    subcase, plus the backward-forcing uniqueness of the flip-flop endpoints: at
    each length L, one expected word of each shape keeps L backward steps inside
    the length-L shaped set, a fixpoint since both backward maps keep length."""
    budget = _budget(max_m=max_m, max_back_len=max_back_len)
    for m in range(max_m + 1):
        if m % 2 == 0:
            u2 = "001011" + "000000010101" * (m // 2) + "00001"
        else:
            u2 = "1000000" + "101010000000" * ((m - 1) // 2) + "1010100001"
        target = "1001" + "010001" * m + "011"
        image = dynamics.iterate_word(u2, 2)
        if image != target:
            return _fail(
                "two_kink_backward", budget, u2,
                f"f^2 gave {image}, expected {target} (m={m})",
            )

    # Shape A steps back by reversing one step of 00·w, shape B by two steps of
    # 00·w·00; from length |1100| = 4 on, one survivor at lengths base + 6j.
    shapes = (
        ("A", "1001", lambda w: dynamics.step_word("00" + w)[::-1],
         5, lambda j: "1" + "100010" * j + "1001"),
        ("B", "0011", lambda w: dynamics.iterate_word("00" + w + "00", 2),
         7, lambda j: "11000" + "101000" * j + "11"),
    )
    for shape, suffix, step_back, base, survivor in shapes:
        candidates = _two_kink_words_shaped("1100", suffix, max_back_len)
        for length in range(4, max_back_len + 1):
            survivors = _survivors(candidates[length], step_back, length)
            j, r = divmod(length - base, 6)
            expected = {survivor(j)} if r == 0 else set()
            if survivors != expected:
                return _fail(
                    "two_kink_backward", budget,
                    ",".join(sorted(survivors)) or "(empty)",
                    f"shape-{shape} survivors at length {length} differ from {sorted(expected)}",
                )
    return _ok("two_kink_backward", budget)


def verify_separation() -> OracleReport:
    """The witnesses separating the three limit notions: a period-2 cycle
    containing 10011, its exclusion from the two-kink language, and the double
    kink destruction that starves 001101100 of asymptotic measure."""
    budget = _budget()
    if dynamics.step_cyclic_packed(dynamics.step_cyclic_packed(0b1001, 4), 4) != 0b1001:
        return _fail("separation", budget, "1001", "cyclic 1001 is not period-2")
    if wordclasses.in_P("10011"):
        return _fail("separation", budget, "10011", "10011 should not be in P")
    w = "001101100"
    if dynamics.step_word(w) != "1000001":
        return _fail("separation", budget, w, "step(001101100) != 1000001")
    if kinks.count_kinks(w) != 2 or kinks.count_kinks("1000001") != 0:
        return _fail("separation", budget, w, "kink destruction count is not 2 -> 0")
    if not wordclasses.in_P(w):
        return _fail("separation", budget, w, "001101100 should be in P")
    return _ok("separation", budget)


PROFILES: dict[str, dict[str, dict]] = {
    "quick": {
        "figure_iterates": {},
        "kink_elimination_parity": {"max_len": 12},
        "annihilation": {"max_support": 9, "max_steps": 2048},
        "extension_counterexample": {},
        "preimage_reduction_cases": {"max_k": 4},
        "mobility": {"max_pad": 8},
        "flipflop": {"max_k": 1, "pad": 1},
        "two_kink_backward": {"max_m": 2, "max_back_len": 13},
        "separation": {},
    },
    "full": {
        "figure_iterates": {},
        "kink_elimination_parity": {"max_len": 16},
        "annihilation": {"max_support": 12, "max_steps": 4096},
        "extension_counterexample": {},
        "preimage_reduction_cases": {"max_k": 8},
        "mobility": {"max_pad": 8},
        "flipflop": {"max_k": 2, "pad": 2},
        "two_kink_backward": {"max_m": 4, "max_back_len": 17},
        "separation": {},
    },
}

# every profile names the same checks; check name runs verify_<name>
_ORACLES = {name: globals()[f"verify_{name}"] for name in PROFILES["full"]}


def run_all(budget: str = "quick") -> list[OracleReport]:
    """Run every oracle with profile-scaled bounds, sorted by check name."""
    if budget not in PROFILES:
        raise ValueError(f"unknown profile {budget!r}; choose from {sorted(PROFILES)}")
    reports = [
        _ORACLES[name](**kwargs) for name, kwargs in PROFILES[budget].items()
    ]
    return sorted(reports, key=lambda r: r.check)

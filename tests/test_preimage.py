import os
import resource
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import kinklab
from kinklab import (
    check_stable_extension,
    count_kinks,
    enumerate_extensions,
    preimage,
    preimage_depth,
    preimages,
    step_word,
    step_word_scalar,
)
from kinklab.dynamics import words
from kinklab.errors import BadWord, PadTooLarge, WordTooShort
from kinklab.preimage import MAX_DEPTH, count_preimages, has_preimage, is_excluded_form
from kinklab.wordclasses import is_stable


def brute_force_preimages(w):
    n = len(w)
    return sorted(
        "".join(bits)
        for bits in product("01", repeat=n + 2)
        if step_word("".join(bits)) == w
    )


def test_preimages_examples():
    assert preimages("11").members == ("1001",)
    assert preimages("111").members == ()
    assert preimages("1101011").members == ()


def test_preimages_match_brute_force_small():
    for n in range(1, 8):
        for bits in product("01", repeat=n):
            w = "".join(bits)
            assert list(preimages(w).members) == brute_force_preimages(w), w


@given(st.text(alphabet="01", min_size=1, max_size=12))
def test_preimages_step_back(w):
    ps = preimages(w)
    for u in ps.members:
        assert len(u) == len(w) + 2
        assert step_word(u) == w
    assert has_preimage(w) == bool(ps.members)


def test_has_preimage_matches_brute_force_existence():
    # an independent reference: the image set of every word two cells longer
    for n in range(1, 11):
        images = {step_word_scalar("".join(u)) for u in product("01", repeat=n + 2)}
        for bits in product("01", repeat=n):
            w = "".join(bits)
            assert has_preimage(w) == (w in images), w


def test_count_preimages_matches_enumeration():
    for n in range(1, 13):
        for w in words(n):
            assert count_preimages(w) == len(preimages(w)), w


def test_preimage_set_record():
    ps = preimages("0000")
    assert len(ps) == count_preimages("0000") == 22
    assert "010101" in ps and "100000" not in ps and "0000" not in ps
    assert not preimages("111")  # no member
    target, members = ps  # a record iterates its two fields
    assert (target, members) == ps and members == ps.members
    # _replace and _make must not read len(), which counts members
    moved = ps._replace(target="x")
    assert type(moved) is preimage.PreimageSet
    assert (moved.target, moved.members) == ("x", ps.members)
    assert preimage.PreimageSet._make(("11", ("1001",))) == preimages("11")
    with pytest.raises(AttributeError):
        ps.members = ()


def test_count_preimages_of_zeros_without_enumerating():
    assert count_preimages("0" * 40) == 701_408_734


def test_preimage_depth():
    assert preimage_depth("11", 1)
    assert not preimage_depth("111", 1)
    assert preimage_depth("1001", 2)
    assert preimage_depth("11", 0)
    assert preimage_depth("", 0) is True  # the empty chain
    with pytest.raises(WordTooShort):
        preimage_depth("", 1)
    for d in (-1, MAX_DEPTH + 1):
        with pytest.raises(ValueError, match=f"between 0 and {MAX_DEPTH}"):
            preimage_depth("11", d)
    for d in (0, 2):
        with pytest.raises(BadWord):
            preimage_depth("12", d)


def test_preimage_depth_matches_brute_force():
    # images[m] is the f^d image set of length m: the f^(d-1) image set of
    # length m + 2 stepped once by the scalar reference.  Every |w| <= 8 at
    # d <= 3 takes about 37,000 scalar steps, 0.4 s.
    images = {m: set(words(m)) for m in range(1, 15)}
    for d in range(1, 4):
        images = {m: {step_word_scalar(u) for u in images[m + 2]} for m in range(1, 15 - 2 * d)}
        for w in (w for m in range(1, 9) for w in words(m)):
            assert preimage_depth(w, d) == (w in images[len(w)]), (w, d)


def test_preimage_depth_stops_at_the_first_dead_mask(monkeypatch):
    # 111 has no preimage, so the mask dies within its three layers and the
    # thousand zeros before it are never read
    yielded = []
    reach_masks = preimage._reach_masks

    def counting(w, d=1):
        for r in reach_masks(w, d):
            yielded.append(r)
            yield r

    monkeypatch.setattr(preimage, "_reach_masks", counting)
    assert not preimage_depth("0" * 1000 + "111", 1)
    assert len(yielded) <= 5


def test_has_preimage_is_not_booked_as_a_depth_probe(monkeypatch):
    # the tracer wraps preimage_depth by name: an existence probe through it
    # would be counted as a depth probe
    calls = []
    depth = preimage.preimage_depth
    monkeypatch.setattr(preimage, "preimage_depth", lambda *a: calls.append(a) or depth(*a))
    assert has_preimage("11") and not has_preimage("111")
    assert calls == []


def test_pinned_walk_matches_brute_force():
    # every pin of up to 3 cells at every offset, also one that runs past the
    # end of u: only the pinned cells inside u filter the preimages
    pins = [p for m in range(4) for p in words(m)]  # "" included
    for n in range(1, 6):
        for w in words(n):
            expected = brute_force_preimages(w)
            for at in range(n + 4):
                for pin in pins:
                    inside = [(at + j, c) for j, c in enumerate(pin) if at + j < n + 2]
                    assert preimage._walk(w, at, pin) == [
                        u for u in expected if all(u[k] == c for k, c in inside)
                    ], (w, at, pin)


def test_enumerate_extensions_examples():
    assert enumerate_extensions("11", 1, 0).members == {"11", "011"}
    assert enumerate_extensions("0", 0, 0).members == {"0"}
    fam = enumerate_extensions("1001", 1, 1)
    assert all(count_kinks(m) == 1 for m in fam.members)


def test_pad_bound():
    with pytest.raises(PadTooLarge):
        enumerate_extensions("11", 9, 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: enumerate_extensions("11", -1, 0),
        lambda: enumerate_extensions("11", 0, -1),
        # a negative pad gave an empty family: both halves held vacuously
        lambda: check_stable_extension("0110", -1),
    ],
    ids=["left", "right", "stable-extension"],
)
def test_negative_pad_rejected(call):
    with pytest.raises(ValueError, match="non-negative"):
        call()


def test_check_stable_extension_stable_word():
    r = check_stable_extension("001101100", 3)
    assert r.inclusion_holds and r.equality_holds
    assert not r.excluded_form
    assert r.counterexamples == ()


def test_check_stable_extension_unstable_counterexample():
    r = check_stable_extension("0011", 2)
    assert not r.inclusion_holds
    assert not r.equality_holds
    # pinned in enumeration order: a reordered search fails here
    assert r.counterexamples == (
        "00001100", "0001100", "001100", "10001100", "101", "1010",
        "0101", "01010", "00101", "10101", "001010", "101010",
    )


def test_check_stable_extension_one_pad_counterexamples():
    # the answer verify_extension_counterexample reads: 101 is listed
    assert check_stable_extension("0011", 1).counterexamples == ("101", "0101")


def test_check_stable_extension_excluded_form():
    r = check_stable_extension("010", 1)
    assert r.excluded_form
    assert r.inclusion_holds and r.equality_holds  # up to parity


def test_check_stable_extension_short_word():
    with pytest.raises(WordTooShort):
        check_stable_extension("01", 1)


def test_two_kink_preimage_examples():
    # a two-kink 11 v 11 with an even number of 1s in v has one two-kink
    # preimage; with an odd number it has no preimage at all
    for w, u in (("11011", "1001001"), ("1100011", "100101001")):
        assert [p for p in preimages(w).members if count_kinks(p) == 2] == [u]
    assert not preimages("1101011").members


def test_excluded_form_shapes():
    assert is_excluded_form("010")
    assert is_excluded_form("0101")
    assert is_excluded_form("1")
    assert is_excluded_form("")
    assert not is_excluded_form("0100")
    assert not is_excluded_form("001101100")


def test_unique_lift_exhaustive_small():
    # the unique-lift lemma: for a stable w outside the excluded forms and a
    # kink-preserving u = a + step_word(w), the walk with w pinned at |a| finds
    # exactly one lift with w's kink count, on every such w of length 3 to 8
    cases = [(w, a) for n in range(3, 9) for w in words(n)
             if is_stable(w) and not is_excluded_form(w) for a in ("", "0", "1")]
    for w, a in [*cases, ("001101100", "0")]:
        fw = step_word(w)
        u = a + fw
        if count_kinks(u) != count_kinks(fw):
            continue
        lifts = preimage._lifts(w, count_kinks(w), u, len(a))
        assert len(lifts) == 1 and step_word(lifts[0]) == u, (w, a, lifts)


def test_lifts_match_brute_force():
    # the pinned walk against a filter of every preimage: each u up to length
    # 7, each pin w up to length 3 at each offset where w fits in a preimage
    pins = [w for m in range(4) for w in words(m)]  # "" included
    for n in range(1, 8):
        for u in words(n):
            expected = brute_force_preimages(u)
            for w in pins:
                m = count_kinks(w)
                for at in range(n + 3 - len(w)):
                    assert preimage._lifts(w, m, u, at) == [
                        e for e in expected if e[at : at + len(w)] == w and count_kinks(e) == m
                    ], (u, w, at)


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_unique_lift_walks_only_the_pads():
    # The padded images of 0^38 have hundreds of millions of preimages, but
    # check_stable_extension lifts them with 0^40 pinned in place, which leaves
    # at most two cells free.  The child runs under a 1 GiB address-space
    # limit, which enumerating every preimage would break.
    src = str(Path(kinklab.__file__).resolve().parents[1])
    code = ("import kinklab; r = kinklab.check_stable_extension('0' * 40, 1); "
            "print((r.inclusion_holds, r.equality_holds, r.counterexamples))")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60, preexec_fn=_limit_address_space,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "(True, True, ())\n"

from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kinklab import (
    CyclicConfig,
    FiniteSupportConfig,
    R18,
    R90,
    iterate_word,
    preimages,
    rule18_local,
    step_cyclic,
    step_cyclic_packed,
    step_packed,
    step_support,
    step_word,
    step_word_scalar,
)
from kinklab.errors import (
    BadWord,
    KinklabError,
    WidthTooSmall,
    WordTooShort,
)
from kinklab.cli import main
from kinklab.dynamics import RULE90_TABLE
from kinklab.preimage import (
    check_stable_extension,
    count_preimages,
    has_preimage,
    is_excluded_form,
)

words = st.text(alphabet="01", min_size=3, max_size=64)


def test_rule18_table():
    expected = {(0, 0, 1): 1, (1, 0, 0): 1}
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                assert rule18_local(a, b, c) == expected.get((a, b, c), 0)


def test_rule90_table():
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                assert RULE90_TABLE[4 * a + 2 * b + c] == a ^ c


@pytest.mark.parametrize(
    "w,expected",
    [
        ("0011", "10"),
        ("1100", "01"),
        ("001101100", "1000001"),
        ("1001", "11"),
    ],
)
def test_step_word_examples(w, expected):
    assert step_word(w) == expected


@pytest.mark.parametrize(
    "w,n,expected",
    [
        ("0010101100101", 3, "1001011"),
        ("1010010110100", 3, "1101001"),
        ("00101100001", 2, "1001011"),
        ("00001011000110101000100", 8, "1101001"),
    ],
)
def test_iterate_word_figures(w, n, expected):
    assert iterate_word(w, n) == expected


def test_iterate_zero_steps_is_identity():
    assert iterate_word("10110", 0) == "10110"
    assert iterate_word("", 0) == ""


def test_short_words_raise():
    with pytest.raises(WordTooShort):
        step_word("11")
    with pytest.raises(WordTooShort):
        iterate_word("10101", 3)


def test_non_binary_raises():
    # int(w, 2) accepts all but the first; step_word must not parse with it
    for w in ["01201", "0b101", "1_01", " 101", "-1010", "１０１"]:
        with pytest.raises(BadWord):
            step_word(w)
        with pytest.raises(BadWord):
            iterate_word(w, 1)


def _outcome(f, *args):
    try:
        return f(*args)
    except KinklabError as exc:
        return type(exc)


def _iterate_scalar(w, n):
    for _ in range(n):
        w = step_word_scalar(w)
    return w


def _preimages_brute_force(w):
    if not w:
        raise WordTooShort("empty target")
    return tuple(
        u for u in ("".join(bits) for bits in product("01", repeat=len(w) + 2))
        if step_word_scalar(u) == w
    )


@settings(max_examples=300)
@given(
    st.one_of(
        st.text(max_size=10),
        st.text(alphabet="01", max_size=10),
        st.text(alphabet="01b_ -\n１０\u0661", max_size=10),
    )
)
@example("ab")  # too short for a stable-extension check, but not a word first
def test_public_word_functions_reject_or_agree(w):
    """Each public word function raises BadWord on non-binary text and agrees
    with its reference on binary text, raised errors included."""
    if not set(w) <= {"0", "1"}:
        for f, args in [
            (step_word, ()), (iterate_word, (0,)), (iterate_word, (1,)),
            (iterate_word, (3,)), (preimages, ()), (has_preimage, ()),
            (count_preimages, ()), (check_stable_extension, (1,)), (is_excluded_form, ()),
        ]:
            with pytest.raises(BadWord):
                f(w, *args)
        return
    assert _outcome(step_word, w) == _outcome(step_word_scalar, w)
    for n in range(4):
        assert _outcome(iterate_word, w, n) == _outcome(_iterate_scalar, w, n)
    expected = _outcome(_preimages_brute_force, w)
    if isinstance(expected, type):  # the error raised for the empty target
        assert (
            _outcome(preimages, w) == _outcome(has_preimage, w)
            == _outcome(count_preimages, w) == expected
        )
    else:
        assert preimages(w).members == expected
        assert has_preimage(w) is bool(expected)
        assert count_preimages(w) == len(expected)


def test_step_cyclic_period_two():
    x = CyclicConfig("1001")
    y = step_cyclic(x)
    assert y.bits == "0110"
    assert step_cyclic(y).bits == "1001"
    assert step_cyclic(CyclicConfig("0000")).bits == "0000"


def test_cyclic_width_floor():
    with pytest.raises(WidthTooSmall):
        CyclicConfig("10")


def test_step_support_examples():
    c = step_support(FiniteSupportConfig("1", 0))
    assert (c.support, c.offset) == ("101", -1)
    c = step_support(FiniteSupportConfig("11", 5))
    assert (c.support, c.offset) == ("1001", 4)
    empty = FiniteSupportConfig("")
    assert step_support(empty) == empty


@pytest.mark.parametrize(
    "step",
    [
        lambda rule: step_word("101", rule),
        lambda rule: step_word("1", rule),
        lambda rule: step_word_scalar("101", rule),
        lambda rule: step_word_scalar("", rule),
        lambda rule: iterate_word("10110", 0, rule),
        lambda rule: iterate_word("", 0, rule),
        lambda rule: iterate_word("10110", 1, rule),
        lambda rule: step_packed(0b101, rule),
        lambda rule: step_cyclic_packed(0b101, 3, rule),
        lambda rule: step_cyclic(CyclicConfig("101"), rule),
        lambda rule: step_support(FiniteSupportConfig(""), rule),
        lambda rule: step_support(FiniteSupportConfig("101", 4), rule),
    ],
    ids=[
        "step_word", "step_word-short", "step_word_scalar", "step_word_scalar-empty",
        "iterate_word-0", "iterate_word-0-empty", "iterate_word-1", "step_packed",
        "step_cyclic_packed", "step_cyclic", "step_support-empty", "step_support",
    ],
)
def test_unknown_rule_raises_value_error(step):
    # checked before the word, so no early return or word error comes first
    with pytest.raises(ValueError, match="unknown rule 'r30'"):
        step("r30")


def test_step_packed_rejects_negative():
    # a negative int has infinitely many 1s
    with pytest.raises(ValueError):
        step_packed(-1)


@pytest.mark.parametrize("x", [-1, -3, 0b100000, 1 << 70], ids=["-1", "-3", "2**5", "2**70"])
def test_step_cyclic_packed_rejects_x_outside_the_width(x):
    with pytest.raises(ValueError, match=r"\[0, 2\*\*5\)"):
        step_cyclic_packed(x, 5)


def test_support_canonical_trim():
    c = FiniteSupportConfig("00101000", 3)
    assert (c.support, c.offset) == ("101", 5)
    assert FiniteSupportConfig("000", 7).support == ""
    assert FiniteSupportConfig("000", 7).offset == 0
    assert FiniteSupportConfig() == FiniteSupportConfig("", 0)
    # _replace builds through the constructor, so it trims too
    assert c._replace(support="0110") == FiniteSupportConfig("11", 6)
    assert c._replace(offset=0) == FiniteSupportConfig("101", 0)


def test_configs_refuse_bad_input_and_assignment():
    with pytest.raises(BadWord):
        CyclicConfig("10a")
    with pytest.raises(BadWord):
        FiniteSupportConfig("102")
    with pytest.raises(WidthTooSmall):
        CyclicConfig("101")._replace(bits="10")
    c, s = CyclicConfig("1001"), FiniteSupportConfig("101", 4)
    for record, name in [(c, "bits"), (c, "width"), (c, "extra"),
                         (s, "support"), (s, "offset"), (s, "extra")]:
        with pytest.raises(AttributeError):
            setattr(record, name, "1")
    assert (c.bits, c.width, s.support, s.offset) == ("1001", 4, "101", 4)
    assert repr(s) == "FiniteSupportConfig(support='101', offset=4)"
    assert repr(c) == "CyclicConfig(bits='1001')"


@given(words, st.integers(min_value=-50, max_value=50))
def test_step_support_commutes_with_translation(s, k):
    a = step_support(FiniteSupportConfig(s, 0))
    b = step_support(FiniteSupportConfig(s, k))
    assert b.support == a.support
    if a.support:
        assert b.offset == a.offset + k


@given(words)
def test_reversal_symmetry(w):
    assert step_word(w[::-1]) == step_word(w)[::-1]


@given(st.integers(min_value=3, max_value=64), st.data())
def test_rule90_additivity(n, data):
    w = data.draw(st.text(alphabet="01", min_size=n, max_size=n))
    v = data.draw(st.text(alphabet="01", min_size=n, max_size=n))
    xor = "".join(str(int(a) ^ int(b)) for a, b in zip(w, v))
    sx = step_word(xor, R90)
    sw, sv = step_word(w, R90), step_word(v, R90)
    assert sx == "".join(str(int(a) ^ int(b)) for a, b in zip(sw, sv))


def simulate_stdout(capsys, *argv):
    assert main(["simulate", *argv]) == 0
    return capsys.readouterr().out


def test_render_ascii(capsys):
    # the diagram's rows, then the final configuration
    out = simulate_stdout(capsys, "--cyclic", "101", "--steps", "0", "--render", "ascii")
    assert out == "#.#\n101\n"
    out = simulate_stdout(capsys, "--cyclic", "1001", "--steps", "1", "--render", "ascii")
    assert out == "#..#\n.##.\n0110\n"


def test_render_pbm_centers_shrinking_rows(capsys):
    out = simulate_stdout(capsys, "--word", "111", "--steps", "1", "--render", "pbm")
    assert out == "P1\n3 2\n1 1 1\n0 0 0\n0\n"

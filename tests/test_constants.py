import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from pilab import constants
from pilab.constants import (
    DIGIT_CEILING,
    MethodDisagreementError,
    PrecisionCeilingError,
    const_digits,
    integer_part,
    x_sequence,
)

PI_FRAC_50 = "14159265358979323846264338327950288419716939937510"


def test_pi_first_twenty_digits():
    stream = const_digits("pi", 20)
    assert integer_part("pi") == 3
    assert stream.prefix_string(20) == "14159265358979323846"


def test_pi_fifty_digits_reference():
    stream = const_digits("pi", 50)
    assert stream.prefix_string(50) == PI_FRAC_50


def test_ln10_digits():
    stream = const_digits("ln10", 10)
    assert integer_part("ln10") == 2
    assert stream.prefix_string(10) == "3025850929"


def test_ln_pi_digits():
    stream = const_digits("ln_pi", 10)
    assert integer_part("ln_pi") == 1
    assert stream.prefix_string(10) == "1447298858"


@pytest.mark.parametrize("name", ["pi", "ln10", "ln_pi"])
@pytest.mark.parametrize("n_digits", [100, 1000])
def test_dual_methods_agree_on_release(name, n_digits):
    w = constants._working_digits(n_digits)
    v1, v2 = constants._ENGINES[name](w)
    shift = 10 ** (w - n_digits)
    released = const_digits(name, n_digits).prefix_string(n_digits)
    assert str(v1 // shift) == str(v2 // shift) == f"{integer_part(name)}{released}"


@pytest.mark.parametrize(
    "name,compute",
    [("pi", lambda: mp.pi), ("ln10", lambda: mp.log(10)), ("ln_pi", lambda: mp.log(mp.pi))],
)
def test_digits_against_external_oracle(name, compute):
    mp.dps = 220
    want = mp.nstr(+compute(), 205, strip_zeros=False).replace(".", "")[1:201]
    stream = const_digits(name, 200)
    assert stream.prefix_string(200) == want


def test_method_disagreement_names_first_index(monkeypatch):
    def broken(w):
        one = 10**w
        v = constants._pi_ramanujan(one, w)
        return v, v + 10**9  # force a visible mismatch beyond the agreement budget

    monkeypatch.setitem(constants._ENGINES, "pi", broken)
    monkeypatch.setattr(constants, "_memo", {})
    with pytest.raises(MethodDisagreementError) as err:
        const_digits("pi", 40)
    assert err.value.index > 0


def _first_diff_by_str(v1, v2, w):
    """_first_diff_index as it was, on str(): the reference."""
    s1 = str(v1).rjust(w + 1, "0")
    s2 = str(v2).rjust(w + 1, "0")
    for i, (c1, c2) in enumerate(zip(s1, s2)):
        if c1 != c2:
            return i
    return min(len(s1), len(s2))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(w=st.integers(0, 1500), seed=st.integers(0, 2**32),
       kind=st.sampled_from(["equal", "first digit", "longer", "near"]))
def test_first_diff_index_matches_the_str_loop(w, seed, kind):
    # values of up to w + 3 digits, so some are wider than w + 1 and their
    # texts differ in length; past 617 digits the text goes by halves
    rng = random.Random(seed)
    v1 = rng.randrange(10 ** rng.randrange(1, w + 4))
    if kind == "equal":
        v2 = v1
    elif kind == "first digit":
        text = str(v1)
        v2 = int(str((int(text[0]) + rng.randrange(1, 10)) % 10) + text[1:])
    elif kind == "longer":
        v2 = v1 * 10 + rng.randrange(10)
    else:
        v2 = max(0, v1 + rng.randrange(-100, 101))
    for a, b in ((v1, v2), (v2, v1)):
        assert constants._first_diff_index(a, b, w) == _first_diff_by_str(a, b, w)


@pytest.mark.parametrize("wrong", [lambda v, w: v + 10**w, lambda v, w: v - 10**w,
                                   lambda v, w: v // 10, lambda v, w: v * 10,
                                   lambda v, w: v // 10 ** max(1, (w - 19) // 2)],
                         ids=["int part 4", "int part 2", "int part 0", "int part 31", "half the digits"])
def test_engines_in_the_wrong_integer_disagree_at_index_0(monkeypatch, wrong):
    # both engines agree, on a value whose integer part is not pi's: its text
    # is checked, so nothing is released.  At n = 39 "half the digits" leaves
    # 20 digits that begin with 3, so only the padded text shows the 0 in
    # front of them
    def shifted(w):
        v = wrong(constants._pi_chudnovsky(10**w, w), w)
        return v, v

    monkeypatch.setitem(constants._ENGINES, "pi", shifted)
    monkeypatch.setattr(constants, "_memo", {})
    for n in (0, 39):
        with pytest.raises(MethodDisagreementError) as err:
            constants.certified_digits("pi", n)
        assert err.value.index == 0
    assert constants._memo == {}


@pytest.mark.parametrize("name", ["pi", "ln10", "ln_pi"])
def test_zero_digits_hold_no_digit(monkeypatch, name):
    # no digit is asked for, so none is released: the entry is (0, ""), and
    # a later request certifies digits as from an empty memo
    monkeypatch.setattr(constants, "_memo", {})
    assert constants.certified_digits(name, 0) == ""
    assert constants._memo[name] == (0, "")
    assert constants._certified_scaled(name, 0) == integer_part(name)
    assert constants.certified_digits(name, 40) == const_digits(name, 40).prefix_string(40)
    assert constants.certified_digits(name, 0) == constants._memo[name][1]


@pytest.mark.parametrize("name", ["pi", "ln10", "ln_pi"])
def test_memo_holds_each_constant_as_its_digit_text(monkeypatch, name):
    monkeypatch.setattr(constants, "_memo", {})
    text = constants.certified_digits(name, 300)
    assert constants._memo[name] == (300, text)
    assert type(text) is str and len(text) == 300 and text.isdigit()
    mp.dps = 320
    value = {"pi": mp.pi, "ln10": mp.log(10), "ln_pi": mp.log(mp.pi)}[name]
    assert int(str(integer_part(name)) + text) == int(mp.floor(value * mp.mpf(10) ** 300))
    assert [constants._certified_scaled(name, n) for n in (0, 1, 299, 300)] == [
        int(str(integer_part(name)) + text[:n]) for n in (0, 1, 299, 300)]


def test_invalid_requests():
    with pytest.raises(ValueError, match="unknown constant 'tau'"):
        const_digits("tau", 10)
    with pytest.raises(ValueError, match="digit count must be >= 1"):
        const_digits("pi", 0)
    with pytest.raises(PrecisionCeilingError):
        const_digits("pi", DIGIT_CEILING + 1)


def test_x_sequence_values():
    xs = x_sequence(2, precision=20)
    assert abs(xs[0] - Fraction(344731497884344585816, 10**20)) < Fraction(1, 10**19)
    assert abs(xs[1] - Fraction(574990007183749154215, 10**20)) < Fraction(1, 10**19)


def test_x_sequence_rejects_empty():
    with pytest.raises(ValueError):
        x_sequence(0)


def test_x_sequence_certified_error():
    mp.dps = 80
    xs = x_sequence(500, precision=40)
    truth = [mp.mpf(n) * mp.log(10) + mp.log(mp.pi) for n in (1, 250, 500)]
    for got, want in zip((xs[0], xs[249], xs[499]), truth):
        assert abs(mp.mpf(got.numerator) / got.denominator - want) < mp.mpf(10) ** -40


def test_exp_consistency_with_pi_powers():
    # e^(x_n) must match pi * 10^n to nearly the full certified precision
    mp.dps = 60
    precision = 40
    xs = x_sequence(10, precision=precision)
    pi_ref = mp.pi
    for n, x in enumerate(xs, start=1):
        lhs = mp.e ** (mp.mpf(x.numerator) / x.denominator)
        rhs = pi_ref * mp.mpf(10) ** n
        assert abs(lhs - rhs) / rhs < mp.mpf(10) ** -(precision - n - 2)


def test_boundary_retry_widens_the_guard_and_releases_exact_digits(monkeypatch):
    # the primary's guard digits put on a rounding boundary once: both engines
    # run again 32 digits wider, and the digits released are pi's
    monkeypatch.setattr(constants, "_memo", {})
    engine = constants._ENGINES["pi"]
    widths = []

    def on_boundary_first(w):
        v1, v2 = engine(w)
        widths.append(w)
        if len(widths) == 1:
            v1 = v2 = v1 - v1 % 10**constants._GUARD_DIGITS + constants._BOUNDARY_ULP
        return v1, v2

    monkeypatch.setitem(constants._ENGINES, "pi", on_boundary_first)
    n = 1000
    held, text = constants._certify("pi", n)
    assert widths == [n + constants._GUARD_DIGITS, n + constants._GUARD_DIGITS + 32]
    mp.dps = n + 20
    assert (held, int("3" + text)) == (n, int(mp.floor(mp.pi * mp.mpf(10) ** n)))

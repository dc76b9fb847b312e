from fractions import Fraction

import pytest
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
        v = constants._pi_machin(one)
        return v, v + 10**9  # force a visible mismatch beyond the agreement budget

    monkeypatch.setitem(constants._ENGINES, "pi", broken)
    monkeypatch.setattr(constants, "_memo", {})
    with pytest.raises(MethodDisagreementError) as err:
        const_digits("pi", 40)
    assert err.value.index > 0


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
    held, released, _ = constants._certify("pi", n)
    assert widths == [n + constants._GUARD_DIGITS, n + constants._GUARD_DIGITS + 32]
    mp.dps = n + 20
    assert (held, released) == (n, int(mp.floor(mp.pi * mp.mpf(10) ** n)))

"""Each constant engine on its own against mpmath and against pinned bits,
plus the digit-stream ceiling."""

import hashlib

import pytest
from mpmath import mp, mpf

from pilab import constants
from pilab.constants import MethodDisagreementError, const_digits
from pilab.radix import ProducerExhaustedError


def _floor_scaled(value, w):
    return int(mp.floor(value * mpf(10) ** w))


def _pi_hat(w):
    """The ln pi engines' argument: the certified truncation P / 10^(w+5)."""
    return constants._certified_scaled("pi", w + 5), 10 ** (w + 5)


# 3000 digits, and the working scale of pi 30000 / ln 10000 digit requests
PI_SCALES = [3000, constants._working_digits(30000)]
LOG_SCALES = [3000, constants._working_digits(10000)]


@pytest.mark.parametrize("w", PI_SCALES)
@pytest.mark.parametrize("engine", ["machin", "chudnovsky"])
def test_pi_engine_against_mpmath(engine, w):
    one = 10**w
    got = constants._pi_machin(one) if engine == "machin" else constants._pi_chudnovsky(one, w)
    mp.dps = w + 20
    assert abs(got - _floor_scaled(mp.pi, w)) <= constants._AGREE_ULP


@pytest.mark.parametrize("w", LOG_SCALES)
@pytest.mark.parametrize("engine", [constants._ln_rational_atanh, constants._ln_rational_newton])
@pytest.mark.parametrize("name", ["ln10", "ln_pi"])
def test_log_engine_against_mpmath(name, engine, w):
    num, den = (10, 1) if name == "ln10" else _pi_hat(w)
    mp.dps = w + 20
    want = _floor_scaled(mp.log(10) if name == "ln10" else mp.log(mp.pi), w)
    assert abs(engine(num, den, w) - want) <= constants._AGREE_ULP


EDGE_ARGUMENTS = {
    "below_one": (1, 3),
    "just_above_one": (10**50 + 1, 10**50),
    "power_of_two": (2**40, 1),
    "inverse_power_of_two": (1, 128),
    "tiny": (7, 10**400),
    "pi_like": (31415926535897932384626433832795028841971, 10**40),
}


@pytest.mark.parametrize("w", [40, 600])
@pytest.mark.parametrize("engine", [constants._ln_rational_atanh, constants._ln_rational_newton])
@pytest.mark.parametrize("arg", sorted(EDGE_ARGUMENTS))
def test_log_engines_on_edge_arguments(arg, engine, w):
    num, den = EDGE_ARGUMENTS[arg]
    mp.dps = w + 450
    want = _floor_scaled(mp.log(mpf(num) / den), w)
    assert abs(engine(num, den, w) - want) <= 2


# Each ln 2 form and the constants whose pair reads it in one engine only: the
# bit-burst primaries read 2 atanh(1/3), and neither check engine any ln 2.
LN2_READERS = {"_ln2_bin": ("ln10", "ln_pi")}


@pytest.mark.parametrize("ln2", sorted(LN2_READERS))
def test_perturbed_ln2_in_one_method_is_caught(monkeypatch, ln2):
    exact = getattr(constants, ln2)
    monkeypatch.setattr(constants, ln2, lambda bits: exact(bits) + (1 << bits - 200))
    for name in LN2_READERS[ln2]:
        monkeypatch.setattr(constants, "_memo", {})
        with pytest.raises(MethodDisagreementError):
            const_digits(name, 100)


def test_perturbed_exp_in_ln_pi_is_caught(monkeypatch):
    exact = constants._exp_ratio

    def perturbed(y, p):
        u, v = exact(y, p)
        return u + (v >> 200), v  # exp(y) + 2^-200 at every width

    monkeypatch.setattr(constants, "_exp_ratio", perturbed)
    monkeypatch.setattr(constants, "_memo", {})
    with pytest.raises(MethodDisagreementError):
        const_digits("ln_pi", 100)


def test_newton_without_its_last_step_is_caught(monkeypatch):
    monkeypatch.setattr(constants, "_memo", {})
    w = constants._working_digits(100)
    bits, pi_hat = constants._bits_for(w), _pi_hat(w)
    exact = constants._exp_ratio
    # exp(y) read as pi_hat itself at the last width: that step adds exactly
    # 0, so the engine returns its half-width iterate
    monkeypatch.setattr(constants, "_exp_ratio", lambda y, p: pi_hat if p == bits else exact(y, p))
    with pytest.raises(MethodDisagreementError):
        const_digits("ln_pi", 100)


def test_ln_pi_primary_moved_by_100_ulp_is_caught(monkeypatch):
    exact = constants._ln_rational_atanh
    monkeypatch.setattr(constants, "_ln_rational_atanh", lambda num, den, w: exact(num, den, w) + 100)
    monkeypatch.setattr(constants, "_memo", {})
    with pytest.raises(MethodDisagreementError):
        const_digits("ln_pi", 100)


@pytest.mark.parametrize("q", [31, 49, 161])
def test_perturbed_acoth_series_in_ln10_is_caught(monkeypatch, q):
    exact = constants._arc_series

    def perturbed(p, q_, one, sign):
        return exact(p, q_, one, sign) + (one >> 200 if (p, q_) == (1, q) else 0)

    monkeypatch.setattr(constants, "_arc_series", perturbed)
    monkeypatch.setattr(constants, "_memo", {})
    with pytest.raises(MethodDisagreementError):
        const_digits("ln10", 100)


def test_ln10_halves_share_no_series_argument(monkeypatch):
    exact = constants._arc_series
    calls = []

    def recording(p, q, one, sign):
        calls.append((p, q, sign))
        return exact(p, q, one, sign)

    monkeypatch.setattr(constants, "_arc_series", recording)
    monkeypatch.setattr(constants, "_memo", {})  # a held ln 2 would hide its series
    constants._ln_rational_atanh(10, 1, 600)
    primary, calls[:] = set(calls), []
    constants._ln10_acoth(600)
    assert not primary & set(calls)
    assert primary == {(1, 3, 1), (1, 9, 1)}
    assert set(calls) == {(1, 31, 1), (1, 49, 1), (1, 161, 1)}


def test_ln10_certified_against_mpmath_at_30000_digits(monkeypatch):
    monkeypatch.setattr(constants, "_memo", {})
    mp.dps = 30020
    assert constants._certify("ln10", 30000)[1] == _floor_scaled(mp.log(10), 30000)


def test_ln_pi_certified_against_mpmath_at_30000_digits(monkeypatch):
    monkeypatch.setattr(constants, "_memo", {})
    mp.dps = 30020
    assert constants._certify("ln_pi", 30000)[1] == _floor_scaled(mp.log(mp.pi), 30000)


def test_stream_growth_clamps_to_ceiling(monkeypatch):
    monkeypatch.setattr(constants, "DIGIT_CEILING", 1000)
    stream = const_digits("pi", 600)
    stream.ensure(700)  # the memo's doubling growth would ask for 1200 digits
    mp.dps = 1020
    want = str(_floor_scaled(mp.pi, 1000))[1:]
    assert stream.prefix_string(1000) == want
    with pytest.raises(ProducerExhaustedError):
        stream.ensure(1001)


# SHA-256 of str() of each engine integer; the mpmath tests allow +-64 ulp,
# these pin the exact bits.  At these widths Machin and Chudnovsky land on the
# same integer, and so do the three ln 10 engines.
ENGINE_BITS = {
    "machin": ("0b54fe20ef4d7676270cf6ff74c69cd2ef87921bfddbdd149617d8016d066879",
               lambda: constants._pi_machin(10**3010)),
    "chudnovsky": ("0b54fe20ef4d7676270cf6ff74c69cd2ef87921bfddbdd149617d8016d066879",
                   lambda: constants._pi_chudnovsky(10**3010, 3010)),
    "atanh_1_3": ("e6f9f0f94d1f321cf178f837c5b7746a6dada8c29e3b6e1c68325bce2001f150",
                  lambda: constants._arc_series(1, 3, 1 << 10000, 1)),
    "ln10_atanh": ("a82884a6f80b4449734333f941b19aae70f862ae28b9475544a44fe1fbbcfeec",
                   lambda: constants._ln_rational_atanh(10, 1, 3010)),
    "ln10_newton": ("a82884a6f80b4449734333f941b19aae70f862ae28b9475544a44fe1fbbcfeec",
                    lambda: constants._ln_rational_newton(10, 1, 3010)),
    "ln10_acoth": ("a82884a6f80b4449734333f941b19aae70f862ae28b9475544a44fe1fbbcfeec",
                   lambda: constants._ln10_acoth(3010)),
}


@pytest.mark.parametrize("name", sorted(ENGINE_BITS))
def test_engine_bits_are_pinned(monkeypatch, name):
    monkeypatch.setattr(constants, "_memo", {})  # ln 2 held at more bits would shift down
    want, compute = ENGINE_BITS[name]
    assert hashlib.sha256(str(compute()).encode()).hexdigest() == want

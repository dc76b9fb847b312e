"""Each constant engine on its own against mpmath and against pinned bits,
plus the digit-stream ceiling and the cache header and prefix checks."""

import hashlib

import pytest
from mpmath import mp, mpf

from pilab import constants
from pilab.cli import main
from pilab.constants import ConstantRequest, MethodDisagreementError, const_digits
from pilab.radix import (
    DigitStream,
    ProducerExhaustedError,
    read_digit_file,
    read_digit_header,
    write_digit_file,
)


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
    assert abs(got - _floor_scaled(mp.pi, w)) <= constants._agree_ulp(w)


@pytest.mark.parametrize("w", LOG_SCALES)
@pytest.mark.parametrize("engine", [constants._ln_rational_atanh, constants._ln_rational_agm])
@pytest.mark.parametrize("name", ["ln10", "ln_pi"])
def test_log_engine_against_mpmath(name, engine, w):
    num, den = (10, 1) if name == "ln10" else _pi_hat(w)
    mp.dps = w + 20
    want = _floor_scaled(mp.log(10) if name == "ln10" else mp.log(mp.pi), w)
    assert abs(engine(num, den, w) - want) <= constants._agree_ulp(w)


EDGE_ARGUMENTS = {
    "below_one": (1, 3),
    "just_above_one": (10**50 + 1, 10**50),
    "power_of_two": (2**40, 1),
    "inverse_power_of_two": (1, 128),
    "tiny": (7, 10**400),
    "pi_like": (31415926535897932384626433832795028841971, 10**40),
}


@pytest.mark.parametrize("w", [40, 600])
@pytest.mark.parametrize("engine", [constants._ln_rational_atanh, constants._ln_rational_agm])
@pytest.mark.parametrize("arg", sorted(EDGE_ARGUMENTS))
def test_log_engines_on_edge_arguments(arg, engine, w):
    num, den = EDGE_ARGUMENTS[arg]
    mp.dps = w + 450
    want = _floor_scaled(mp.log(mpf(num) / den), w)
    assert abs(engine(num, den, w) - want) <= 2


@pytest.mark.parametrize("ln2", ["_ln2_bin", "_ln2_acoth_bin"])
def test_perturbed_ln2_in_one_method_is_caught(monkeypatch, ln2):
    exact = getattr(constants, ln2)
    monkeypatch.setattr(constants, ln2, lambda bits: exact(bits) + (1 << bits - 200))
    monkeypatch.setattr(constants, "_memo", {})
    with pytest.raises(MethodDisagreementError):
        const_digits(ConstantRequest("ln10", 100))


def test_stream_growth_clamps_to_ceiling(monkeypatch):
    monkeypatch.setattr(constants, "DIGIT_CEILING", 1000)
    stream = const_digits(ConstantRequest("pi", 600))
    stream.ensure(700)  # doubling growth would ask for 1200 digits
    mp.dps = 1020
    want = str(_floor_scaled(mp.pi, 1000))[1:]
    assert stream.prefix_string(1000) == want
    with pytest.raises(ProducerExhaustedError):
        stream.ensure(1001)


@pytest.mark.parametrize("label,base", [("ln10", 10), ("pi", 16)])
def test_cache_entry_with_wrong_header_is_a_miss(tmp_path, monkeypatch, label, base):
    monkeypatch.setenv("PI_LAB_CACHE", str(tmp_path))
    monkeypatch.setattr(constants, "_memo", {})
    cache_file = tmp_path / "pi.digits"
    write_digit_file(cache_file, DigitStream.from_digits([9] * 200, base=base, label=label), 200)
    assert const_digits(ConstantRequest("pi", 20)).prefix_string(20) == "14159265358979323846"
    stored = read_digit_file(cache_file)
    assert (stored.base, stored.label) == (10, "pi")
    assert stored.prefix_string(20) == "14159265358979323846"


def test_cache_with_a_wrong_prefix_is_a_miss(tmp_path, monkeypatch, capsys):
    # a well-labelled pi.digits of 200 nines must not be served as pi
    monkeypatch.setenv("PI_LAB_CACHE", str(tmp_path))
    monkeypatch.setattr(constants, "_memo", {})
    cache_file = tmp_path / "pi.digits"
    write_digit_file(cache_file, DigitStream.from_digits(b"\x09" * 200, label="pi"), 200)
    assert main(["constants", "--name", "pi", "--digits", "30"]) == 0
    assert capsys.readouterr().out == "3.141592653589793238462643383279\n"
    assert read_digit_file(cache_file).prefix_string(30) == "141592653589793238462643383279"


def _corrupt_digit(path, index):
    """Change the digit at 0-based ``index`` of a digit file in place."""
    lines = path.read_text(encoding="ascii").splitlines()
    row, col = 1 + index // 80, index % 80
    line = lines[row]
    lines[row] = line[:col] + str((int(line[col]) + 1) % 10) + line[col + 1 :]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


@pytest.mark.parametrize("header", ["three-field", "stale-engine", "sealed"])
def test_cache_with_a_wrong_digit_past_the_checked_prefix_is_a_miss(tmp_path, monkeypatch, capsys, header):
    # the first 1000 digits are right, so only the engine version or the digest can tell
    true = constants.certified_digits("pi", 1500)[:1500]
    monkeypatch.setenv("PI_LAB_CACHE", str(tmp_path))
    monkeypatch.setattr(constants, "_memo", {})
    cache_file = tmp_path / "pi.digits"
    engine = {"three-field": None, "stale-engine": "0", "sealed": constants.ENGINE_VERSION}[header]
    write_digit_file(cache_file, DigitStream.from_digits(true, label="pi"), 1500, engine=engine)
    _corrupt_digit(cache_file, 1200)
    assert main(["constants", "--name", "pi", "--digits", "1500"]) == 0
    assert capsys.readouterr().out == "3." + DigitStream.from_digits(true).prefix_string(1500) + "\n"
    stored = read_digit_header(cache_file)
    assert (stored["engine"], stored["label"]) == (constants.ENGINE_VERSION, "pi")
    assert read_digit_file(cache_file).prefix(1500) == true  # overwritten, and its digest checks


# SHA-256 of str() of each engine integer; the mpmath tests allow +-64 ulp,
# these pin the exact bits.  At these widths Machin and Chudnovsky land on the
# same integer, and so do the two ln 10 engines.
ENGINE_BITS = {
    "machin": ("0b54fe20ef4d7676270cf6ff74c69cd2ef87921bfddbdd149617d8016d066879",
               lambda: constants._pi_machin(10**3010)),
    "chudnovsky": ("0b54fe20ef4d7676270cf6ff74c69cd2ef87921bfddbdd149617d8016d066879",
                   lambda: constants._pi_chudnovsky(10**3010, 3010)),
    "atanh_1_3": ("e6f9f0f94d1f321cf178f837c5b7746a6dada8c29e3b6e1c68325bce2001f150",
                  lambda: constants._arc_series(1, 3, 1 << 10000, 1)),
    "ln10_atanh": ("a82884a6f80b4449734333f941b19aae70f862ae28b9475544a44fe1fbbcfeec",
                   lambda: constants._ln_rational_atanh(10, 1, 3010)),
    "ln10_agm": ("a82884a6f80b4449734333f941b19aae70f862ae28b9475544a44fe1fbbcfeec",
                 lambda: constants._ln_rational_agm(10, 1, 3010)),
}


@pytest.mark.parametrize("name", sorted(ENGINE_BITS))
def test_engine_bits_are_pinned(monkeypatch, name):
    monkeypatch.setattr(constants, "_memo", {})  # ln 2 and pi held at more bits would shift down
    want, compute = ENGINE_BITS[name]
    assert hashlib.sha256(str(compute()).encode()).hexdigest() == want

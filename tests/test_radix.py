import hashlib
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pilab.radix
from pilab.radix import (
    AmbiguousFloorError,
    DigitStream,
    ProducerExhaustedError,
    _STR_BITS,
    _parse_header,
    decimal_text,
    digits_from_text,
    fractional_part,
    open_text_atomic,
    read_digit_file,
    write_digit_file,
)
from test_spectra import _child_peak_rise, needs_vmhwm

# reference digits of pi - 3, checked against the constants engines elsewhere
PI_FRAC_50 = "14159265358979323846264338327950288419716939937510"


def pi_stream_50():
    return DigitStream.from_digits([int(c) for c in PI_FRAC_50], base=10, label="pi50")


def test_truncate_repeating_threes():
    s = DigitStream(10, lambda n: [3] * n)
    assert Fraction(int(s.prefix_string(3)), 10**3) == Fraction(333, 1000)


def test_truncate_binary_place_value():
    s = DigitStream.from_digits([1, 0, 1], base=2)
    assert Fraction(int(s.prefix_string(3), 2), 2**3) == Fraction(5, 8)


def test_truncate_pi_five_digits():
    assert Fraction(int(pi_stream_50().prefix_string(5)), 10**5) == Fraction(14159, 100000)


@settings(max_examples=60, deadline=None)
@given(
    num=st.integers(min_value=0, max_value=10**9),
    den=st.integers(min_value=1, max_value=10**9),
    n_digits=st.integers(min_value=1, max_value=40),
    base=st.sampled_from([2, 3, 10, 16]),
)
def test_monotone_refinement(num, den, n_digits, base):
    # the value of the first n digits, and of n + 1, bracket the same real
    value = Fraction(num % den, den)
    s = DigitStream.from_rational(value, base=base)
    t0 = Fraction(int(s.prefix_string(n_digits), base), base**n_digits)
    t1 = Fraction(int(s.prefix_string(n_digits + 1), base), base ** (n_digits + 1))
    assert t0 <= t1 < t0 + Fraction(1, base**n_digits)
    assert t0 <= value < t0 + Fraction(1, base**n_digits)


@pytest.mark.parametrize(
    "value,base",
    [(Fraction(1, 7), 10), (Fraction(355, 1130), 10), (Fraction(1, 3), 2), (Fraction(5, 8), 2)],
)
def test_digit_range_sweep(value, base):
    s = DigitStream.from_rational(value, base=base)
    assert all(0 <= d < base for d in s.prefix(10**4))


def test_terminating_rational_has_no_base_minus_one_tail():
    # canonical form: 1/8 is 125000..., never 124999...
    s = DigitStream.from_rational(Fraction(1, 8))
    assert s.prefix(10) == bytes([1, 2, 5, 0, 0, 0, 0, 0, 0, 0])
    t = DigitStream.from_rational(Fraction(1, 2), base=2)
    assert t.prefix(8) == bytes([1, 0, 0, 0, 0, 0, 0, 0])


def test_deterministic_reread():
    s = DigitStream.from_rational(Fraction(22, 700))
    first = s.prefix(200)
    assert s.prefix(200) == first


def test_finite_stream_exhaustion():
    s = DigitStream.from_digits([1, 2, 3])
    with pytest.raises(ProducerExhaustedError):
        s.prefix(4)


def test_fractional_part_exact_values():
    assert fractional_part(Fraction(11, 4), guard=20) == Fraction(3, 4)
    assert fractional_part(Fraction(5), guard=20) == 0
    assert fractional_part(Fraction(-11, 4), guard=20) == Fraction(1, 4)


def test_fractional_part_log_sum():
    # ln 10 + ln pi = 3.44731497884344585816...; fractional part far from 0/1
    x = Fraction(344731497884344585816, 10**20)
    frac = fractional_part(x, guard=15)
    assert abs(frac - Fraction(44731497884344585816, 10**20)) == 0


def test_fractional_part_flags_near_integer():
    with pytest.raises(AmbiguousFloorError):
        fractional_part(Fraction(3 * 10**12 + 1, 10**12), guard=12)
    with pytest.raises(AmbiguousFloorError):
        fractional_part(Fraction(4 * 10**12 - 1, 10**12), guard=12)


def test_digit_file_round_trip(tmp_path):
    s = DigitStream.from_rational(Fraction(1, 7), label="one-seventh")
    path = tmp_path / "sevenths.digits"
    write_digit_file(path, s, 200)
    back = read_digit_file(path)
    assert back.base == 10
    assert back.label == "one-seventh"
    assert back.prefix(200) == s.prefix(200)
    with pytest.raises(ProducerExhaustedError):  # the file holds 200 digits, no more
        back.prefix(201)


def test_digit_file_layout(tmp_path):
    s = DigitStream.from_rational(Fraction(1, 3), label="thirds")
    path = tmp_path / "thirds.digits"
    write_digit_file(path, s, 200)
    lines = path.read_text().splitlines()
    assert lines[0] == "base=10 count=200 label=thirds"
    assert all(len(line) == 80 for line in lines[1:3])
    assert len(lines[3]) == 40


def test_digit_file_header_fields_and_digest(tmp_path):
    # files from earlier versions carry engine= and sha256= fields before the label
    text = DigitStream.from_rational(Fraction(1, 7)).prefix_string(200)
    header = f"base=10 count=200 engine=7 sha256={hashlib.sha256(text.encode()).hexdigest()}" \
        " label=a label=with spaces"
    path = tmp_path / "sealed.digits"
    path.write_text("\n".join([header, text[:80], text[80:160], text[160:]]) + "\n")
    back = read_digit_file(path)
    assert back.prefix_string(200) == text and back.label == "a label=with spaces"
    path.write_text(f"{header}\n{'2' if text[0] != '2' else '3'}{text[1:]}\n")
    with pytest.raises(ValueError, match="sha256"):
        read_digit_file(path)


@pytest.mark.parametrize("header", ["base=10 count=5", "base=10 label=x", "count=5 base=10 label=x",
                                    "base=10 count=5 engine label=x"])
def test_digit_file_rejects_malformed_header(tmp_path, header):
    path = tmp_path / "bad.digits"
    path.write_text(f"{header}\n01234\n", encoding="ascii")
    with pytest.raises(ValueError, match="malformed header"):
        read_digit_file(path)


def test_digit_file_rejects_line_break_in_label(tmp_path):
    path = tmp_path / "broken.digits"
    for label in ("a\nb", "a\r", "\x0c"):
        with pytest.raises(ValueError, match="line break"):
            write_digit_file(path, DigitStream.from_rational(Fraction(1, 7), label=label), 40)
    assert not path.exists()


def test_open_text_atomic_follows_symlink(tmp_path):
    target = tmp_path / "target.txt"
    target.write_text("old")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    with open_text_atomic(link) as fh:
        fh.write("new")
    assert link.is_symlink() and target.read_text() == "new"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "target.txt"]


@needs_vmhwm
def test_digit_file_is_written_without_its_whole_text(tmp_path):
    n = 10**7
    path = str(tmp_path / "int.digits")
    rise = _child_peak_rise(
        "from pilab.constructors import ConcatSpec, concat_digits\n"
        "from pilab.radix import write_digit_file\n"
        f"stream = concat_digits(ConcatSpec('integers'), {n})\n"
        f"write_digit_file({path!r}, stream, 1000)",
        f"write_digit_file({path!r}, stream, {n})")
    # the text, its 80-column lines and their join took 3.2 bytes a digit
    assert rise / n < 1
    assert os.path.getsize(path) == len(f"base=10 count={n} label=concat-integers-b10\n") + n + -(-n // 80)


def oracle_read_digit_file(path) -> DigitStream:
    """The text-based parser read_digit_file replaced: read_text, splitlines, join."""
    lines = Path(path).read_text(encoding="ascii").splitlines()
    if not lines:
        raise ValueError(f"{path}: empty digit file")
    fields = _parse_header(path, lines[0])
    try:
        base = int(fields["base"])
        count = int(fields["count"])
    except ValueError as exc:
        raise ValueError(f"{path}: malformed header {lines[0]!r}") from exc
    body = "".join(lines[1:])
    if len(body) != count:
        raise ValueError(f"{path}: header promises {count} digits, found {len(body)}")
    if "sha256" in fields and hashlib.sha256(body.encode("ascii")).hexdigest() != fields["sha256"]:
        raise ValueError(f"{path}: the digits do not match the header's sha256")
    try:
        return DigitStream.from_digits(digits_from_text(body), base=base, label=fields["label"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


_DIGEST_12 = hashlib.sha256(b"012345678901").hexdigest()


_PARSER_CASES = {
    "crlf": b"base=10 count=12 label=crlf\r\n01234\r\n5678901\r\n",
    "cr": b"base=10 count=12 label=cr\r0123456789\r01",
    "form-feed": b"base=10 count=12 label=ff\n012345\x0c678901\n",
    "form-feed-header": b"base=10 count=12 label=ff\x0c012345678901",
    "vt-fs-gs-rs": b"base=10 count=12 label=x\x0b0123\x1c4567\x1d8901\x1e",
    "blank-tail": b"base=10 count=12 label=x\n012345678901\n\n\r\n\n",
    "blank-head": b"base=10 count=12 label=x\n\n\n012345678901\n",
    "short": b"base=10 count=12 label=x\n01234567890\n",
    "long": b"base=10 count=12 label=x\n0123456789012\n",
    "no-body": b"base=10 count=12 label=x",
    "empty-body": b"base=10 count=0 label=x",
    "tab": b"base=10 count=12 label=x\n012345\t678901\n",
    "non-ascii-body": b"base=10 count=12 label=x\n01234567890\xc3\xa9\n",
    "non-ascii-label": b"base=10 count=12 label=caf\xc3\xa9\n012345678901\n",
    "nel": b"base=10 count=12 label=x\n012345\xc2\x85678901\n",
    "sha256": b"base=10 count=12 sha256=" + _DIGEST_12.encode() + b" label=x\r\n012345678901\r\n",
    "bad-sha256": b"base=10 count=12 sha256=" + _DIGEST_12[::-1].encode() + b" label=x\n012345678901\n",
    "outside-base": b"base=2 count=12 label=x\n012345678901\n",
    "bad-base": b"base=x count=12 label=x\n012345678901\n",
    "no-header": b"\n012345678901\n",
    "empty": b"",
}


@pytest.mark.parametrize("data", _PARSER_CASES.values(), ids=_PARSER_CASES.keys())
def test_digit_file_parser_matches_text_parser(tmp_path, data):
    path = tmp_path / "d.digits"
    path.write_bytes(data)
    got = []
    for parse in (oracle_read_digit_file, read_digit_file):
        try:
            stream = parse(path)
        except ValueError as exc:  # the text parser's UnicodeDecodeError is one
            got.append(ValueError)
            if parse is read_digit_file:
                assert str(path) in str(exc)
        else:
            count = int(re.search(rb"count=(\d+)", data)[1])  # every case that parses declares it
            got.append((stream.base, stream.label, stream.prefix(count)))
    assert got[0] == got[1]


@pytest.mark.parametrize("base", [2, 10, 16, 36])
def test_digit_file_binary_base(tmp_path, base):
    s = DigitStream.from_rational(Fraction(5, 8), base=base, label="bits")
    path = tmp_path / "bits.digits"
    write_digit_file(path, s, 12)
    back = read_digit_file(path)
    assert back.base == base
    assert back.prefix(12) == s.prefix(12)


@pytest.mark.parametrize("header,body", [("base=36", "0123!"), ("base=10", "012a4")])
def test_digit_file_rejects_characters_outside_base(tmp_path, header, body):
    path = tmp_path / "bad.digits"
    path.write_text(f"{header} count=5 label=bad\n{body}\n", encoding="ascii")
    with pytest.raises(ValueError, match="bad.digits"):
        read_digit_file(path)


def test_truncate_long_stream_with_radix_alone():
    # cf parses digit text with int(), so radix must lift the int-string limit itself
    code = (
        "import sys\n"
        "from pilab.radix import DigitStream\n"
        "digs = [(7 * i + 3) % 10 for i in range(5000)]\n"
        "val = 0\n"
        "for d in digs:\n"
        "    val = val * 10 + d\n"
        "assert int(DigitStream.from_digits(digs).prefix_string(5000)) == val\n"
        "assert sorted(m for m in sys.modules if m.startswith('pilab')) == ['pilab', 'pilab.radix']\n"
    )
    src = str(Path(pilab.radix.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


_TEXT_BITS = 132_878  # 2^132878 has 40 000 digits


def _int_of(kind, wide, seed):
    """An int of the kind, its bit count or power uniform below _TEXT_BITS
    when ``wide``, else below three times the leaf size."""
    rng = random.Random(seed)
    k = rng.randrange(_TEXT_BITS if wide else 3 * _STR_BITS)
    if kind == "random":
        return rng.getrandbits(k)
    if kind == "power of ten":
        return 10 ** (k // 4)
    if kind == "power of ten less one":
        return 10 ** (k // 4) - 1
    return 2**k + (1 if kind == "power of two plus one" else -1)


@settings(derandomize=True, max_examples=250, deadline=None)
@given(
    kind=st.sampled_from(["random", "power of ten", "power of ten less one",
                          "power of two plus one", "power of two less one"]),
    wide=st.booleans(),
    seed=st.integers(0, 2**32),
    pad=st.integers(0, 50),
)
def test_decimal_text_matches_str(kind, wide, seed, pad):
    # widths on both sides of the leaf size, up to 40 000 digits
    n = _int_of(kind, wide, seed)
    text = str(n)
    assert decimal_text(n) == text
    assert decimal_text(n, len(text) + pad) == text.rjust(len(text) + pad, "0")


@pytest.mark.parametrize("n", [0, 1, 9, 10, 2**_STR_BITS - 1, 2**_STR_BITS, 2**_STR_BITS + 1,
                               10**40000 - 1, 10**40000],
                         ids=["0", "1", "9", "10", "2^S-1", "2^S", "2^S+1", "10^40000-1", "10^40000"])
def test_decimal_text_edges(n):
    assert decimal_text(n) == str(n)
    assert decimal_text(n, 40005) == str(n).rjust(40005, "0")


def test_decimal_text_rejects_a_negative_int():
    with pytest.raises(ValueError):
        decimal_text(-1)


def test_bad_digit_rejected():
    s = DigitStream(10, lambda n: [11] * n)
    with pytest.raises(ValueError):
        s.prefix(1)


@pytest.mark.parametrize("base", [2, 10, 16, 36])
def test_from_digits_checks_every_digit_below_base(base):
    assert DigitStream.from_digits([0, base - 1, 1], base=base).prefix(3) == bytes([0, base - 1, 1])
    for bad in (base, 255):
        with pytest.raises(ValueError, match=rf"^digit {bad} outside \[0, {base}\)$"):
            DigitStream.from_digits([base - 1] * 1000 + [bad, 0], base=base)
    # the message names the largest digit outside the base
    with pytest.raises(ValueError, match=rf"^digit 255 outside \[0, {base}\)$"):
        DigitStream.from_digits([base, 255, base + 1], base=base)

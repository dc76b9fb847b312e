"""Exact base-b digit expansions of reals in [0,1) and fractional-part arithmetic."""

from __future__ import annotations

import contextlib
import os
import re
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence, TextIO, Union

if hasattr(sys, "set_int_max_str_digits"):
    # big-integer digit strings are the whole point; lift the conversion limit
    sys.set_int_max_str_digits(0)

_ALPHABET = b"0123456789abcdefghijklmnopqrstuvwxyz"
MAX_BASE = len(_ALPHABET)  # every stream can be written, printed and parsed
# The one digit <-> text mapping.  A character outside the alphabet reads as
# 0xff (find's -1), which no base accepts.
_TO_TEXT = bytes.maketrans(bytes(range(MAX_BASE)), _ALPHABET)
_FROM_TEXT = bytes(_ALPHABET.find(c) & 0xFF for c in range(256))
_LINE_WIDTH = 80
_PIECE_DIGITS = 819 * _LINE_WIDTH  # a digit file is written 819 whole lines, about 64 KiB, at a time
_LINE_BREAKS = b"\n\r\x0b\x0c\x1c\x1d\x1e"  # the ASCII characters str.splitlines breaks on
_HEADER = re.compile(b"[^" + re.escape(_LINE_BREAKS) + b"]*")  # a digit file's first line
_CHUNK = 1 << 16  # rows per numpy pass, so int64 temporaries stay near half a megabyte
# The leaves of decimal_text's split: ints of at most this many bits become
# Decimals by Decimal(n).  CPython 3.11.7 on a 2-core host, best of 30, str()
# against the split with leaves of 2^11 bits: 0.014 and 0.016 ms at 1000
# digits, 0.057 and 0.056 at 2000, 0.23 and 0.21 at 4000, 1.43 and 0.81 at
# 10 000, 12.9 and 3.8 at 30 000, 143 and 20 at 100 000.  Leaves of 2^10,
# 2^12 and 2^13 bits were as fast or slower at every width from 2000 digits.
_STR_BITS = 1 << 11


def digits_from_text(text: str) -> bytes:
    """Digit values of the characters of ``text`` (0-9 then a-z), one per byte."""
    return text.encode("ascii").translate(_FROM_TEXT)


def text_from_digits(digits: bytes) -> str:
    """The characters (0-9 then a-z) of digit values below MAX_BASE."""
    return digits.translate(_TO_TEXT).decode("ascii")


def decimal_text(n: int, width: int = 0) -> str:
    """str(n) for an int n >= 0, zero-padded on the left to ``width``.

    CPython 3.11 turns an int into text in quadratic time; n goes by halves
    into a Decimal (see _dec.decimal_from_int), whose text takes linear time.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    from ._dec import decimal_from_int  # here, so radix alone loads no other pilab module

    return str(decimal_from_int(n, _STR_BITS)).rjust(width, "0")


def digit_matrix(values, base: int, width: int) -> np.ndarray:
    """The base-``base`` digits of int64 ``values`` as an (n, width) uint8
    matrix, most significant first, zero-padded on the left; 2^16 rows a pass.

    Needs 2 <= base <= 256, so a digit fits a byte; a value outside
    0 <= v < base**width (v < 2^63 in int64) raises ValueError.
    """
    import numpy as np  # here, as in numerals and row_texts: the certified-digit commands never load it

    values = np.asarray(values, dtype=np.int64)
    out = np.empty((len(values), width), np.uint8)
    for lo in range(0, len(values), _CHUNK):
        q = values[lo : lo + _CHUNK]
        for j in range(width - 1, -1, -1):
            q, out[lo : lo + _CHUNK, j] = np.divmod(q, base)
        if q.any():  # what is left of a negative value or one of more than width digits
            raise ValueError(f"values must lie in [0, {base}**{width})")
    return out


def numerals(values, base: int = 10, width: Optional[int] = None) -> np.ndarray:
    """The numerals (0-9 then a-z) of int64 ``values`` as an ASCII matrix of
    right-aligned rows, base <= 36.  With ``width``, rows are zero-padded to
    it; without, the widest numeral sets the width and the leading zeros are
    NUL pad, which row_texts drops.
    """
    import numpy as np

    text_codes = np.frombuffer(_ALPHABET, np.uint8)
    if width is not None:
        return text_codes[digit_matrix(values, base, width)]
    values = np.asarray(values, dtype=np.int64)
    width = len(np.base_repr(int(values.max(initial=0)), base))
    text = text_codes[digit_matrix(values, base, width)]
    text[:, :-1][values[:, None] < base ** np.arange(width - 1, 0, -1)] = 0  # digit j pads v < b^(w-1-j)
    return text


def row_texts(n: int, row_blocks: Callable[[slice], Sequence]) -> Iterator[bytes]:
    """The text of ``n`` rows, 2^16 rows a piece, each row its blocks side by
    side with the NUL pad dropped.  ``row_blocks(s)`` gives the blocks of the
    rows in slice ``s``: ASCII matrices with a row per row of ``s``, or bytes
    that every row holds.
    """
    import numpy as np

    for lo in range(0, n, _CHUNK):
        s = slice(lo, min(lo + _CHUNK, n))
        text = np.concatenate([np.broadcast_to(np.frombuffer(b, np.uint8), (s.stop - lo, len(b)))
                               if isinstance(b, bytes) else b for b in row_blocks(s)], axis=1)
        yield text[text != 0].tobytes()


class ProducerExhaustedError(RuntimeError):
    """A stream cannot supply the requested digit index."""

    def __init__(self, index: int, available: int):
        super().__init__(f"digit {index} requested but only {available} can be supplied")
        self.index = index
        self.available = available


class AmbiguousFloorError(ArithmeticError):
    """A value sits too close to an integer to certify its floor at the given guard."""


class DigitStream:
    """Base-b digits of a real in [0,1), materialized lazily in blocks.

    Digits are held as ``bytes``, one digit value per byte, for bases 2..36.

    ``produce(n)`` must deterministically return at least the first ``n``
    digits of the expansion, or fewer if the expansion has no more.  Producers
    are assumed cheap in bulk and expensive per digit, so consumers should
    declare how many digits they need up front.

    Digits are 1-indexed.
    """

    def __init__(self, base: int, produce: Callable[[int], Sequence[int]], label: str = ""):
        if not 2 <= base <= MAX_BASE:
            raise ValueError(f"base must lie in 2..{MAX_BASE}, got {base}")
        self.base = base
        self.label = label
        self._produce = produce
        self._digits = b""

    def ensure(self, n: int) -> None:
        """Materialize at least the first ``n`` digits."""
        if n <= len(self._digits):
            return
        got = bytes(self._produce(n))
        if len(got) < n:
            raise ProducerExhaustedError(n, len(got))
        bad = got[len(self._digits):].translate(None, bytes(range(self.base)))
        if bad:
            raise ValueError(f"digit {max(bad)} outside [0, {self.base})")
        self._digits = got

    def prefix(self, n: int) -> bytes:
        """The first ``n`` digits, one digit value per byte."""
        if n < 0:
            raise ValueError("prefix length must be >= 0")
        self.ensure(n)
        return self._digits[:n]

    def prefix_string(self, n: int) -> str:
        return text_from_digits(self.prefix(n))

    @classmethod
    def from_rational(cls, value: Fraction, base: int = 10, label: str = "") -> "DigitStream":
        """Exact expansion of a rational in [0,1).

        Long division yields the canonical form: terminating values end in
        zeros, never in a trail of (base-1)s.  No command calls it: it stays
        for the tests' rational streams, and perfbench/layertrace.py rebinds it.
        """
        value = Fraction(value)
        if not 0 <= value < 1:
            raise ValueError(f"value must lie in [0,1), got {value}")

        def produce(n: int, num=value.numerator, den=value.denominator, b=base) -> list[int]:
            out = []
            r = num
            for _ in range(n):
                r *= b
                d, r = divmod(r, den)
                out.append(d)
            return out

        return cls(base, produce, label=label)

    @classmethod
    def from_digits(cls, digits: Iterable[int], base: int = 10, label: str = "") -> "DigitStream":
        """A finite stream over fixed digits, checked when it is built."""
        digs = bytes(digits)
        stream = cls(base, lambda n: digs, label=label)
        stream.ensure(len(digs))
        return stream


def fractional_part(x: Union[Fraction, int], guard: int) -> Fraction:
    """Fractional part {x} of a value carried with absolute error < 10^-guard.

    Raises AmbiguousFloorError when x is within 10^-guard of an integer
    without being one exactly: the floor of the underlying real could not be
    certified.  Exact integers pass through to 0.
    """
    if guard < 1:
        raise ValueError("guard must be >= 1")
    x = Fraction(x)
    frac = x - (x.numerator // x.denominator)
    if frac != 0:
        eps = Fraction(1, 10**guard)
        if frac <= eps or 1 - frac <= eps:
            raise AmbiguousFloorError(
                f"value within 10^-{guard} of an integer; floor not certified"
            )
    return frac


def write_digit_file(path: Union[str, Path], stream: DigitStream, count: int) -> None:
    """Write ``count`` digits in the exchange format.

    One header line ``base=<b> count=<N> label=<string>`` with the stream's
    label, then the digits with no separators, broken every 80 columns.
    Bit-exact round trip.
    """
    label = stream.label
    if "".join(label.splitlines()) != label:
        raise ValueError(f"digit file label {label!r} contains a line break")
    digits = stream.prefix(count)
    with open_text_atomic(path, encoding="ascii") as fh:
        fh.write(f"base={stream.base} count={count} label={label}\n")
        for lo in range(0, count, _PIECE_DIGITS):
            text = text_from_digits(digits[lo : lo + _PIECE_DIGITS])
            fh.write("".join(text[i : i + _LINE_WIDTH] + "\n" for i in range(0, len(text), _LINE_WIDTH)))


@contextlib.contextmanager
def open_text_atomic(path: Union[str, Path], encoding: str = "utf-8") -> Iterator[TextIO]:
    """A text file that replaces ``path`` when the block ends: it is written
    as a temporary file in the same directory and moved over ``path`` with
    ``os.replace``, so readers see the old file or the new one, never a part.
    If the block raises, the temporary file is removed and ``path`` is left
    as it was.

    A symlink is followed, and a pipe or device (``/dev/stdout``) is written
    in place, since a rename would replace the link or the device node.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding=encoding) as fh:
            yield fh
        return
    path = Path(os.path.realpath(path))
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding=encoding) as fh:
            yield fh
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # mkstemp makes 0600; keep the mode a plain open gives
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _parse_header(path: Union[str, Path], header: str) -> dict[str, str]:
    """The fields of ``base=<b> count=<N> [key=value ...] label=<string>``;
    the label is the rest of the line."""
    head, found, label = header.partition(" label=")
    tokens = [token.partition("=") for token in head.split(" ")]
    if not found or len(tokens) < 2 or [t[0] for t in tokens[:2]] != ["base", "count"] \
            or not all(sep for _, sep, _ in tokens):
        raise ValueError(f"{path}: malformed header {header!r}")
    fields = {key: value for key, _, value in tokens}
    fields["label"] = label
    return fields


def read_digit_file(path: Union[str, Path]) -> DigitStream:
    """Read a digit file back into a finite stream.

    Fields between the count and the label are optional; a ``sha256`` field,
    as files from earlier versions carry, must match the digit text.  Lines
    break where ``str.splitlines`` breaks ASCII text, so ``\r\n`` endings and
    blank lines read as they always have.
    """
    data = Path(path).read_bytes()
    if not data:
        raise ValueError(f"{path}: empty digit file")
    if not data.isascii():
        raise ValueError(f"{path}: not an ASCII digit file")
    end = _HEADER.match(data).end()
    header = data[:end].decode("ascii")
    fields = _parse_header(path, header)
    label = fields["label"]
    try:
        base = int(fields["base"])
        count = int(fields["count"])
    except ValueError as exc:
        raise ValueError(f"{path}: malformed header {header!r}") from exc
    body = data[end + 1 :]
    del data  # at most two copies of the digit text at a time
    body = body.translate(None, _LINE_BREAKS)
    if len(body) != count:
        raise ValueError(f"{path}: header promises {count} digits, found {len(body)}")
    if "sha256" in fields:
        import hashlib  # only a file from an earlier version carries a digest

        if hashlib.sha256(body).hexdigest() != fields["sha256"]:
            raise ValueError(f"{path}: the digits do not match the header's sha256")
    try:
        return DigitStream.from_digits(body.translate(_FROM_TEXT), base=base, label=label)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc

"""Digit-stream generators for the concatenation and power-series number families.

Three concatenation families (consecutive integers, primes, squares) plus the
coprime power series sum(1 / (c^n * b^(c^n + s))).  All digits come from exact
integer arithmetic; the last term a prefix needs comes from closed-form sums
over the runs of equal-length terms.  A prefix of the power series is one
integer floor of its head terms: the omitted tail provably never carries into
the last digit kept.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from . import primes
from ._int import floor_divmod
from .radix import DigitStream, digit_matrix

_FAMILIES = ("integers", "primes", "squares")
_LEAF = 12  # digits of a base conversion's int64 leaves: 36^12 < 2^63
# Largest prefixes built.  A concatenation peaks at 3-4 bytes a digit (at
# 5*10^7 digits, 0.6-1.8 s and 150-190 MB on 2 cores); a Stoneham prefix is
# one floor and a split into digits by halves, both on _int.floor_divmod
# (10^6 digits, b 10, c 3: 3.1 s on a 2-core host, 11.8 s with the builtin).
CONCAT_DIGIT_CEILING = 50_000_000
STONEHAM_DIGIT_CEILING = 1_000_000


class _ConcatSpecFields(NamedTuple):
    family: str
    base: int


class ConcatSpec(_ConcatSpecFields):
    """A concatenation family and its output base."""

    __slots__ = ()

    def __new__(cls, family: str, base: int = 10):
        if family not in _FAMILIES:
            raise ValueError(f"unknown family {family!r}; expected one of {_FAMILIES}")
        if base < 2:
            raise ValueError("base must be >= 2")
        if family == "primes" and base != 10:
            raise ValueError("the primes family is generated in base 10 only")
        return super().__new__(cls, family, base)


class _StonehamSpecFields(NamedTuple):
    b: int
    c: int
    s: int


class StonehamSpec(_StonehamSpecFields):
    """Parameters of the series sum(1 / (c^n * b^(c^n + s))), digits in base b."""

    __slots__ = ()

    def __new__(cls, b: int, c: int, s: int = 0):
        if b < 2 or c < 2:
            raise ValueError("b and c must both be >= 2")
        if math.gcd(b, c) != 1:
            raise ValueError(f"gcd(b, c) must be 1, got gcd({b}, {c}) = {math.gcd(b, c)}")
        if s < 0:
            raise ValueError("s must be a nonnegative integer")
        return super().__new__(cls, b, c, s)


def _digits_in_base(m: int, base: int) -> bytes:
    """The base-``base`` digits of m >= 0, most significant first, without
    leading zeros (none for 0).

    m splits by base^(_LEAF 2^k) into a high and a low half of known width,
    and so on down to _LEAF-digit int64 leaves that one digit_matrix pass
    converts: the big divisions are few and balanced, where one divmod per
    digit of m costs time quadratic in its length.
    """
    powers = [base**_LEAF]  # powers[k] = base^(_LEAF 2^k)
    while powers[-1] <= m:
        powers.append(powers[-1] ** 2)
    leaves = [m]
    for power in reversed(powers[:-1]):  # each level halves every piece
        leaves = [part for x in leaves for part in floor_divmod(x, power)]
    return digit_matrix(leaves, base, _LEAF).tobytes().lstrip(b"\0")


# pi(10^d) for d = 0..12 (OEIS A006880): the number of primes with at most d digits
_PRIME_COUNTS = (0, 4, 25, 168, 1229, 9592, 78498, 664579, 5761455, 50847534,
                 455052511, 4118054813, 37607912018)


def _terms_with_digits(spec: ConcatSpec, d: int) -> int:
    """How many terms of the family have at most d digits in spec.base."""
    if spec.family == "integers":
        return spec.base**d - 1
    if spec.family == "squares":
        return math.isqrt(spec.base**d - 1)
    if d >= len(_PRIME_COUNTS):
        raise ValueError(f"prime positions are tabulated only through {len(_PRIME_COUNTS) - 1}-digit primes")
    return _PRIME_COUNTS[d]


def _runs(spec: ConcatSpec):
    """(d, terms before, digits before, terms through) of each run of d-digit terms.

    The d-digit terms form one contiguous run, so positions are sums over
    digit lengths rather than terms.
    """
    below = total = 0
    for d in itertools.count(1):
        upto = _terms_with_digits(spec, d)
        yield d, below, total, upto
        below, total = upto, total + d * (upto - below)


def _term_index(spec: ConcatSpec, position: int) -> int:
    """The term holding the digit at 1-indexed ``position``: the run that
    covers it, then ceil(offset / d) terms into that run."""
    for d, below, total, upto in _runs(spec):
        if position <= total + d * (upto - below):
            return below + -(-(position - total) // d)


def _term_digits(spec: ConcatSpec, count: int) -> bytes:
    """The digits of the first ``count`` terms, concatenated: each run of
    d-digit terms is one digit matrix of width d, in every base."""
    if spec.family == "primes":
        terms = primes.first_primes(count)
    else:
        terms = np.arange(1, count + 1, dtype=np.int64)
        if spec.family == "squares":
            terms *= terms
    parts = []
    for d, below, _, upto in _runs(spec):
        parts.append(digit_matrix(terms[below:upto], spec.base, d).tobytes())
        if upto >= count:
            return b"".join(parts)


def _check_digit_count(n_digits: int, ceiling: int, name: str) -> None:
    """Refuse a prefix length outside 1..ceiling before anything is built."""
    if n_digits < 1:
        raise ValueError("digit count must be >= 1")
    if n_digits > ceiling:
        raise ValueError(f"{n_digits} digits exceeds {name} = {ceiling}")


def concat_digits(spec: ConcatSpec, n_digits: int) -> DigitStream:
    """Stream of the first digits of the concatenation number."""
    _check_digit_count(n_digits, CONCAT_DIGIT_CEILING, "CONCAT_DIGIT_CEILING")

    def produce(n: int) -> bytes:
        return _term_digits(spec, _term_index(spec, n))[:n]

    label = f"concat-{spec.family}-b{spec.base}"
    stream = DigitStream(spec.base, produce, label=label)
    stream.ensure(n_digits)
    return stream


def stoneham_digits(spec: StonehamSpec, n_digits: int) -> DigitStream:
    """First base-b digits of the series, each prefix from one exact integer floor."""
    _check_digit_count(n_digits, STONEHAM_DIGIT_CEILING, "STONEHAM_DIGIT_CEILING")

    def produce(n: int) -> bytes:
        return _stoneham_prefix(spec, n)

    label = f"stoneham-b{spec.b}-c{spec.c}-s{spec.s}"
    stream = DigitStream(spec.b, produce, label=label)
    stream.ensure(n_digits)
    return stream


def _stoneham_prefix(spec: StonehamSpec, n_digits: int) -> bytes:
    """The first N = n_digits base-b digits of alpha = sum_{n>=1} 1/(c^n b^(c^n+s)).

    With M the number of n >= 1 having c^n + s <= N, floor(alpha b^N) = A // c^M
    where A = sum_{n=1..M} b^(N-c^n-s) c^(M-n), so alpha b^N = A/c^M + T with T
    the omitted terms.  Each omitted term is at most 1/8 of the one before it
    (the ratio is 1/(c b^(c^n (c-1))) <= 1/(2 * 2^2)), and the first has
    b-exponent c^(M+1) + s - N >= 1, so T < (8/7) / (b c^(M+1)) < 1/c^M because
    b c >= 6 for coprime b, c >= 2.  The fractional part of A/c^M is at most
    1 - 1/c^M, so adding T never carries into the integer part.
    """
    b, c, s = spec.b, spec.c, spec.s
    m = 0
    while c ** (m + 1) + s <= n_digits:
        m += 1
    a = sum(b ** (n_digits - c**n - s) * c ** (m - n) for n in range(1, m + 1))
    return _digits_in_base(floor_divmod(a, c**m)[0], b).rjust(n_digits, b"\0")

import math
import random
from fractions import Fraction

import pytest

from pilab import constructors
from pilab.constructors import (
    ConcatSpec,
    StonehamSpec,
    concat_digits,
    stoneham_digits,
)
from pilab.primes import first_primes
from pilab.radix import digits_from_text, text_from_digits


def naive_concat(family, n_digits):
    out = []
    total = 0
    k = 1
    while total < n_digits:
        if family == "integers":
            term = str(k)
        elif family == "squares":
            term = str(k * k)
        else:
            term = str(first_primes(k)[-1])
        out.append(term)
        total += len(term)
        k += 1
    return "".join(out)[:n_digits]


def test_concat_integers_twenty():
    assert concat_digits(ConcatSpec("integers"), 20).prefix_string(20) == "12345678910111213141"


def test_concat_primes_thirty():
    assert (
        concat_digits(ConcatSpec("primes"), 30).prefix_string(30)
        == "235711131719232931374143475359"
    )


def test_concat_squares_thirty():
    assert (
        concat_digits(ConcatSpec("squares"), 30).prefix_string(30)
        == "149162536496481100121144169196"
    )


def test_concat_integers_matches_naive_oracle():
    want = naive_concat("integers", 2000)
    assert concat_digits(ConcatSpec("integers"), 2000).prefix_string(2000) == want


def test_concat_binary_base():
    # 1, 10, 11, 100, 101, ... concatenated in base 2
    want = "".join(format(k, "b") for k in range(1, 40))
    got = concat_digits(ConcatSpec("integers", base=2), 100).prefix_string(100)
    assert got == want[:100]


def test_primes_family_is_base_ten_only():
    with pytest.raises(ValueError):
        ConcatSpec("primes", base=2)


def stoneham_oracle(b, c, s, n_digits):
    total = Fraction(0)
    n = 1
    while c**n + s <= n_digits + 40:
        total += Fraction(1, c**n * b ** (c**n + s))
        n += 1
    scaled = total * b**n_digits
    v = scaled.numerator // scaled.denominator
    digs = []
    for _ in range(n_digits):
        v, d = divmod(v, b)
        digs.append(d)
    return text_from_digits(bytes(digs[::-1]))


def test_stoneham_base_two():
    spec = StonehamSpec(b=2, c=3, s=0)
    assert stoneham_digits(spec, 12).prefix_string(12) == "000010101011"
    assert stoneham_digits(spec, 12).prefix_string(12) == stoneham_oracle(2, 3, 0, 12)


def test_stoneham_base_ten():
    spec = StonehamSpec(b=10, c=3, s=0)
    assert stoneham_digits(spec, 10).prefix_string(10) == "0003333334"
    assert stoneham_digits(spec, 40).prefix_string(40) == stoneham_oracle(10, 3, 0, 40)


def test_stoneham_with_shift():
    spec = StonehamSpec(b=10, c=3, s=2)
    assert stoneham_digits(spec, 30).prefix_string(30) == stoneham_oracle(10, 3, 2, 30)


def test_stoneham_gcd_violation():
    with pytest.raises(ValueError):
        StonehamSpec(b=10, c=2, s=0)


def _stoneham_grid():
    for b in (2, 3, 10, 36):
        for c in range(2, 12):
            if math.gcd(b, c) != 1:
                continue
            for s in (0, 1, 5):
                n = 1
                while c**n + s - 1 <= 600:
                    for n_digits in (c**n + s - 1, c**n + s, c**n + s + 1):
                        yield b, c, s, n_digits
                    n += 1


def test_stoneham_prefix_matches_oracle_at_every_term_boundary():
    # the prefix is called directly: a stream would round small requests up to 64 digits
    for b, c, s, n_digits in _stoneham_grid():
        got = text_from_digits(constructors._stoneham_prefix(StonehamSpec(b, c, s), n_digits))
        assert got == stoneham_oracle(b, c, s, n_digits), (b, c, s, n_digits)


def divmod_digits(m, base):
    """The per-digit divmod conversion: the oracle for _digits_in_base."""
    out = bytearray()
    while m:
        m, d = divmod(m, base)
        out.append(d)
    return bytes(reversed(out))


@pytest.mark.parametrize("base", range(2, 37))
def test_digits_in_base_matches_divmod_oracle(base):
    rng = random.Random(base)
    leaf = constructors._LEAF
    values = [0, 1, base - 1, base]
    for e in (leaf - 1, leaf, leaf + 1, 2 * leaf, 4 * leaf + 3, 33 * leaf):
        values += [base**e - 1, base**e, base**e + 1, rng.randrange(base**e)]
    values += [rng.getrandbits(bits) for bits in (7, 64, 300, 3000, 20000)]
    for m in values:
        want = divmod_digits(m, base)
        assert constructors._digits_in_base(m, base) == want, (base, m)
        # the zero-padded width a Stoneham prefix asks for
        width = len(want) + rng.randrange(1, 2 * leaf)
        assert constructors._digits_in_base(m, base).rjust(width, b"\0") == want.rjust(width, b"\0")
    sparse = base ** (5 * leaf) + base ** (2 * leaf - 1)  # zero runs between the halves
    assert constructors._digits_in_base(sparse, base) == divmod_digits(sparse, base)


def test_prime_terms():
    assert first_primes(5).tolist() == [2, 3, 5, 7, 11]
    assert first_primes(25)[-1] == 97
    assert first_primes(1).tolist() == [2]
    with pytest.raises(ValueError):
        first_primes(0)


def test_prime_counts_match_sieve():
    from pilab import primes
    from pilab.constructors import _PRIME_COUNTS

    for d in range(8):
        assert _PRIME_COUNTS[d] == len(primes.primes_upto(10**d))


def test_prime_end_positions_match_cumulative_lengths():
    import numpy as np

    from pilab.constructors import _term_index

    ps = first_primes(700_000)
    cum = np.concatenate(([0], np.cumsum(np.char.str_len(ps.astype(str))))).tolist()
    spec = ConcatSpec("primes")
    # the first and the last digit of every 97th term, and of every term across
    # the run of 6-digit primes into 7 digits
    for n in sorted(set(range(1, 700_001, 97)) | set(range(663_500, 665_700))):
        assert _term_index(spec, cum[n]) == n, n
        assert _term_index(spec, cum[n - 1] + 1) == n, n


def test_prime_positions_past_the_table_raise():
    from pilab.constructors import _PRIME_COUNTS, _term_index

    spec = ConcatSpec("primes")
    last = sum(d * (_PRIME_COUNTS[d] - _PRIME_COUNTS[d - 1]) for d in range(1, len(_PRIME_COUNTS)))
    assert _term_index(spec, last) == _PRIME_COUNTS[-1]
    with pytest.raises(ValueError):
        _term_index(spec, last + 1)


def term_oracle(family, base, n_digits):
    """The concatenation's first n_digits, one term at a time through str or
    divmod_digits, and the digit count after each term."""
    terms = first_primes(n_digits).tolist() if family == "primes" else range(1, n_digits + 1)
    out, ends, total = [], [], 0
    for t in terms:
        t = t * t if family == "squares" else t
        digs = digits_from_text(str(t)) if base == 10 else divmod_digits(t, base)
        out.append(digs)
        total += len(digs)
        ends.append(total)
        if total >= n_digits:
            return b"".join(out)[:n_digits], ends


@pytest.mark.parametrize("family,base", [
    *((family, base) for family in ("integers", "squares") for base in (2, 3, 10, 16, 36)),
    ("primes", 10),  # the primes family is base 10 only
])
def test_concat_prefixes_match_term_oracle(family, base):
    n_max = 10**5
    want, ends = term_oracle(family, base, n_max)
    # the last digit of each run of equal-length terms (b^d - 1 for the
    # integers), the first digit of the next run, a digit inside its first term
    firsts = [end for i, end in enumerate(ends[:-1]) if ends[i + 1] - end > end - (ends[i - 1] if i else 0)]
    sizes = {n for end in firsts for n in (end, end + 1, end + 2) if n <= n_max} | {1, 77, n_max}
    for n in sorted(sizes):
        assert concat_digits(ConcatSpec(family, base), n).prefix(n) == want[:n], (family, base, n)

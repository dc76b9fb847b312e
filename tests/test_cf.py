import math
import random
from decimal import Decimal
from fractions import Fraction
from itertools import takewhile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from pilab import constants, primes
from pilab._dec import DecimalFraction
from pilab.cf import (
    AuditConfig,
    Convergent,
    InsufficientPrecisionError,
    _certified_quotients,
    _margins,
    _nth_root_floor,
    audit_lemma_caseI,
    audit_lemma_caseII,
    audit_lemma_prime_variant,
    audit_payload,
    cf_expand,
    convergents_from_quotients,
    frac_pi_shift,
    pi_convergents,
    residue_decompose,
)
from pilab.cli import _dump
from pilab.groups import WindowExhaustedError, nearest_prime_in_window


def brute_force_quotients(value: Fraction, count: int) -> list[int]:
    # plain Euclid on an exact rational truncation; the audit target must
    # reproduce this prefix (stable under doubling the truncation length)
    out = []
    num, den = value.numerator, value.denominator
    while den and len(out) < count:
        a, rem = divmod(num, den)
        out.append(a)
        num, den = den, rem
    return out


def test_pi_convergents_match_printed_table():
    convs = pi_convergents(4)
    assert [(c.p, c.q) for c in convs] == [
        (3, 1), (22, 7), (333, 106), (355, 113), (103993, 33102),
    ]
    assert [c.a for c in convs] == [3, 7, 15, 1, 292]


def test_pi_quotients_match_truncation_oracle():
    digits = constants.const_digits("pi", 50)
    truncation = Fraction(3) + Fraction(int(digits.prefix_string(50)), 10**50)
    oracle = brute_force_quotients(truncation, 10)
    got = [c.a for c in pi_convergents(9)]
    assert got == oracle[:10]


def test_recurrence_and_unimodularity():
    convs = pi_convergents(20)
    for k in range(2, 21):
        assert convs[k].p == convs[k].a * convs[k - 1].p + convs[k - 2].p
        assert convs[k].q == convs[k].a * convs[k - 1].q + convs[k - 2].q
    for k in range(1, 21):
        assert convs[k].p * convs[k - 1].q - convs[k - 1].p * convs[k].q == (-1) ** (k - 1)
        assert math.gcd(convs[k].p, convs[k].q) == 1
        assert convs[k].q > convs[k - 1].q or k == 1


def test_golden_ratio_quotients_all_ones():
    m = 80
    phi_scaled = (10**m + math.isqrt(5 * 10 ** (2 * m))) // 2
    digits = str(phi_scaled)[1:]
    convs = cf_expand(lambda n: digits[:n], 1, 6)
    assert [c.a for c in convs] == [1] * 7


def test_finite_stream_insufficient_precision():
    with pytest.raises(InsufficientPrecisionError) as err:
        cf_expand(lambda n: "1415"[:n], 3, 30)
    assert err.value.first_uncertified >= 0


def _width_certified(digits, integer_part, m):
    """The quotients shared by the continued fractions of both ends of the
    m-digit and of the 2m-digit truncation intervals, on reduced Fractions;
    each expansion's last quotient may still move and is dropped."""
    ends = []
    for width in (m, 2 * m):
        lo = integer_part + Fraction(int("".join(map(str, digits[:width]))), 10**width)
        ends += [brute_force_quotients(end, math.inf)[:-1] for end in (lo, lo + Fraction(1, 10**width))]
    return [column[0] for column in takewhile(lambda column: len(set(column)) == 1, zip(*ends))]


def _two_branch_cf_expand(digits, integer_part, depth):
    """cf_expand's loop with a separate pass for a source that runs short,
    certifying each width on reduced Fractions: the reference for the single
    clamped loop on integer endpoints."""
    m, best = 48, 0
    while True:
        text = digits(2 * m)
        if len(text) < 2 * m:
            if len(text) >= 2:
                cert = _width_certified(text, integer_part, len(text) // 2)
                if len(cert) >= depth + 1:
                    return convergents_from_quotients(cert[: depth + 1])
                best = max(best, len(cert))
            raise InsufficientPrecisionError(best)
        cert = _width_certified(text, integer_part, m)
        if len(cert) >= depth + 1:
            return convergents_from_quotients(cert[: depth + 1])
        best = max(best, len(cert))
        m *= 2


def _expand_outcome(expand, digits, depth):
    try:
        return expand(lambda n: digits[:n], 3, depth)
    except InsufficientPrecisionError as err:
        return err.first_uncertified


def test_finite_pi_streams_match_two_branch_loop():
    pi = constants.certified_digits("pi", 200)[:200]
    uncertified = {}
    for length in range(1, 201):
        for depth in (0, 1, 5, 20, 60, 500):
            got = _expand_outcome(cf_expand, pi[:length], depth)
            assert got == _expand_outcome(_two_branch_cf_expand, pi[:length], depth)
        uncertified[length] = got
    assert {n: uncertified[n] for n in (1, 2, 10, 50, 96, 150, 192, 200)} == {
        1: 0, 2: 1, 10: 2, 50: 23, 96: 43, 150: 75, 192: 90, 200: 97,
    }


def test_short_producer_is_insufficient_precision():
    # the source never gives more than 150 digits and declares no length:
    # its short pass is the last, at 75 digits
    pi = constants.certified_digits("pi", 150)[:150]
    with pytest.raises(InsufficientPrecisionError) as err:
        cf_expand(lambda n: pi[:n], 3, 500)
    assert err.value.first_uncertified == 75


def _shared_quotients_of_both_expansions(integer_part, text):
    """Both ends of the truncation interval expanded in full, each without
    its last quotient, and their agreed prefix."""
    den = 10 ** len(text)
    lo = integer_part * den + int("0" + "".join(map(str, text)))
    ends = [brute_force_quotients(Fraction(end, den), math.inf)[:-1] for end in (lo, lo + 1)]
    return [column[0] for column in takewhile(lambda column: column[0] == column[1], zip(*ends))]


_digit_lists = st.lists(st.integers(0, 9), max_size=4)
# a few digits, then a run of 0s or 9s, then a few more: both ends of such an
# interval have short expansions, and a quotient on either may leave remainder 0
_runs = st.tuples(_digit_lists, st.sampled_from([0, 9]), st.integers(0, 296), _digit_lists).map(
    lambda t: (t[0] + [t[1]] * t[2] + t[3])[:300])


@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.integers(0, 5), st.lists(st.integers(0, 9), max_size=300) | _runs)
def test_lockstep_quotients_match_both_full_expansions(integer_part, digits):
    text = "".join(map(str, digits))
    assert _certified_quotients(integer_part, text) == _shared_quotients_of_both_expansions(integer_part, text)


def test_residue_decompose_hand_values():
    c22 = Convergent(k=1, a=7, p=22, q=7)
    dec = residue_decompose(c22, 1)
    assert (dec.a_n, dec.r_n) == (31, 3)
    assert (dec.b_n, dec.s_n, dec.c_n) == (31, 4, 3)
    assert dec.reconstructs(22, 7)


def test_residue_decompose_355_113():
    conv = Convergent(k=3, a=1, p=355, q=113)
    dec = residue_decompose(conv, 2)
    assert dec.r_n == 35500 % 113 == 18
    assert dec.reconstructs(355, 113)


def test_residue_reconstruction_random_pairs():
    convs = pi_convergents(12)
    rng = random.Random(5588)
    for _ in range(1000):
        conv = convs[rng.randrange(1, 13)]
        n = rng.randrange(1, 40)
        dec = residue_decompose(conv, n)
        assert dec.reconstructs(conv.p, conv.q)
        assert 0 <= dec.r_n < conv.q
        assert 0 <= dec.s_n < conv.q
        assert 0 <= dec.c_n < conv.q


def test_residue_decompose_modulo_window_prime():
    # q_0 = 1 has no window prime (the search needs q >= 3), so k starts at 1
    for conv in pi_convergents(12)[1:]:
        prime, _ = nearest_prime_in_window(conv.q)
        for n in range(1, 31):
            dec = residue_decompose(conv, n, prime)
            assert dec.modulus == prime
            assert dec.reconstructs(conv.p, conv.q)
            assert 0 <= min(dec.r_n, dec.s_n, dec.c_n) and max(dec.r_n, dec.s_n, dec.c_n) < prime


def test_prime_audit_rows_carry_the_window_prime_residues():
    for conv in pi_convergents(6)[1:]:
        audit = audit_lemma_prime_variant(conv, AuditConfig(mu=2.5, n_max=12))
        for row in audit.rows:
            dec = residue_decompose(conv, row.n, audit.prime)
            assert (row.r, row.s, row.c) == (dec.r_n, dec.s_n, dec.c_n)


def test_frac_pi_shift_matches_oracle():
    mp.dps = 60
    for n in (1, 2, 7):
        got = frac_pi_shift(n, 30)
        want = mp.frac(mp.pi * mp.mpf(10) ** n)
        assert abs(mp.mpf(got.numerator) / got.denominator - want) < mp.mpf(10) ** -29



# endpoint numerators and denominators from one digit to far past the value's
# own width, so that either product may set the margins' width
_ENDPOINT_INTS = st.one_of(st.integers(1, 10**6), st.integers(1, 10**400), st.builds(lambda a: 10**a - 1, st.integers(1, 400)))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(num=st.one_of(st.integers(0, 10**40), st.integers(0, 10**500)), exp=st.integers(0, 500),
       ln=_ENDPOINT_INTS, ld=_ENDPOINT_INTS, un=_ENDPOINT_INTS, ud=_ENDPOINT_INTS,
       signs=st.tuples(st.sampled_from((1, -1)), st.sampled_from((1, -1))))
def test_margins_are_the_exact_differences(num, exp, ln, ld, un, ud, signs):
    # negative endpoints and endpoints past the value give negative margins
    value = DecimalFraction(Decimal(num), 1, exp)
    lower, upper = Fraction(signs[0] * ln, ld), Fraction(signs[1] * un, ud)
    below, above = _margins(value, lower, upper)
    assert type(below) is DecimalFraction and type(above) is DecimalFraction
    assert (below.den, below.exp, above.den, above.exp) == (lower.denominator, exp, upper.denominator, exp)
    assert below == Fraction(num, 10**exp) - lower
    assert above == upper - Fraction(num, 10**exp)
    assert below.text() == f"{Fraction(below).numerator}/{Fraction(below).denominator}"

def test_case_one_audit_333_106():
    convs = pi_convergents(4)
    audit = audit_lemma_caseI(convs[2])
    assert audit.k_even
    rows = {row.n: row for row in audit.rows}
    assert set(rows) == {1, 2}  # 10^n <= 106
    row = rows[1]
    assert row.r == 44
    assert row.lower == Fraction(44, 106) + Fraction(10, 2 * 106**2)
    assert row.upper == Fraction(45, 106)
    assert row.passed
    assert row.margin_lower > 0 and row.margin_upper > 0


def test_case_one_domain_split():
    convs = pi_convergents(4)
    audit = audit_lemma_caseI(convs[3])  # q = 113
    assert all(10**row.n <= 113 for row in audit.rows)


def test_case_two_audit_22_7():
    convs = pi_convergents(4)
    audit = audit_lemma_caseII(convs[1], AuditConfig(mu=2.0, n_max=3))
    row = audit.rows[0]
    assert row.n == 1
    assert (row.r, row.s, row.c) == (3, 4, 3)
    assert row.lower == Fraction(3, 7) + Fraction(1, 7)
    assert row.upper == Fraction(4, 7) + Fraction(3, 49)
    assert not row.passed  # {10 pi} = 0.4159... sits below the window
    assert row.margin_lower < 0


def test_case_two_lower_endpoint_monotone_in_mu():
    convs = pi_convergents(6)
    low2 = audit_lemma_caseII(convs[2], AuditConfig(mu=2.0, n_max=6)).rows[0].lower
    low3 = audit_lemma_caseII(convs[2], AuditConfig(mu=3.0, n_max=6)).rows[0].lower
    low25 = audit_lemma_caseII(convs[2], AuditConfig(mu=2.5, n_max=6)).rows[0].lower
    assert low3 < low25 < low2


def test_non_integral_mu_endpoint_value():
    convs = pi_convergents(4)
    audit = audit_lemma_caseII(convs[2], AuditConfig(mu=2.5, n_max=4))
    row = audit.rows[0]
    assert not row.lower_exact
    # 1/q^1.5 for q = 106
    want = Fraction(row.r, 106) + Fraction(1, int(106**1.5))
    assert abs(float(row.lower) - float(want)) < 1e-4
    assert float(row.lower - Fraction(row.r, 106)) == pytest.approx(106.0**-1.5, rel=1e-9)


def _nth_root_floor_from_power_of_two(x: int, n: int) -> int:
    """The earlier routine, Newton from 2^ceil(bits / n): the oracle."""
    if x in (0, 1) or n == 1:
        return x
    r = 1 << -(-x.bit_length() // n)
    while True:
        nxt = ((n - 1) * r + x // r ** (n - 1)) // n
        if nxt >= r:
            break
        r = nxt
    while r**n > x:
        r -= 1
    return r


@pytest.mark.parametrize("n", [2, 3, 7, 64, 1000, 3800, 4000])
def test_nth_root_floor_matches_the_power_of_two_start(n):
    rng = random.Random(n)
    for k in (2, 3, 10, 255, 10**6 + 3, rng.getrandbits(80) | 1, 10**21 + 7):
        if n * k.bit_length() > 100_000:
            continue
        for x in (k**n - 1, k**n, k**n + 1):
            assert _nth_root_floor(x, n) == _nth_root_floor_from_power_of_two(x, n)
    for x in (0, 1, 2, rng.getrandbits(300)):
        assert _nth_root_floor(x, n) == _nth_root_floor_from_power_of_two(x, n)


def test_nth_root_floor_falls_back_when_the_float_start_is_low(monkeypatch):
    monkeypatch.setattr(math, "log2", lambda x: 0.0)  # every estimate becomes 1
    for x, n in ((10**30, 3), (7**200 + 1, 200), (2**64 - 1, 2)):
        assert _nth_root_floor(x, n) == _nth_root_floor_from_power_of_two(x, n)


def test_case_precondition_rejected():
    for mu in (1.5, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="mu"):
            AuditConfig(mu=mu)
    with pytest.raises(ValueError):
        AuditConfig(n_max=0)


def test_prime_variant_106():
    convs = pi_convergents(4)
    audit = audit_lemma_prime_variant(convs[2], AuditConfig(n_max=2))
    assert audit.prime == 107  # nearest prime at or above 106
    assert audit.window[0] == 106
    assert len(audit.rows) == 2
    for row in audit.rows:
        assert row.case == "I"  # 10, 100 <= 106
        assert 0 <= row.r < 107 and 0 <= row.s < 107 and 0 <= row.c < 107
        assert row.scaled_lower == row.residual_lower * 107**2


def test_prime_variant_collapses_on_prime_q():
    # q_3 = 113 is prime, so the window returns 113 itself and the caseI-form
    # upper residual equals the base audit's upper margin
    convs = pi_convergents(4)
    prime_audit = audit_lemma_prime_variant(convs[3], AuditConfig(n_max=2))
    assert prime_audit.prime == 113
    base = audit_lemma_caseI(convs[3], AuditConfig(n_max=2))
    base_rows = {row.n: row for row in base.rows}
    for row in prime_audit.rows:
        if row.n in base_rows:
            assert row.upper_base == base_rows[row.n].upper
            # values are truncations at different precisions; compare coarsely
            assert abs(row.residual_upper - base_rows[row.n].margin_upper) < Fraction(1, 10**20)


def test_prime_variant_window_exhausted(monkeypatch):
    convs = pi_convergents(4)
    monkeypatch.setattr(primes, "next_prime", lambda n: 131)  # past the window [106, 129]
    with pytest.raises(WindowExhaustedError, match="no prime"):
        audit_lemma_prime_variant(convs[2], AuditConfig(n_max=2))


def test_audit_reports_are_deterministic():
    convs = pi_convergents(8)
    cfg = AuditConfig(n_max=8)
    for build in (
        lambda: audit_lemma_caseI(convs[4], cfg),
        lambda: audit_lemma_caseII(convs[4], cfg),
        lambda: audit_lemma_prime_variant(convs[4], cfg),
    ):
        first = _dump(audit_payload(build()))
        second = _dump(audit_payload(build()))
        assert first == second


def test_audit_json_schema():
    convs = pi_convergents(4)
    payload = audit_payload(audit_lemma_caseI(convs[2]))
    assert payload["lemma"] == "caseI"
    assert payload["k"] == 2
    assert payload["p"] == "333" and payload["q"] == "106"
    row = audit_payload(payload["rows"][0])  # the report's rows are written from these keys
    for fieldname in ("n", "r", "s", "c", "lower", "upper", "value", "pass",
                      "margin_lower", "margin_upper"):
        assert fieldname in row
    assert isinstance(row["lower"], Fraction) and isinstance(row["value"], Fraction)
    assert f'"lower": "{row["lower"].numerator}/{row["lower"].denominator}"' in _dump(payload)

"""Continued-fraction convergents, residue decompositions, and interval audits
of the fractional parts {pi * 10^n}.

Audits never hard-fail on inequality violations: each row records pass/fail
plus signed margins, and findings are data for the caller to interpret.  An
audit's rows are made when they are read (AuditRows), so a report can write
each row as it is made.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from decimal import Decimal
from fractions import Fraction
from itertools import takewhile
from typing import Callable, NamedTuple, Optional

from . import constants, groups
from ._dec import DecimalFraction, _digits, context_for

# The largest audit n_max.  Row n's first pass reads 2n + guard digits of pi
# (guard >= 22, `_guard_digits(1)`), so DIGIT_CEILING admits n <= 49 989.  The
# report binds first: row n prints a few values of about 2n digits each, so it
# grows as n_max^2.  Measured for k = 12: 3.4 n_max^2 bytes for caseII
# (7 629 238 at n_max = 1500) and 5.5 n_max^2 for the prime variant
# (12 402 218).  At 6 n_max^2 bytes against a 128 MiB report, n_max <= 4729.
# There a prime audit printed 115 MB in 1.1 s at a peak RSS of 43 MB, its rows
# split with a forked child, and in 1.6 s at 35 MB in one process, on a 2-core
# x86-64 host.
_REPORT_BYTES_MAX = 2**27
AUDIT_NMAX_MAX = min((constants.DIGIT_CEILING - 22) // 2, math.isqrt(_REPORT_BYTES_MAX // 6))

# The largest `cf --depth`.  The report prints p_k and q_k for every k <= d,
# about 0.515 k digits each (Levy's constant), so it grows as 0.515 d^2 bytes
# plus about 50 bytes of JSON per row.  Measured: 0.549 d^2 at d = 2000, 0.533
# at 4000 and 0.522 at 8000.  At 0.53 d^2 against the same 128 MiB budget,
# d <= 15 913, well inside the certifiable depth (48 415 at DIGIT_CEILING).
# There the report was 130 988 657 bytes (0.517 d^2), written in 16 s at a
# peak RSS of 92 MB on the same host.
CF_DEPTH_MAX = math.isqrt(_REPORT_BYTES_MAX * 100 // 53)


class InsufficientPrecisionError(ArithmeticError):
    """Not enough certified input digits to release a partial quotient."""

    def __init__(self, first_uncertified: int):
        super().__init__(f"first uncertified partial quotient has index {first_uncertified}")
        self.first_uncertified = first_uncertified


class Convergent(NamedTuple):
    """One continued-fraction step: quotient a_k and the reduced p_k/q_k."""

    k: int
    a: int
    p: int
    q: int


class ResidueDecomposition(NamedTuple):
    """Exact division data: 10^n p = a_n q + r_n and (p q + 1) 10^n = b_n q^2 + s_n q + c_n.

    The residues are fields; the full-width quotients a_n and b_n, which no
    audit row reads, are computed from p and q at each access.
    """

    n: int
    modulus: int
    r_n: int
    s_n: int
    c_n: int
    p: int
    q: int

    @property
    def a_n(self) -> int:
        return (10**self.n * self.p - self.r_n) // self.modulus

    @property
    def b_n(self) -> int:
        m = self.modulus
        return ((self.p * self.q + 1) * 10**self.n - self.s_n * m - self.c_n) // (m * m)

    def reconstructs(self, p: int, q: int) -> bool:
        first = 10**self.n * p == self.a_n * self.modulus + self.r_n
        second = (p * q + 1) * 10**self.n == (
            self.b_n * self.modulus**2 + self.s_n * self.modulus + self.c_n
        )
        return first and second


class _AuditConfigFields(NamedTuple):
    mu: float
    n_max: int


class AuditConfig(_AuditConfigFields):
    """Shared audit knobs: irrationality-measure parameter and row range."""

    __slots__ = ()

    def __new__(cls, mu: float = 2.0, n_max: int = 12):
        if not (math.isfinite(mu) and mu >= 2):
            raise ValueError(f"mu must be a finite number >= 2, got {mu}")
        if n_max < 1:
            raise ValueError("n_max must be >= 1")
        if n_max > AUDIT_NMAX_MAX:
            raise ValueError(f"n_max = {n_max} exceeds AUDIT_NMAX_MAX = {AUDIT_NMAX_MAX}")
        return super().__new__(cls, mu, n_max)


class AuditRow(NamedTuple):
    n: int
    r: int
    s: Optional[int]
    c: Optional[int]
    lower: Fraction
    upper: Fraction
    value: Fraction
    value_error_exp: int
    passed: bool
    margin_lower: Fraction
    margin_upper: Fraction
    lower_exact: bool = True


class LemmaAudit(NamedTuple):
    lemma: str
    k: int
    p: int
    q: int
    mu: float
    k_even: bool
    rows: AuditRows  # of AuditRow


class PrimeAuditRow(NamedTuple):
    n: int
    case: str
    r: int
    s: int
    c: int
    value: Fraction
    value_error_exp: int
    lower_base: Fraction
    upper_base: Fraction
    residual_lower: Fraction
    residual_upper: Fraction
    scaled_lower: Fraction
    scaled_upper: Fraction


class PrimeLemmaAudit(NamedTuple):
    lemma: str
    k: int
    p: int
    q_k: int
    prime: int
    window: tuple[int, int]
    mu: float
    rows: AuditRows  # of PrimeAuditRow


def convergents_from_quotients(quotients: Sequence[int]) -> list[Convergent]:
    """Fold partial quotients into convergents via the standard recurrence."""
    out = []
    p_prev, p_prev2 = 1, 0
    q_prev, q_prev2 = 0, 1
    for k, a in enumerate(quotients):
        if k > 0 and a < 1:
            raise ValueError(f"partial quotient a_{k} must be >= 1, got {a}")
        p = a * p_prev + p_prev2
        q = a * q_prev + q_prev2
        p_prev2, p_prev = p_prev, p
        q_prev2, q_prev = q_prev, q
        out.append(Convergent(k=k, a=a, p=p, q=q))
    return out


def _certified_quotients(integer_part: int, text: str) -> list[int]:
    # Quotients shared by the continued fractions of both ends lo/den and
    # (lo + 1)/den of the truncation interval are quotients of every number
    # in between (fundamental-interval nesting).  Euclid runs on both ends in
    # lockstep up to the first step whose quotients differ; a quotient that
    # leaves remainder 0 ends its expansion and may still move, so it is not
    # released.
    den = 10 ** len(text)
    lo = integer_part * den + int("0" + text)
    x, dx, y, dy = lo, den, lo + 1, den
    out = []
    while True:
        a, rx = divmod(x, dx)
        b, ry = divmod(y, dy)
        if a != b or not (rx and ry):
            return out
        out.append(a)
        x, dx, y, dy = dx, rx, dy, ry


def cf_expand(digits: Callable[[int], str], integer_part: int, depth: int) -> list[Convergent]:
    """Partial quotients a_0..a_depth and their convergents, for the real
    ``integer_part`` plus the decimal fraction whose first n digits
    ``digits(n)`` returns as text, or fewer if the expansion has no more.

    Pass j reads n = 96 * 2^j digits, and each quotient is certified twice:
    the intervals of the n/2-digit and of the n-digit truncation must both
    pin it.  The n/2-digit quotients are the previous pass's.  A pass that
    gets fewer than n digits is the last, and pairs the first half of what
    it got with all of it.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    n, best, half = 96, 0, None
    while n <= 1 << 23:
        text = digits(n)[:n]
        last = len(text) < n
        if half is None or last:
            half = _certified_quotients(integer_part, text[: len(text) // 2])
        full = _certified_quotients(integer_part, text)
        cert = [a for a, _ in takewhile(lambda ab: ab[0] == ab[1], zip(half, full))]
        if len(cert) >= depth + 1:
            return convergents_from_quotients(cert[: depth + 1])
        best = max(best, len(cert))
        if last:
            break
        half, n = full, 2 * n
    raise InsufficientPrecisionError(best)


def pi_convergents(depth: int) -> list[Convergent]:
    """Convergents of pi through index ``depth``, expanded from the constants
    memo's certified digits."""
    return cf_expand(lambda n: constants.certified_digits("pi", min(n, constants.DIGIT_CEILING)), 3, depth)


def frac_pi_shift(n: int, n_digits: int) -> DecimalFraction:
    """Truncation of {pi * 10^n} to ``n_digits`` digits: digits n+1 .. n+n_digits
    of pi, read from their text.

    The true fractional part lies in [result, result + 10^-n_digits).
    """
    if n < 0:
        raise ValueError("shift must be >= 0")
    return DecimalFraction(constants.certified_digits("pi", n + n_digits)[n : n + n_digits], 1, n_digits)


def residue_decompose(conv: Convergent, n: int, modulus: Optional[int] = None) -> ResidueDecomposition:
    """Exact integer divisions of 10^n p_k and (p_k q_k + 1) 10^n by powers of
    ``modulus``: q_k by default, the window prime in the prime-modulus audit."""
    if n < 1:
        raise ValueError("n must be >= 1")
    p, q = conv.p, conv.q
    m = q if modulus is None else modulus
    r_n, s_n, c_n = _residues(p, q, n, m)
    return ResidueDecomposition(n=n, modulus=m, r_n=r_n, s_n=s_n, c_n=c_n, p=p, q=q)


def _residues(p: int, q: int, n: int, m: int) -> tuple[int, int, int]:
    """(r_n, s_n, c_n): 10^n p mod m, and (p q + 1) 10^n mod m^2 as s_n m + c_n."""
    s_n, c_n = divmod(pow(10, n, m * m) * (p * q + 1) % (m * m), m)
    return pow(10, n, m) * p % m, s_n, c_n


def _nth_root_floor(x: int, n: int) -> int:
    if x < 0 or n < 1:
        raise ValueError("nth root needs x >= 0, n >= 1")
    if x in (0, 1) or n == 1:
        return x
    # Newton from above shrinks a far start by only about (n - 1) / n a step,
    # so start just above the float estimate of the root.  Its relative error
    # is a few ulp of log2(root) times ln 2; the margin covers that amply.
    log2_root = math.log2(x) / n
    e = max(int(log2_root) - 52, 0)  # the root's bits past a double's 53
    r = (int(2.0 ** (log2_root - e) * (1 + 2.0**-30 + log2_root * 2.0**-48)) + 1) << e
    if r**n <= x:  # not an upper bound after all: the safe power of two
        r = 1 << -(-x.bit_length() // n)
    while True:
        nxt = ((n - 1) * r + x // r ** (n - 1)) // n
        if nxt >= r:
            break
        r = nxt
    while r**n > x:
        r -= 1
    return r


def _guard_digits(q: int) -> int:
    """Fractional digits carried beyond a row's shift n for modulus q."""
    return 2 * len(str(q)) + 20


def _inv_power(base_int: int, mu: float, prec: int) -> tuple[Fraction, bool]:
    """1 / base_int^(mu - 1) as a Fraction; exact when the exponent is integral,
    otherwise a certified fixed-point value within 2 * 10^-prec.

    The exponent is the fraction a/b nearest mu - 1 with b <= 10^6.  When it
    is more than an ulp of mu from mu - 1, the audit would not be of the
    stated mu, and ValueError is raised.  The exponent builds base_int^a and,
    when b > 1, 10^(prec b); either past DIGIT_CEILING digits raises
    ValueError before any is built.
    """
    ex = Fraction(mu - 1.0).limit_denominator(10**6)
    if abs(ex + 1 - Fraction(mu)) > math.ulp(mu):
        raise ValueError(f"mu = {mu} is more than an ulp from 1 + {ex}, its nearest exponent with denominator <= 10^6")
    a, b = ex.numerator, ex.denominator
    digits = max(a * len(str(base_int)), prec * b)
    if digits > constants.DIGIT_CEILING:
        raise ValueError(
            f"mu = {mu} needs {digits}-digit integers, past DIGIT_CEILING = {constants.DIGIT_CEILING}"
        )
    if b == 1:
        return Fraction(1, base_int**a), True
    scaled = _nth_root_floor(10 ** (prec * b) // base_int**a, b)
    return Fraction(scaled, 10**prec), False


def _margins(value: DecimalFraction, lower: Fraction, upper: Fraction) -> tuple[DecimalFraction, DecimalFraction]:
    """value - lower and upper - value, for a value num / 10^exp (den 1, as
    frac_pi_shift makes it), over lower's and upper's denominators times
    10^exp, each numerator one exact multiply, scaleb and subtract in one
    context."""
    n, e = value.num, value.exp
    ln, ld, un, ud = lower.numerator, lower.denominator, upper.numerator, upper.denominator
    # each product has at most e + D digits, D bounding every endpoint int's digits
    ctx = context_for(max(_digits(n), e) + max(abs(ln), ld, abs(un), ud).bit_length() * 31 // 100 + 2)
    below = ctx.subtract(ctx.multiply(n, Decimal(ld)), ctx.scaleb(Decimal(ln), e))
    above = ctx.subtract(ctx.scaleb(Decimal(un), e), ctx.multiply(n, Decimal(ud)))
    return DecimalFraction(below, ld, e), DecimalFraction(above, ud, e)


def _row_value(
    lower: Fraction, upper: Fraction, n: int, q: int
) -> tuple[DecimalFraction, DecimalFraction, DecimalFraction, bool]:
    """Certified pass/fail of lower <= {pi 10^n} <= upper, widening precision
    until the truncated value clears both endpoints decisively.

    The true value lies in [value, value + ulp), ulp = 10^-prec, so the exact
    margins below = value - lower and above = upper - value, each N / (d
    10^prec) with d the endpoint's denominator, decide each endpoint by the
    sign of N, and value + ulp is decided against an endpoint by comparing N
    with d, the ulp in the margin's units.  Returns the value, both margins
    and the verdict.
    """
    prec = n + _guard_digits(q)
    for _ in range(4):
        value = frac_pi_shift(n, prec)
        below, above = _margins(value, lower, upper)
        lower_ok, lower_fail = below.num >= 0, below.num <= -below.den
        upper_ok, upper_fail = above.num >= above.den, above.num < 0
        if (lower_ok or lower_fail) and (upper_ok or upper_fail):
            return value, below, above, lower_ok and upper_ok
        prec *= 2
    raise InsufficientPrecisionError(n)


class AuditRows(Sequence):
    """An audit's rows over the shifts ``ns``, each made when it is read.

    Iterating makes the rows one at a time and holds none, so a report can
    write each row as it is made; reading a row twice makes it twice.  A
    slice holds the rows over part of ``ns``, so two processes can make two
    parts of one audit.  A row's first pass reads 2 n + ``guard`` digits of
    pi.
    """

    def __init__(self, ns: range, make: Callable[[int], object], guard: int):
        self.ns, self._make, self.guard = ns, make, guard

    def __len__(self) -> int:
        return len(self.ns)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return AuditRows(self.ns[index], self._make, self.guard)
        return self.row(self.ns[index])

    def row(self, n: int):
        """The row of shift n, made afresh."""
        return self._make(n)

    def warm(self) -> None:
        """Certify every digit of pi the rows' first passes read, so that
        making them runs the pi engines only for a row that widens."""
        if self.ns:
            constants.certified_digits("pi", min(2 * self.ns[-1] + self.guard, constants.DIGIT_CEILING))


def _lemma_audit(
    lemma: str, conv: Convergent, cfg: AuditConfig, ns: range, bounds, lower_exact: bool = True
) -> LemmaAudit:
    """The audit whose row n, for n in ``ns``, is certified between the
    endpoints ``bounds(n, r, s, c)`` built from the residues of n; s_n and
    c_n are recorded for case II, whose upper endpoint uses them."""
    p, q = conv.p, conv.q
    case_two = lemma == "caseII"

    def row(n: int) -> AuditRow:
        r, s, c = _residues(p, q, n, q)
        lower, upper = bounds(n, r, s, c)
        value, below, above, passed = _row_value(lower, upper, n, q)
        return AuditRow(
            n=n, r=r, s=s if case_two else None, c=c if case_two else None,
            lower=lower, upper=upper, value=value, value_error_exp=-value.exp, passed=passed,
            margin_lower=below, margin_upper=above, lower_exact=lower_exact,
        )

    return LemmaAudit(
        lemma=lemma, k=conv.k, p=p, q=q, mu=cfg.mu,
        k_even=conv.k % 2 == 0, rows=AuditRows(ns, row, _guard_digits(q)),
    )


def audit_lemma_caseI(conv: Convergent, cfg: AuditConfig = AuditConfig()) -> LemmaAudit:
    """Interval audit r/q + 10^n/(2q^2) <= {pi 10^n} <= (r+1)/q over 10^n <= q_k.

    The bounds are formulated for even k (where pi - p_k/q_k > 0); odd k is
    audited anyway with the parity recorded, since findings are data.
    """
    q = conv.q
    ns = range(1, min(len(str(q)), cfg.n_max + 1))  # 10^n <= q exactly when n < len(str(q))
    return _lemma_audit(
        "caseI", conv, cfg, ns,
        lambda n, r, s, c: (Fraction(2 * q * r + 10**n, 2 * q * q), Fraction(r + 1, q)),
    )


def audit_lemma_caseII(conv: Convergent, cfg: AuditConfig = AuditConfig()) -> LemmaAudit:
    """Interval audit r/q + q^-(mu-1) <= {pi 10^n} <= s/q + c/q^2 over 10^n > q_k."""
    q = conv.q
    term, exact = _inv_power(q, cfg.mu, _guard_digits(q))
    tn, td = term.numerator, term.denominator
    return _lemma_audit(
        "caseII", conv, cfg, range(len(str(q)), cfg.n_max + 1),
        lambda n, r, s, c: (Fraction(r * td + tn * q, q * td), Fraction(s * q + c, q * q)),
        lower_exact=exact,
    )


def audit_lemma_prime_variant(conv: Convergent, cfg: AuditConfig = AuditConfig()) -> PrimeLemmaAudit:
    """Prime-modulus forms of both interval audits with explicit residuals.

    The unspecified O(1/q^2) corrections are never assumed: each row reports
    the raw residual against the stated endpoint and the residual scaled by
    q^2 (the implied constant that would be needed).
    """
    q0 = conv.q
    prime, window = groups.nearest_prime_in_window(q0)
    guard = _guard_digits(prime)
    term, _ = _inv_power(2 * prime, cfg.mu, guard)
    tn, td = term.numerator, term.denominator
    q0_digits = len(str(q0))

    def row(n: int) -> PrimeAuditRow:
        r, s, c = _residues(conv.p, q0, n, prime)
        case_one = n < q0_digits  # 10^n <= q0
        if case_one:
            lower, upper = Fraction(r, 2 * prime), Fraction(r + 1, prime)
        else:
            lower, upper = Fraction(r * td + 2 * prime * tn, 2 * prime * td), Fraction(s, prime)
        value = frac_pi_shift(n, n + guard)
        res_lower, res_upper = _margins(value, lower, upper)
        return PrimeAuditRow(
            n=n, case="I" if case_one else "II", r=r, s=s, c=c, value=value,
            value_error_exp=-value.exp, lower_base=lower, upper_base=upper,
            residual_lower=res_lower, residual_upper=res_upper,
            scaled_lower=res_lower * (prime * prime),
            scaled_upper=res_upper * (prime * prime),
        )

    return PrimeLemmaAudit(
        lemma="prime", k=conv.k, p=conv.p, q_k=q0, prime=prime,
        window=window, mu=cfg.mu, rows=AuditRows(range(1, cfg.n_max + 1), row, guard),
    )


# report keys that differ from the field names
_REPORT_KEYS = {"passed": "pass", "lower_base": "lower", "upper_base": "upper", "prime": "q"}
# convergent and prime integers may pass 2^53, so reports carry them as strings; mu as its repr
_AS_TEXT = {"p": str, "q": str, "q_k": str, "prime": str, "mu": repr}


def audit_payload(audit) -> dict:
    """An audit's or a row's fields under their report keys; exact rationals
    stay ``Fraction``s, which the report writer renders as num/den strings.
    An audit's rows stay an ``AuditRows``, which the report writer writes row
    by row through one template per row class, with these keys; the template
    reduces row values, margins and residuals, held as ``DecimalFraction``s,
    in decimal."""
    payload = {}
    for name, value in zip(audit._fields, audit):
        if name in _AS_TEXT:
            value = _AS_TEXT[name](value)
        payload[_REPORT_KEYS.get(name, name)] = value
    return payload

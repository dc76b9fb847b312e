"""Dual-certified decimal digit engines for pi, ln 10, and ln pi.

Each constant is evaluated by two independent integer-only fixed-point
methods, every series summed by binary splitting: Ramanujan's rational 1/pi
series against Chudnovsky's for pi, ln 2 + ln 5 from four atanh series
against the acoth formula 46 acoth 31 + 34 acoth 49 + 20 acoth 161 for ln 10,
and 7 ln 7 - 18 ln 2 plus bit-burst ln(1 + a/2^s) series, whose denominators
are shifts, against Newton's iteration on a bit-burst exp, finished by one
cubic step of ln(1 + r), for ln pi.
Digits are released only where both computations agree and the guard digits
sit far from a rounding boundary, so every released digit is exact.

The two engines of a pair share no state, so where a fork pays, one half of
the pair runs in a forked child while this process runs the other (see
_split_jobs): Ramanujan's series for pi, the acoth formula for ln 10 and the
Newton engine for ln pi.  The values are bit for bit those of running them
one after the other.  Of the binary internals only the four atanh series that
give ln 2, ln 5 and ln 7 are held between calls (see _memo); the Newton
engine reads no pi and no logarithm.
"""

from __future__ import annotations

import functools
import math
import os
import signal
import threading
import warnings
from fractions import Fraction

from ._int import floor_divmod, isqrt
from .radix import DigitStream, ProducerExhaustedError, decimal_text, digits_from_text

DIGIT_CEILING = 100_000

_INT_PARTS = {"pi": 3, "ln10": 2, "ln_pi": 1}


# How far apart (in 10^-w units) the two engines of a constant may land.
#
# Each _arc_series sum is within 2 ulp: one floor division, operands cut at a
# cost under 2^-30 ulp, and a series tail below 1 ulp.  Ramanujan's series
# alternates, term k at most 2118 / 882^2k of 3528 / pi, so past w / 5.89 + 1
# terms its tail moves pi under 10^-5 ulp; with Q and T cut (2^-30 ulp) and
# one floor it is within 2 ulp, as is Chudnovsky (an isqrt floor scaled by
# pi/sqrt(10005), then a division floor, Q and T cut alike).  The logarithms
# work in binary with 64 guard bits.  The bit-burst primary's smooth part,
# sum c_q T_q over the four series of _smooth_bin, each within 2 binary ulp,
# errs by 2 sum |c_q| binary ulp, and each of its at most log2(bits) + 2
# stages by 2 more from s = 16 on (an _log1p_series sum) and by 4 below (twice
# an _arc_series sum).  ln 10 = ln 2 + ln 5 weights
# the series (239, 90, -63, 103) and runs no stage: 990 binary ulp, under
# 2^-53 decimal ulp behind the guard bits.  ln pi's 7 ln 7 - 18 ln 2 weights
# them (118, 46, -29, 51), 488 binary ulp, and its stages start at s = 32; a
# generic k ln 2 costs 298 |k|.  The acoth ln 10, three _arc_series sums
# weighted 46, 34 and 20, errs by 2 (46 + 34 + 20) = 200 binary ulp, under
# 2^-55 decimal ulp behind the guard bits; and the Newton log's last step,
# from its quarter-width iterate, by 16 binary ulp (see _ln_rational_newton).
# After the floor to decimal each is within 2 ulp.  Pi pairs and logarithm
# pairs therefore differ by at most 4 ulp.  None of these bounds grows with w.
#
# The four series T_q behind ln 2, ln 5 and ln 7 are computed once, at the
# most bits asked for, and served lower by a right shift (see _smooth_bin).
# The shift's floor adds at most one binary ulp to an error the shift has at
# least halved, so e / 2 + 1 <= e for every error e >= 2 above: each bound
# holds unchanged, and so do the budgets.
_AGREE_ULP = 64

# Distance (in 10^-w units) the primary must keep from a digit boundary.  If
# the cross-check meets its bound, the true value lies within _AGREE_ULP + 2 =
# 66 ulp of the primary even should the primary's own bound fail; ln(pi_hat)
# stands in for ln(pi) with under 0.01 ulp more.
_BOUNDARY_ULP = 2 * _AGREE_ULP

# Digits worked past the n released.  The n digits are released when the
# primary's last G digits, a remainder in [0, 10^G), keep _BOUNDARY_ULP from
# both of its ends; 128 ulp then never reaches a released digit, whatever n.
# Otherwise the guard widens by 32 and both engines run again.  With the
# remainder spread evenly, a widening happens with chance about
# 2 _BOUNDARY_ULP / 10^G = 256 / 10^G per certification: 2.6e-18 at G = 20.
# The chance depends on G alone, so a guard that grew with n would buy
# nothing for the engine work it adds.
_GUARD_DIGITS = 20

# The one memo, keyed by name.  A constant ("pi", "ln10", "ln_pi") maps to
# (N, the text of its N fractional digits) for the largest N certified so
# far; the four series of _smooth_bin ("smooth") map to (bits, (T_q * 2^bits
# for each q)) for the most bits computed so far.
_memo: dict[str, tuple] = {}


class MethodDisagreementError(ArithmeticError):
    """The two engines for a constant disagree on a released digit."""

    def __init__(self, name: str, index: int):
        super().__init__(f"{name}: methods first disagree at digit index {index} (0 = integer part)")
        self.name = name
        self.index = index


class PrecisionCeilingError(ValueError):
    """A request exceeded the configured digit ceiling."""


def _working_digits(n: int) -> int:
    return n + _GUARD_DIGITS


def _split(leaf, a: int, b: int, shift: int = 0,
           want_p: bool = False) -> tuple[int | None, int, int, int]:
    """(P, Q, B, T) over the terms a <= k < b of a series; leaf(k) gives term
    k's (p, q, b, t) with q held as q / 2^shift.

    The partial sum S(a, b) = T / (B Q) combines as S(a, b) = S(a, m) +
    P(a, m) / Q(a, m) * S(m, b).  Binary splitting (Haible & Papanikolaou, ANTS
    1998): products of small factors meet in balanced multiplications instead
    of one full-width division per term.

    Each term's power of two stays out of the products: the Q returned is the
    product of the leaves' q, so the caller restores it with one shift.  T is
    exact, as its combine shifts in the right half's 2^(shift (b - m)), and it
    never reads the first term's q, which a leaf may give whole.  A combine
    reads only its left half's P, so a P is built only where it is read, for a
    left half and all below it; a root over two or more terms gives None for
    it unless want_p.
    """
    if b - a == 1:
        return leaf(a)
    m = (a + b) // 2
    p1, q1, b1, t1 = _split(leaf, a, m, shift, True)
    p2, q2, b2, t2 = _split(leaf, m, b, shift, want_p)
    t = b2 * q2 * t1
    if shift:
        t <<= shift * (b - m)
    return p1 * p2 if want_p else None, q1 * q2, b1 * b2, t + b1 * p1 * t2


def _shifted(x: int, n: int) -> int:
    """x * 2^n, floored, for n of either sign."""
    return x << n if n >= 0 else x >> -n


def _arc_series(p: int, q: int, one: int) -> int:
    """atanh(p/q) * one, 0 < 3p <= q.

    Terms run until (q/p)^(2n) exceeds one; the series sums to at least 1,
    so cutting T and B Q to one's width plus 32 bits costs under 2^-30 ulp.
    """
    terms = int(one.bit_length() / (2 * (math.log2(q) - math.log2(p)))) + 2
    z_num, z_den = p * p, q * q

    def leaf(k: int) -> tuple[int, int, int, int]:  # S(0, terms) = sum z^k / (2k + 1)
        return (z_num, z_den, 2 * k + 1, z_num) if k else (1, 1, 1, 1)

    _, big_q, big_b, t = _split(leaf, 0, terms)
    bq = big_b * big_q
    cut = max(0, bq.bit_length() - one.bit_length() - 32)
    return floor_divmod(one * p * (t >> cut), q * (bq >> cut))[0]


def _log1p_series(a: int, s: int, bits: int) -> int:
    """ln(1 + a/2^s) * 2^bits, 0 < a < 2^(s/2), within 2 binary ulp.

    The series sum (-1)^k x^(k+1) / (k + 1), x = a/2^s < 2^-(s-n), n the bit
    length of a, takes the fewest terms whose first omitted one is under
    2^-(s-n)(terms+1) <= 2^-(bits+1); it alternates, so its tail is smaller
    still.  Each leaf's q is 2^s, so Q is a shift and the one division is by
    B = terms!, far narrower than the sum.  The shift's floor and the
    division's make one floor of T / (B Q): within 1 + 1/2 binary ulp in all.
    """
    terms = max(1, bits // (s - a.bit_length()))

    def leaf(k: int) -> tuple[int, int, int, int]:  # S(0, terms) = sum (-x)^k x / (k + 1)
        return -a, 1, k + 1, a

    _, _, big_b, t = _split(leaf, 0, terms, s)
    return floor_divmod(_shifted(t, bits - s * terms), big_b)[0]


def _ramanujan_leaf(k: int) -> tuple[int, int, int, int]:
    if k == 0:
        return 1, 1, 1, 1123
    p = -(2 * k - 1) * (4 * k - 3) * (4 * k - 1)
    return p, k * k * k * 194481, 1, p * (1123 + 21460 * k)  # q / 2^7: 24893568 = 194481 * 2^7


def _pi_ramanujan(one: int, w: int) -> int:
    """Ramanujan's 4/pi = sum (-1)^k (1123 + 21460k) (4k)! / (k!^4 256^k 882^(2k+1))."""
    terms = int(w / 5.89) + 2  # each term is worth log10(882^2) > 5.89 digits
    _, q, _, t = _split(_ramanujan_leaf, 0, terms, 7)
    q_shift = 7 * (terms - 1)  # Q = q 2^q_shift
    cut = max(0, q.bit_length() + q_shift - one.bit_length() - 64)  # costs under 2^-30 ulp
    return floor_divmod(3528 * _shifted(q, q_shift - cut) * one, t >> cut)[0]


def _chud_leaf(k: int) -> tuple[int, int, int, int]:
    if k == 0:
        return 1, 1, 1, 13591409
    p = (6 * k - 5) * (2 * k - 1) * (6 * k - 1)
    t = (13591409 + 545140134 * k) * p
    # q / 2^15: 640320^3 / 24 = 10939058860032000 = 333833583375 * 2^15
    return p, k * k * k * 333833583375, 1, -t if k & 1 else t


def _pi_chudnovsky(one: int, w: int) -> int:
    terms = w // 14 + 2
    _, q, _, t = _split(_chud_leaf, 0, terms, 15)
    q_shift = 15 * (terms - 1)  # Q = q 2^q_shift
    cut = max(0, q.bit_length() + q_shift - one.bit_length() - 64)  # costs under 2^-30 ulp
    q, t = _shifted(q, q_shift - cut), t >> cut
    return floor_divmod(426880 * q * isqrt(10005 * one * one), t)[0]


# Logarithms run on binary fixed point internally: the bit-burst stages and
# the Newton steps' changes of width are then shifts.

_LOG2_10 = 3.321928094887362


def _bits_for(w: int) -> int:
    return int(w * _LOG2_10) + 64


def _bin_to_decimal(v_bin: int, bits: int, w: int) -> int:
    return v_bin * 10**w >> bits


# ln 2, ln 5 and ln 7 come from one system of four series T_q = 2 atanh(1/q) =
# ln((q + 1)/(q - 1)).  The ratios 126/125, 225/224, 2401/2400 and 4375/4374
# are 2^a 3^b 5^c 7^d with (a, b, c, d) = (1, 2, -3, 1), (-5, 2, 2, -1),
# (-5, -1, -2, 4) and (-1, -7, 4, 1).  That matrix has determinant -1, so its
# inverse is integral, and its rows for 2, 5 and 7 weight the T_q:
_SMOOTH_Q = (251, 449, 4801, 8749)
_LN_WEIGHTS = ((72, 27, -19, 31), (167, 63, -44, 72), (202, 76, -53, 87))  # ln 2, ln 5, ln 7

# The powers of 2, 5 and 7 each bit-burst primary divides out first (see
# _ln_rational_atanh): 10 = 2 * 5 leaves no rest, and pi 2^18 / 7^7 lies in
# [1, 1 + 2^-16).
_SMOOTH = {"ln10": (1, 1, 0), "ln_pi": (-18, 0, 7)}


def _smooth_bin(bits: int) -> tuple[int, ...]:
    """T_q * 2^bits for each q of _SMOOTH_Q, each one _arc_series sum within 2
    binary ulp, served from the memo's values at the most bits computed so far
    by a right shift, which adds at most one binary ulp."""
    held = _memo.get("smooth")
    if held is None or held[0] < bits:
        held = (bits, tuple(_arc_series(1, q, 2 << bits) for q in _SMOOTH_Q))
        _memo["smooth"] = held
    return tuple(t >> held[0] - bits for t in held[1])


def _ln_rational_atanh(num: int, den: int, w: int, smooth: tuple[int, int, int] = (0, 0, 0)) -> int:
    """ln(num/den) * 10^w by the bit-burst scheme.

    smooth = (i, j, k) divides 2^i 5^j 7^k out of num/den; powers of two then
    bring the rest y into [1, 2), and the logarithm of all that was divided
    out is one integer combination of the four T_q (see _smooth_bin).  Stage
    s (1, 2, 4, ...) then takes a = floor((y - 1) 2^s) < 2^(s/2), adds
    ln(1 + a/2^s) and divides 1 + a/2^s out of y exactly, leaving y - 1 <
    2^-s.  From s = 16 the stage sums the series of ln(1 + x) itself, x <
    2^-(s/2), whose terms' denominators are shifts (see _log1p_series): about
    2 bits/s terms.  Below 16 it sums 2 atanh(a / (2^(s+1) + a)), whose
    argument is below 2^-(s/2+1) and whose terms fall by its square, the
    fewer terms where x is as large as 1/2.  A rest below 1 + 2^-s runs no
    stage before s.
    """
    if num <= 0 or den <= 0:
        raise ValueError("log argument must be positive")
    bits = _bits_for(w)
    for p, e in zip((2, 5, 7), smooth):
        if e >= 0:
            den *= p**e
        else:
            num *= p**-e
    k = num.bit_length() - den.bit_length()
    if k >= 0:
        den <<= k
    else:
        num <<= -k
    if num < den:
        num <<= 1
        k -= 1
    e2, e5, e7 = smooth[0] + k, smooth[1], smooth[2]
    total = 0
    if e2 or e5 or e7:
        total = sum((e2 * a + e5 * b + e7 * c) * t
                    for a, b, c, t in zip(*_LN_WEIGHTS, _smooth_bin(bits)))
    s = 1
    while s < 2 * bits and num != den:  # the last stage run has s >= bits
        a = floor_divmod((num - den) << s, den)[0]
        if a:
            if s >= 16:
                total += _log1p_series(a, s, bits)
            else:
                total += 2 * _arc_series(a, (1 << s + 1) + a, 1 << bits)
            if s >= bits:
                break  # the last stage: nothing reads num and den after it
            num <<= s
            den *= (1 << s) + a
        s *= 2
    return _bin_to_decimal(total, bits, w)


def _exp_ratio(y: int, p: int) -> tuple[int, int]:
    """(u, v): exp(y / 2^p), y >= 0, as u / v by the bit-burst.  Stage t = 0,
    1, 2, 4, ... takes a, what is left of y at 2^-t and above, and multiplies
    in exp(x), x = a / 2^t (below 2^-(t/2) past t = 1), as its Taylor series
    summed up to the first term x^K / K! <= 2^-(p+2).  That forces
    2x <= K + 1, so the tail is under twice that term.  The series' T, whose
    exact powers of two leave it near 2p bits wide at the larger t, is cut
    to p + 96 bits before it multiplies u, under 2^-(p+95) relative; one
    shift then cuts u and v alike, leaving v p + 63 bits."""
    u, v, t = 1, 1, 0
    while y:
        a = y << t >> p
        if a:
            x = math.log2(a) - t
            terms, size = 1, x  # size = log2(x^terms / terms!)
            while size > -2 - p:
                terms += 1
                size += x - math.log2(terms)
            _, q, _, s = _split(lambda k: (a, k, 1, a) if k else (1, 1, 1, 1), 0, terms, t)
            q_shift = t * (terms - 1)  # the stage's Q = q 2^q_shift
            cut = max(0, v.bit_length() + q.bit_length() + q_shift - p - 64)
            pre = max(0, min(cut, s.bit_length() - p - 96))  # s to p + 96 bits first
            u, v, y = (u * (s >> pre)) >> cut - pre, _shifted(v * q, q_shift - cut), y - (a << p >> t)
        t = max(1, 2 * t)
    return u, v


def _ln_rational_newton(num: int, den: int, w: int) -> int:
    """ln(num/den) * 10^w by Newton's iteration y <- y + r, r = (num/den)
    exp(-y) - 1, on the bit-burst exp (Brent 1976): no pi, no ln 2 and no
    square root.  The last step adds ln(1 + r) to its cube instead.

    At each width p (< 2^19 for w up to DIGIT_CEILING's), _exp_ratio of |y| has
    at most 21 stages (t up to 2^19), each under 2^-(p+1) low, 21 cuts of u
    and v, each flooring a value of at least 2^(p+62), and 21 of T, each
    under 2^-(p+95): its u / v, or v / u for y < 0, is within 11 2^-p of
    exp(y), relative.  With d = ln x - y, x = num/den, the
    quotient r is 2^p e^d within 11 (1 + 2^-19) + 1 < 13 units of 2^-p, and
    y + r - 2^p is ln x + e^d - 1 - d, where 0 <= e^d - 1 - d <= d^2 for
    |d| <= 1/2.  A plain step thus lands within 32 units once d^2 <= 19 2^-p:
    from the float start (within 2^-20 while num and den have under 2^30
    bits) at p <= 44, and from the iterate at q = floor(p/2) + 16, as d^2 <
    2^(10-2q) <= 2^(-21-p).

    The last width, p = bits, starts from the iterate at q = floor(p/4) + 16,
    so |d| <= 2^(5-q) <= 2^(-p/4-10.25), and R = e^d - 1 below 2^(-p/4-10.2)
    has ln(1 + R) = d.  R - R^2/2 + R^3/3 misses it by under R^4/3 <
    2^-(p+40); r's 13 units move that cubic by at most 13 (1 + 2^-9), its
    derivative being 1 - R + R^2, and the floors of the square, the cube
    and their halving and third by under 2.4: within 16 units in all.  Two
    multiplies of at most 3p/4 bits thus replace the step at the half width.
    16 binary ulp are under 2^-59 decimal ulp behind the 64 guard bits: one
    decimal ulp at most after the floor.
    """
    if num <= 0 or den <= 0:
        raise ValueError("log argument must be positive")
    bits = _bits_for(w)
    widths = [bits, bits // 4 + 16]  # then each half the next plus 16, down to at most 44
    while widths[-1] > 44:
        widths.append(widths[-1] // 2 + 16)
    p = widths[-1]
    y = int(math.ldexp(math.log(num) - math.log(den), p))
    for q in reversed(widths):
        y, p = y << q - p, q
        u, v = _exp_ratio(y, p) if y >= 0 else _exp_ratio(-y, p)[::-1]
        r = floor_divmod(num * v << p, den * u)[0] - (1 << p)  # the quotient, less 1
        if q == bits:  # ln(1 + r) to its cube
            r2 = r * r >> p
            r -= (r2 >> 1) - (r2 * r >> p) // 3
        y += r
    return _bin_to_decimal(y, p, w)


def _ln10_acoth(w: int) -> int:
    """ln 10 * 10^w as 46 acoth 31 + 34 acoth 49 + 20 acoth 161 in binary.

    The primary, ln 2 + ln 5, sums 2 atanh(1/q) for q = 251, 449, 4801 and
    8749 (see _smooth_bin), so the two share no series argument.
    """
    bits = _bits_for(w)
    one = 1 << bits
    return _bin_to_decimal(46 * _arc_series(1, 31, one) + 34 * _arc_series(1, 49, one)
                           + 20 * _arc_series(1, 161, one), bits, w)


# Below this many working digits a pair runs in this process alone; pi's pair,
# both halves cheap next to a fork, has a floor of its own.  Measured on a
# 2-core host (CPython 3.11.7) with the subquadratic divides of _int, in
# fresh interpreters, one pair a process, the floor set by the measuring
# script, forked against inline in alternating runs, timing the pair alone:
# the fork beat inline in ln 10 6 of 12 and 6 of 20 at w = 3020 and 8 of 12
# and 15 of 20 at 4020 (medians 7.5 against 8.2 ms); ln pi, pi certified
# first and the series held, with the ln(1 + x) stages and the cubic Newton
# finish, 2 of 12 at 2020, 17 of 32 at 3020 (13.8 against 14.6 ms), 24 of 40
# at 4020 (14.0 against 14.3 ms, then 19.5 against 15.8 ms), 16 of 20 at
# 5020 (18.1 against 20.1 ms) and 18 of 20 at 6020, tied at ln 10's floor
# and held there; pi 5 of 16 and 12 of 20 at 8020 (13.3 against 9.7 and 9.3
# against 9.4 ms), 8 of 16 and 13 of 20 at 9020 (12.4 against 11.9 ms), and
# 9 of 16, 16 of 20 and 17 of 20 at 10020 (11.9 against 15.8 ms), each
# median won.
_FORK_MIN_DIGITS = 4000
_PI_FORK_MIN_DIGITS = 10000


def _second_cpu() -> bool:
    """Whether a second CPU is ours: in the affinity mask where the platform
    has one, else in os.cpu_count()."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) >= 2
    return (os.cpu_count() or 1) >= 2


def _fork_pays(size: int, floor: int) -> bool:
    """Whether work of ``size`` is shared with a forked child: fork exists, a
    second CPU is ours, no other Python thread could hold a lock across the
    fork, and size clears ``floor`` (for a pair, its working digits clear
    _FORK_MIN_DIGITS, or pi's _PI_FORK_MIN_DIGITS, passed at each call, so a
    script that sets a floor moves every pair that uses it)."""
    if size < floor or not hasattr(os, "fork") or threading.active_count() > 1:
        return False
    return _second_cpu()


def _split_jobs(fork: bool, jobs):
    """job() for each of ``jobs``, in order, as the caller reads them; each
    odd job gives an ASCII str.

    This process runs the even jobs as they are read.  Where ``fork`` holds
    and os.fork succeeds, a forked child runs the odd jobs and sends each
    text as soon as it is made (see _child).  A job whose text the child did
    not send whole runs here, and so does every later odd job, whatever the
    child did (raised, exited, was killed or cut a frame short), so the
    values, or the error, are those of running every job here.  The child is
    reaped after its last text; a reader that stops early kills and reaps it
    first.
    """
    pid = None
    if fork:
        rfd, wfd = os.pipe()
        try:
            with warnings.catch_warnings():
                # 3.12+ warns on fork while any other OS thread (numpy's BLAS
                # workers) runs; the child only computes and writes.
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
        except OSError:
            os.close(rfd)
        if pid == 0:
            _child(wfd, jobs[1::2])
        os.close(wfd)
    if pid is None:
        for job in jobs:
            yield job()
        return
    pipe = open(rfd, "rb")
    try:
        for i, job in enumerate(jobs):
            text = None  # the last text is not held while this job runs
            if i % 2 and pid is not None:
                text = _frame_text(pipe)
                if text is None:  # the child sent no more: this job and the later odd ones run here
                    _kill_unreaped(pid)
                    pid = None
            yield job() if text is None else text
        if pid is not None:
            os.waitpid(pid, 0)
            pid = None
    finally:
        pipe.close()
        if pid is not None:
            _kill_unreaped(pid)


def _frame_text(pipe) -> str | None:
    """The text of the next frame on ``pipe``, or None at the end of the pipe
    or for a frame cut short."""
    head = pipe.read(8)
    count = int.from_bytes(head, "little")
    data = pipe.read(count)
    return data.decode("ascii") if len(head) + len(data) == 8 + count else None


def _child(fd: int, jobs) -> None:
    """In a forked child: send each job's text to fd as a frame, an 8-byte
    little-endian count and the ASCII bytes, then leave by os._exit, never
    flushing inherited stdio or running atexit.  A job that raises ends the
    frames; the parent runs it again."""
    try:
        for job in jobs:
            data = job().encode("ascii")
            for view in map(memoryview, (len(data).to_bytes(8, "little"), data)):
                while view:
                    view = view[os.write(fd, view):]
    finally:
        os._exit(0)


def _kill_unreaped(pid: int) -> None:
    """Kill and reap the forked child pid, unless an interrupt landed after
    waitpid reaped it but before pid was cleared: the WNOHANG probe finds it
    gone then, and a pid that may have been reused is never signalled."""
    try:
        if os.waitpid(pid, os.WNOHANG)[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    except ChildProcessError:
        pass


def _pair(w: int, floor: int, here, there) -> tuple[int, int]:
    """(here(), there()) of a pair's two halves; ``there`` may run in a forked
    child, where w clears ``floor``, and its int travels as hex text."""
    value, text = _split_jobs(_fork_pays(w, floor), [here, lambda: format(there(), "x")])
    return value, int(text, 16)


def _pi_scaled_pair(w: int) -> tuple[int, int]:
    """(Ramanujan, Chudnovsky); Ramanujan's half may run in a forked child."""
    one = 10**w
    chudnovsky, ramanujan = _pair(w, _PI_FORK_MIN_DIGITS, functools.partial(_pi_chudnovsky, one, w),
                                  functools.partial(_pi_ramanujan, one, w))
    return ramanujan, chudnovsky


def _ln10_scaled_pair(w: int) -> tuple[int, int]:
    """(bit-burst, acoth formula); the acoth half may run in a forked child."""
    return _pair(w, _FORK_MIN_DIGITS, functools.partial(_ln_rational_atanh, 10, 1, w, _SMOOTH["ln10"]),
                 functools.partial(_ln10_acoth, w))


def _ln_pi_scaled_pair(w: int) -> tuple[int, int]:
    """(bit-burst, Newton) for ln(pi_hat), pi_hat = P/10^(w+5): the
    substitution error is below 10^-(w+4) and the truncation P is itself
    dual-certified.  The Newton engine starts from a float, not from the
    bit-burst value, so it may run in a forked child beside it."""
    num, den = _certified_scaled("pi", w + 5), 10 ** (w + 5)
    return _pair(w, _FORK_MIN_DIGITS, functools.partial(_ln_rational_atanh, num, den, w, _SMOOTH["ln_pi"]),
                 functools.partial(_ln_rational_newton, num, den, w))


_ENGINES = {
    "pi": _pi_scaled_pair,
    "ln10": _ln10_scaled_pair,
    "ln_pi": _ln_pi_scaled_pair,
}


def _first_diff_index(v1: int, v2: int, w: int) -> int:
    return len(os.path.commonprefix([decimal_text(v1, w + 1), decimal_text(v2, w + 1)]))


def _certify(name: str, n_digits: int) -> tuple[int, str]:
    """The memo entry of ``name`` holding at least ``n_digits`` certified digits.

    A shorter request is served from the largest entry; a longer one is
    certified at max(n, min(2 N, DIGIT_CEILING)) digits, so a growing consumer
    runs the engines O(log n) times.
    """
    held = _memo.get(name)
    if held is not None and held[0] >= n_digits:
        return held
    if held is not None:
        n_digits = max(n_digits, min(2 * held[0], DIGIT_CEILING))
    w = _working_digits(n_digits)
    for _ in range(10):
        v1, v2 = _ENGINES[name](w)
        if abs(v1 - v2) > _AGREE_ULP:
            raise MethodDisagreementError(name, _first_diff_index(v1, v2, w))
        shift = 10 ** (w - n_digits)
        rem = v1 % shift
        if _BOUNDARY_ULP < rem < shift - _BOUNDARY_ULP:
            text = decimal_text(v1 // shift, n_digits + 1)  # padded: the integer part is never empty
            if text[: len(text) - n_digits] != str(_INT_PARTS[name]):
                raise MethodDisagreementError(name, 0)
            held = (n_digits, text[1:])
            _memo[name] = held
            return held
        w += 32  # released digit sat on a rounding boundary; widen the guard
    raise MethodDisagreementError(name, n_digits)


def _certified_scaled(name: str, n_digits: int) -> int:
    """floor(value * 10^n_digits) with every digit certified by both engines:
    the int of the integer part and the first n_digits held digits."""
    return int(str(_INT_PARTS[name]) + _certify(name, n_digits)[1][:n_digits])


def certified_digits(name: str, n_digits: int) -> str:
    """The text of at least ``n_digits`` certified fractional digits of a constant.

    The digits come from the memo, certified in this process.  Past
    DIGIT_CEILING this raises ProducerExhaustedError, as a constant's stream
    does.
    """
    if n_digits > DIGIT_CEILING:
        raise ProducerExhaustedError(n_digits, DIGIT_CEILING)
    return _certify(name, n_digits)[1]


def integer_part(name: str) -> int:
    """The integer part of a supported constant (digit streams carry only the fraction)."""
    if name not in _INT_PARTS:
        raise ValueError(f"unknown constant {name!r}")
    return _INT_PARTS[name]


def const_digits(name: str, digits: int) -> DigitStream:
    """Certified fractional digits of a constant as an extensible stream.

    Digits are released where both engines agree (see _certify), one perhaps in a
    forked child; neither runs for digits the memo holds.  The integer part is
    exposed via integer_part().  Past DIGIT_CEILING digits it raises ProducerExhaustedError.
    """
    if name not in _INT_PARTS:
        raise ValueError(f"unknown constant {name!r}; expected one of {sorted(_INT_PARTS)}")
    if digits < 1:
        raise ValueError("digit count must be >= 1")
    if digits > DIGIT_CEILING:
        raise PrecisionCeilingError(f"{digits} digits exceeds ceiling {DIGIT_CEILING}")

    def produce(n: int) -> bytes:
        return digits_from_text(certified_digits(name, n)[:n])

    stream = DigitStream(10, produce, label=name)
    stream.ensure(digits)
    return stream


def x_sequence(n_max: int, precision: int = 30) -> list[Fraction]:
    """The values n*ln(10) + ln(pi) for n = 1..n_max.

    Each entry is an exact rational within 10^-precision of the true value.
    """
    if n_max < 1:
        raise ValueError("sequence starts at n = 1")
    if precision < 1:
        raise ValueError("precision must be >= 1")
    w = precision + len(str(n_max)) + 2
    if w > DIGIT_CEILING:
        raise PrecisionCeilingError(f"{w} working digits exceeds ceiling {DIGIT_CEILING}")
    v10 = _certified_scaled("ln10", w)
    vpi = _certified_scaled("ln_pi", w)
    den = 10**w
    return [Fraction(n * v10 + vpi, den) for n in range(1, n_max + 1)]

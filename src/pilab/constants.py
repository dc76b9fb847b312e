"""Dual-certified decimal digit engines for pi, ln 10, and ln pi.

Each constant is evaluated by two independent integer-only fixed-point
methods: Machin's arctangent formula summed by binary splitting against
Chudnovsky binary splitting for pi, a bit-burst atanh series against the
acoth formula 46 acoth 31 + 34 acoth 49 + 20 acoth 161 for ln 10, and the
bit-burst series against the AGM logarithm for ln pi.  Digits are released
only where both computations agree and the guard digits sit far from a
rounding boundary, so every released digit is exact.

The two engines of a pair share no state, so where a fork pays, one half of
the pair runs in a forked child while this process runs the other (see
_spawn): atan(1/5) for pi, the acoth formula for ln 10 and the whole AGM
engine for ln pi.  The values are bit for bit those of running them one
after the other.  Only the bit-burst ln 2 is held between calls (see
_memo); the AGM's pi and ln 2 are computed afresh on each call.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import signal
import threading
import warnings
from fractions import Fraction

from .radix import DigitStream, ProducerExhaustedError, digits_from_text

DIGIT_CEILING = 100_000

_INT_PARTS = {"pi": 3, "ln10": 2, "ln_pi": 1}


# How far apart (in 10^-w units) the two engines of a constant may land.
#
# Each _arc_series sum is within 2 ulp: one floor division, operands cut at a
# cost under 2^-30 ulp, and a series tail below 1 ulp.  Machin,
# 16 atan(1/5) - 4 atan(1/239), is thus within 40 ulp; Chudnovsky within 2 (an
# isqrt floor scaled by pi/sqrt(10005), then a division floor, with Q and T cut
# first to one's width plus 64 bits at a cost under 2^-30 ulp).  The logarithms
# work in binary with 64 guard bits: the bit-burst sum of k ln 2 and at most
# log2(bits) + 2 stages errs by 4 (|k| + stages) binary ulp; the acoth ln 10,
# three _arc_series sums weighted 46, 34 and 20, by 2 (46 + 34 + 20) = 200
# binary ulp, under 2^-55 decimal ulp behind the guard bits; and the AGM log's
# formula, loop, pi and ln 2 errors stay under one binary ulp (see
# _ln_rational_agm).  After the floor to decimal each is within 2 ulp.  Pi
# pairs therefore differ by at most 42 ulp and logarithm pairs by at most 4.
# None of these bounds grows with w.
#
# The bit-burst ln 2 is computed once, at the most bits asked for, and served
# lower by a right shift (see _ln2_bin).  The shift's floor adds at most one
# binary ulp to an error the shift has at least halved, so e / 2 + 1 <= e for
# every error e >= 2 above: each bound holds unchanged, and so do the budgets.
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
# (N, floor(value * 10^N), its N fractional digits) for the largest N
# certified so far; the bit-burst ln 2 ("ln2") maps to (bits, ln 2 * 2^bits,
# b"") for the most bits computed so far.
_memo: dict[str, tuple[int, int, bytes]] = {}


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


def _split(leaf, a: int, b: int) -> tuple[int, int, int, int]:
    """(P, Q, B, T) over the terms a <= k < b of a series; leaf(k) gives term k's.

    The partial sum S(a, b) = T / (B Q) combines as S(a, b) = S(a, m) +
    P(a, m) / Q(a, m) * S(m, b).  Binary splitting (Haible & Papanikolaou, ANTS
    1998): products of small factors meet in balanced multiplications instead
    of one full-width division per term.
    """
    if b - a == 1:
        return leaf(a)
    m = (a + b) // 2
    p1, q1, b1, t1 = _split(leaf, a, m)
    p2, q2, b2, t2 = _split(leaf, m, b)
    return p1 * p2, q1 * q2, b1 * b2, b2 * q2 * t1 + b1 * p1 * t2


def _arc_series(p: int, q: int, one: int, sign: int) -> int:
    """atan(p/q) * one (sign -1) or atanh(p/q) * one (sign +1), 0 < 3p <= q.

    Terms run until (q/p)^(2n) exceeds one; the series sums to at least 2/3,
    so cutting T and B Q to one's width plus 32 bits costs under 2^-30 ulp.
    """
    terms = int(one.bit_length() / (2 * (math.log2(q) - math.log2(p)))) + 2
    z_num, z_den = sign * p * p, q * q

    def leaf(k: int) -> tuple[int, int, int, int]:  # S(0, terms) = sum z^k / (2k + 1)
        return (z_num, z_den, 2 * k + 1, z_num) if k else (1, 1, 1, 1)

    _, big_q, big_b, t = _split(leaf, 0, terms)
    bq = big_b * big_q
    cut = max(0, bq.bit_length() - one.bit_length() - 32)
    return one * p * (t >> cut) // (q * (bq >> cut))


def _machin(atan_5: int, atan_239: int) -> int:
    return 16 * atan_5 - 4 * atan_239


def _pi_machin(one: int) -> int:
    return _machin(_arc_series(1, 5, one, -1), _arc_series(1, 239, one, -1))


def _chud_leaf(k: int) -> tuple[int, int, int, int]:
    if k == 0:
        return 1, 1, 1, 13591409
    p = (6 * k - 5) * (2 * k - 1) * (6 * k - 1)
    t = (13591409 + 545140134 * k) * p
    return p, k * k * k * 10939058860032000, 1, -t if k & 1 else t


def _pi_chudnovsky(one: int, w: int) -> int:
    terms = w // 14 + 2
    _, q, _, t = _split(_chud_leaf, 0, terms)
    cut = max(0, q.bit_length() - one.bit_length() - 64)  # costs under 2^-30 ulp
    q, t = q >> cut, t >> cut
    s = math.isqrt(10005 * one * one)
    return 426880 * q * s // t


# Logarithms run on binary fixed point internally: the bit-burst stages and
# the AGM's scalings by powers of two are then shifts.

_LOG2_10 = 3.321928094887362


def _bits_for(w: int) -> int:
    return int(w * _LOG2_10) + 64


def _bin_to_decimal(v_bin: int, bits: int, w: int) -> int:
    return v_bin * 10**w >> bits


def _ln2_bin(bits: int) -> int:
    """2 atanh(1/3) * 2^bits, served from the memo's value at the most bits
    computed so far by a right shift, which adds at most one binary ulp."""
    held = _memo.get("ln2")
    if held is None or held[0] < bits:
        held = (bits, 2 * _arc_series(1, 3, 1 << bits, 1), b"")
        _memo["ln2"] = held
    return held[1] >> held[0] - bits


def _ln2_acoth_bin(bits: int) -> int:
    """ln 2 * 2^bits as 18 acoth 26 - 2 acoth 4801 + 8 acoth 8749, sharing no
    series with the primary's 2 atanh(1/3)."""
    one = 1 << bits
    return (18 * _arc_series(1, 26, one, 1) - 2 * _arc_series(1, 4801, one, 1)
            + 8 * _arc_series(1, 8749, one, 1))


def _pi_bin(bits: int) -> int:
    """pi * 2^bits by Chudnovsky, for the AGM logarithm."""
    return _pi_chudnovsky(1 << bits, bits // 3 + 1)


def _ln_rational_atanh(num: int, den: int, w: int) -> int:
    """ln(num/den) * 10^w by the bit-burst atanh scheme.

    Powers of two bring y = num/den into [1, 2); then stage s (1, 2, 4, ...)
    takes a = floor((y - 1) 2^s) < 2^(s/2), adds ln(1 + a/2^s) =
    2 atanh(a / (2^(s+1) + a)) and divides it out of y exactly, leaving
    y - 1 < 2^-s.  Each stage's argument is below 2^-(s/2+1), so its series
    needs about bits/s terms.  ln 10 = 3 * 2 atanh(1/3) + 2 atanh(1/9).
    """
    if num <= 0 or den <= 0:
        raise ValueError("log argument must be positive")
    bits = _bits_for(w)
    k = num.bit_length() - den.bit_length()
    if k >= 0:
        den <<= k
    else:
        num <<= -k
    if num < den:
        num <<= 1
        k -= 1
    total = k * _ln2_bin(bits) if k else 0
    s = 1
    while s < 2 * bits and num != den:  # the last stage run has s >= bits
        a = ((num - den) << s) // den
        if a:
            total += 2 * _arc_series(a, (1 << s + 1) + a, 1 << bits, 1)
            num <<= s
            den *= (1 << s) + a
        s *= 2
    return _bin_to_decimal(total, bits, w)


def _agm(a: int, b: int, p: int) -> tuple[int, int]:
    """(mean, e) with AGM(a, b) ~ mean * 2^e, for a >= b >= 2^(p-1).

    After each step a and b are shifted right together so that b keeps p
    bits; b only grows before the shift, so the shift is never negative.
    A step's floor and the shift's floor compose into one floor per value,
    under 2^(1-p) relative (see _ln_rational_agm).
    """
    e = 0
    while a - b > 1:  # b <= a throughout; the gap squares each step
        a, b = (a + b) >> 1, math.isqrt(a * b)
        cut = b.bit_length() - p
        a, b, e = a >> cut, b >> cut, e + cut
    return a, e


def _ln_rational_agm(num: int, den: int, w: int) -> int:
    """ln(num/den) * 10^w as ln s - m ln 2, ln s ~ pi / (2 AGM(1, 4/s)) (Brent 1976).

    s = (num/den) 2^m lies in (2^(h-1), 2^(h+1)), h = bits/2 + 33, so the
    formula's error, below 4 ln(s) / s^2, is under 2^-(bits+40).  The AGM
    needs bits + O(log bits) bits of relative precision only: with
    L = bitlen(bits), it starts from 2^e0 and floor(4/s 2^e0), which has p
    or p + 1 bits for e0 = p + h - 2 and p = bits + L + 40, and _agm keeps b
    at p bits.  The start and each step floor a and b by under one unit of a
    value of at least 2^(p-1) units, 2^(1-p) relative.  The AGM is
    homogeneous and nondecreasing in each argument, so these errors add:
    each step lowers the mean by at most a factor 1 - 2^(1-p), whatever came
    before.  The ratio a/b, below 2^h, is at least square-rooted each step
    and its excess over 1 squared (over 8) once below 2, so the loop stops
    within 2L + 4 steps (33 at DIGIT_CEILING's working digits, L = 19), and
    the a it stops at is within one unit above the mean of its last pair.
    The mean is thus within (2L + 6) 2^(1-p) <= 2^(L+1-p) relative, and
    ln s = pi / (2 mean), below bits < 2^L, within 2^(2L+1-p) =
    2^(L-bits-39) <= 2^-(bits+20) for bits < 2^19, which covers every w up
    to DIGIT_CEILING's.  Pi (Chudnovsky) and ln 2 (_ln2_acoth_bin,
    independent of the bit-burst primary) are taken at
    g = bits + bitlen(max(bits, |m|)) + 32 bits: pi's few ulp at g cost
    ln s under 2^-(bits+30), and |m| times ln 2's 56 ulp under
    2^-(bits+26).  Whatever is left stays under one binary ulp before the
    final shift to bits.
    """
    if num <= 0 or den <= 0:
        raise ValueError("log argument must be positive")
    bits = _bits_for(w)
    h = bits // 2 + 33
    m = h - (num.bit_length() - den.bit_length())
    p = bits + bits.bit_length() + 40
    g = bits + max(bits, abs(m)).bit_length() + 32
    e0 = p + h - 2
    mean, e = _agm(1 << e0, (den << e0 + 2 + max(-m, 0)) // (num << max(m, 0)), p)
    ln_s = (_pi_bin(g) << e0 - e) // (2 * mean)
    return _bin_to_decimal(ln_s - m * _ln2_acoth_bin(g) >> g - bits, bits, w)


def _ln10_acoth(w: int) -> int:
    """ln 10 * 10^w as 46 acoth 31 + 34 acoth 49 + 20 acoth 161 in binary.

    The bit-burst primary for 10 is 3 ln 2 + ln(5/4) = 6 atanh(1/3) +
    2 atanh(1/9), so the two share no series argument.
    """
    bits = _bits_for(w)
    one = 1 << bits
    return _bin_to_decimal(46 * _arc_series(1, 31, one, 1) + 34 * _arc_series(1, 49, one, 1)
                           + 20 * _arc_series(1, 161, one, 1), bits, w)


# Below this many working digits a pair runs in this process alone.  On a
# 2-core host (CPython 3.11.7, pilab and numpy loaded) fork, pipe and waitpid
# took 3.4-4.2 ms (median of 50).  Atan(1/5) took 4.6 ms at w = 3000 and
# 7.1 ms at w = 4000; the forked halves of the logarithms, median of 7, took
# 5.2 and 9.7 ms (acoth ln 10) and 12.3 and 27.8 ms (the AGM engine of
# ln pi), against 8.0 and 18.0 ms, and 22.9 and 50.0 ms, for the bit-burst
# halves left in the parent.  The overlap starts to repay the fork near
# w = 3000, for ln 10 last.
_FORK_MIN_DIGITS = 4000


def _second_cpu() -> bool:
    """Whether a second CPU is ours: in the affinity mask where the platform
    has one, else in os.cpu_count()."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) >= 2
    return (os.cpu_count() or 1) >= 2


def _fork_pays(size: int, floor: int = _FORK_MIN_DIGITS) -> bool:
    """Whether work of ``size`` is shared with a forked child: fork exists, a
    second CPU is ours, no other Python thread could hold a lock across the
    fork, and size clears ``floor`` (for a pair, its working digits clear
    _FORK_MIN_DIGITS)."""
    if size < floor or not hasattr(os, "fork") or threading.active_count() > 1:
        return False
    return _second_cpu()


class ForkedChildError(ArithmeticError):
    """A forked child raised, died, sent nothing or cut a frame short."""


def _child(fd: int, fn, args) -> None:
    """In a forked child: send fn(*args) to fd in frames, then leave by
    os._exit (status 1 if anything raised), never flushing inherited stdio or
    running atexit.  An int goes as one frame tagged b"i", its signed
    little-endian bytes; any other result, an iterable of bytes, as one frame
    tagged b"b" per item.  A frame is an 8-byte little-endian count of the
    bytes after it, the tag, then the bytes."""
    status = 1
    try:
        value = fn(*args)
        if isinstance(value, int):
            frames = [(b"i", value.to_bytes(value.bit_length() // 8 + 1, "little", signed=True))]
        else:
            frames = ((b"b", piece) for piece in value)
        for tag, data in frames:
            for view in map(memoryview, ((len(data) + 1).to_bytes(8, "little") + tag, data)):
                while view:
                    view = view[os.write(fd, view):]
        status = 0
    finally:
        os._exit(status)


@contextlib.contextmanager
def _spawn(name: str, fork: bool, fn, *args):
    """Compute fn(*args) beside the context's body, which gets a join()
    returning it: an int, or an iterator over the pieces of an iterable of
    bytes.

    When ``fork`` is true, a forked child computes it and sends it back
    through a pipe, each piece as soon as it is made (see _child); join()
    reads it and reaps the child, and an iterator reaps the child after its
    last piece.  Otherwise, or if the fork fails, fn(*args) is called here
    before the body runs, and an iterable is iterated only as join()'s
    caller reads it.  Leaving the context before the child is reaped (the
    body raised) kills and reaps it.  A child that raises, dies, sends
    nothing or cuts a frame short makes the join, or the read past its last
    whole piece, raise ForkedChildError naming ``name``, after reaping it.
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
            _child(wfd, fn, args)
        os.close(wfd)
    if pid is None:
        value = fn(*args)
        yield lambda: value
        return
    pipe = open(rfd, "rb")
    what = f"{name}: the forked {fn.__name__}"

    def frames():
        """(tag, bytes) of each whole frame, then the child reaped."""
        nonlocal pid
        sent = 0
        while True:
            head = pipe.read(9)
            count = int.from_bytes(head[:8], "little")
            data = bytearray(max(count - 1, 0) if len(head) == 9 else 0)  # filled in place, not joined
            got = len(head) + pipe.readinto(data)
            if got != 8 + count:  # the end of the pipe, or a frame cut short
                break
            sent += got
            yield head[8:], data
        status = os.waitpid(pid, 0)[1]
        pid = None  # reaped
        code = os.waitstatus_to_exitcode(status)
        if code < 0:
            raise ForkedChildError(f"{what} was killed by signal {-code}")
        if code:
            raise ForkedChildError(f"{what} exited with status {code}")
        if got or not sent:
            raise ForkedChildError(f"{what} sent {sent + got} bytes, not {sent + 8 + count}")

    def join():
        stream = frames()
        tag, data = next(stream)
        if tag == b"b":
            return itertools.chain((data,), (piece for _, piece in stream))
        next(stream, None)  # the end of the pipe: the child reaped
        return int.from_bytes(data, "little", signed=True)

    try:
        yield join
    finally:
        pipe.close()
        if pid is not None:
            _kill_unreaped(pid)


def _kill_unreaped(pid: int) -> None:
    """Kill and reap the forked child pid, unless an interrupt landed in join()
    after waitpid reaped it but before pid was cleared: the WNOHANG probe finds
    it gone then, and a pid that may have been reused is never signalled."""
    try:
        if os.waitpid(pid, os.WNOHANG)[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    except ChildProcessError:
        pass


def _pi_scaled_pair(w: int) -> tuple[int, int]:
    one = 10**w
    with _spawn("pi", _fork_pays(w), _arc_series, 1, 5, one, -1) as atan_5:
        chudnovsky = _pi_chudnovsky(one, w)
        atan_239 = _arc_series(1, 239, one, -1)
        return _machin(atan_5(), atan_239), chudnovsky


def _ln10_scaled_pair(w: int) -> tuple[int, int]:
    """(bit-burst, acoth formula); the acoth half may run in a forked child."""
    with _spawn("ln10", _fork_pays(w), _ln10_acoth, w) as acoth:
        return _ln_rational_atanh(10, 1, w), acoth()


def _ln_pi_scaled_pair(w: int) -> tuple[int, int]:
    """(bit-burst, AGM) for ln(pi_hat), pi_hat = P/10^(w+5): the substitution
    error is below 10^-(w+4) and the truncation P is itself dual-certified.
    The whole AGM engine, its pi and ln 2 included, may run in a forked
    child."""
    num, den = _certified_scaled("pi", w + 5), 10 ** (w + 5)
    with _spawn("ln_pi", _fork_pays(w), _ln_rational_agm, num, den, w) as agm:
        return _ln_rational_atanh(num, den, w), agm()


_ENGINES = {
    "pi": _pi_scaled_pair,
    "ln10": _ln10_scaled_pair,
    "ln_pi": _ln_pi_scaled_pair,
}


def _first_diff_index(v1: int, v2: int, w: int) -> int:
    s1 = str(v1).rjust(w + 1, "0")
    s2 = str(v2).rjust(w + 1, "0")
    for i, (c1, c2) in enumerate(zip(s1, s2)):
        if c1 != c2:
            return i
    return min(len(s1), len(s2))


def _certify(name: str, n_digits: int) -> tuple[int, int, bytes]:
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
            released = v1 // shift
            frac = released - _INT_PARTS[name] * 10**n_digits
            if not 0 <= frac < 10**n_digits:
                raise MethodDisagreementError(name, 0)
            held = (n_digits, released, digits_from_text(str(frac).rjust(n_digits, "0")))
            _memo[name] = held
            return held
        w += 32  # released digit sat on a rounding boundary; widen the guard
    raise MethodDisagreementError(name, n_digits)


def _certified_scaled(name: str, n_digits: int) -> int:
    """floor(value * 10^n_digits) with every digit certified by both engines."""
    held_digits, released, _ = _certify(name, n_digits)
    return released // 10 ** (held_digits - n_digits)


def certified_digits(name: str, n_digits: int) -> bytes:
    """At least ``n_digits`` certified fractional digits of a constant.

    The digits come from the memo, certified in this process.  Past
    DIGIT_CEILING this raises ProducerExhaustedError, as a constant's stream
    does.
    """
    if n_digits > DIGIT_CEILING:
        raise ProducerExhaustedError(n_digits, DIGIT_CEILING)
    return _certify(name, n_digits)[2]


def integer_part(name: str) -> int:
    """The integer part of a supported constant (digit streams carry only the fraction)."""
    if name not in _INT_PARTS:
        raise ValueError(f"unknown constant {name!r}")
    return _INT_PARTS[name]


def const_digits(name: str, digits: int) -> DigitStream:
    """Certified fractional digits of a constant as an extensible stream.

    Both engines always run, in this process; the stream is released only
    after they agree on every digit.  The integer part is exposed via integer_part().
    Extending the stream past DIGIT_CEILING digits raises ProducerExhaustedError.
    """
    if name not in _INT_PARTS:
        raise ValueError(f"unknown constant {name!r}; expected one of {sorted(_INT_PARTS)}")
    if digits < 1:
        raise ValueError("digit count must be >= 1")
    if digits > DIGIT_CEILING:
        raise PrecisionCeilingError(f"{digits} digits exceeds ceiling {DIGIT_CEILING}")

    def produce(n: int) -> bytes:
        return certified_digits(name, n)[:n]

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

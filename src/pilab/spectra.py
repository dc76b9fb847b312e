"""Equidistribution and normality statistics: Weyl sums, star discrepancy,
block frequencies and exponential sums over subgroups of prime fields.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import sys
import threading
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import constants, primes
from .radix import DigitStream, fractional_part

_FLOAT_SLOP = 5e-16  # per-point trig rounding folded into reported error bounds
_TABLE_CAP = 10**7  # most base^k patterns one block-frequency table may hold
_CHUNK = 1 << 16  # points per numpy pass, so temporaries stay near half a megabyte
# expsum_magnitudes transforms one length-p complex128 vector in place; with
# pocketfft's Bluestein buffers, whose padded length varies with p, the process
# rises 128 to 144 bytes per unit of p: peaks of 170 MB at p = 1 000 003 and
# 1010 MB at 8 000 009.  On glibc those buffers share one heap (_reused_heap),
# which saves page faults, not peak memory.
EXPSUM_P_MAX = 1 << 23
# weyl_sum costs one cos and one sin term per point and frequency: over 10^6
# random points at m = 1..20, 62 ns a term on one CPU and 33 ns with the
# chunks split over two (a 2-core host, CPython 3.11.7, numpy 2.4.6).  A
# frequency counts at least _CHUNK points, the one pass a short set still
# makes (32 us a frequency at N = 1), which also bounds the rows it holds.
# WEYL_TERMS_MAX is a minute of terms at 64 ns: report --N 10^6 admits
# --mmax 937 (--mmax 100000 there, 10^11 terms, would take one to two hours).
WEYL_TERMS_MAX = 60 * 10**9 // 64

# glibc's mallopt parameters and their defaults, and the environment variables
# through which a user sets glibc's malloc policy instead
_M_TRIM_THRESHOLD, _M_MMAP_MAX = -1, -4
_DEFAULT_TRIM_THRESHOLD, _DEFAULT_MMAP_MAX = 128 * 1024, 65536
_GLIBC_MALLOC_ENV = ("GLIBC_TUNABLES", "MALLOC_MMAP_MAX_", "MALLOC_TRIM_THRESHOLD_",
                     "MALLOC_MMAP_THRESHOLD_", "MALLOC_TOP_PAD_")

# Shift points: a window code is a fraction in radix b^h <= 2^40, so a limb
# shifted by the 23 quotient bits of one long-division step stays below 2^63.
# Three steps give 69 bits; from 2^-14 up that leaves 55 below the leading one.
_LIMB_MAX = 1 << 40
_QBITS = 23
_TINY_Q0 = 1 << (_QBITS - 14)  # a first quotient chunk below this means a value below 2^-14

# Exact sums: every finite double is a multiple of 2^-1074.  A chunk of _CHUNK
# values is cut into limbs of _LIMB_BITS bits on fixed grids; a limb's float64
# sum stays below 2^(30 + 16) grid units, so it is exact.
_LIMB_BITS = 30
_MIN_EXP = -1074
_GRID_MAX = 971  # the largest grid exponent g whose rounding constant 1.5 * 2^(g + 52) is finite


class TableCapError(ValueError):
    """A block-frequency table would exceed the configured size cap."""


class _PointSetFields(NamedTuple):
    points: np.ndarray
    eps: float
    label: str


class PointSet(_PointSetFields):
    """Points in [0,1) with a shared certified absolute error bound.

    ``points`` may be given as any sequence of floats; it is stored as a
    read-only float64 array.  ``len`` is the number of points.
    """

    __slots__ = ()

    def __new__(cls, points, eps: float, label: str = ""):
        pts = points
        if not (isinstance(pts, np.ndarray) and pts.dtype == np.float64 and not pts.flags.writeable):
            pts = np.array(pts, dtype=np.float64)
            pts.flags.writeable = False
        if pts.ndim != 1:
            raise ValueError("points must form a one-dimensional sequence")
        if not 0.0 <= eps < math.inf:
            raise ValueError(f"eps must be finite and >= 0, got {eps}")
        inside = (pts >= 0.0) & (pts < 1.0)  # false for NaN as well
        if not inside.all():
            raise ValueError(f"point {float(pts[np.argmin(inside)])} outside [0,1)")
        return super().__new__(cls, pts, eps, label)

    def __len__(self) -> int:
        return len(self.points)

    @classmethod
    def from_fractions(cls, values: Iterable[Fraction], eps: float, label: str = "") -> "PointSet":
        pts = tuple(min(float(v), math.nextafter(1.0, 0.0)) for v in values)
        return cls(points=pts, eps=eps + 2e-16, label=label)


class WeylRow(NamedTuple):
    m: int
    magnitude: float
    error_bound: float


class WeylReport(NamedTuple):
    n_points: int
    label: str
    rows: tuple[WeylRow, ...]


class BlockStats(NamedTuple):
    """Overlapping block counts of one length; all base^k patterns enter the stats."""

    base: int
    block_len: int
    windows: int
    table: np.ndarray  # the count of every base^k pattern, indexed by its code
    max_abs_dev: float
    chi_square: float
    dof: int

    def row(self) -> dict:
        """The statistics every block report prints."""
        return {"windows": self.windows, "max_abs_dev": self.max_abs_dev,
                "chi_square": self.chi_square, "dof": self.dof}


class BlockTable(NamedTuple):
    """Block statistics of one digit prefix for every length k = 1..k_max."""

    lengths: tuple[BlockStats, ...]  # lengths[k - 1] has block length k

    @property
    def windows(self) -> int:
        """Windows counted over all block lengths."""
        return sum(stats.windows for stats in self.lengths)


class ExpSumReport(NamedTuple):
    modulus: int
    generator: int
    subgroup_order: int
    c: float
    max_magnitude: float
    argmax: int
    bound: float
    ratio: float


def _chunk_sum(x: np.ndarray) -> int:
    """The exact sum of at most _CHUNK finite doubles, in units of 2^-1074.

    With every |x| < 2^top and every x a multiple of 2^low (the least ulp in
    the chunk), x is cut on the grids 2^g, g = top - 30, top - 60, ... > low:
    (r + c) - c with c = 1.5 * 2^(g + 52) rounds the rest r to the nearest
    multiple of 2^g, and r minus that is exact and at most 2^(g - 1).  Each
    limb is thus at most 2^30 grid units, and so is the last rest on the grid
    2^low, so every float64 limb sum over 2^16 values is exact.  A grid above
    _GRID_MAX is handled on values scaled by 2^-s, which can lose only bits of
    values that round to zero there, and those keep their rest unscaled.
    """
    a = np.abs(x)
    big = float(a.max(initial=0.0))
    if not math.isfinite(big):
        raise ValueError("exact summation needs finite values")
    if big == 0.0:
        return 0
    small = float(a.min())
    if small == 0.0:
        small = float(a.min(initial=math.inf, where=a > 0.0))
    top = math.frexp(big)[1]
    low = max(math.frexp(small)[1] - 53, _MIN_EXP)
    total = 0
    r = x
    g = top - _LIMB_BITS
    while g > low:
        s = max(g - _GRID_MAX, 0)
        c = 1.5 * 2.0 ** (g - s + 52)
        y = r * 2.0**-s if s else r
        hi = y + c
        hi -= c
        total += _units(float(hi.sum()), s)
        if s:
            r = np.where(hi == 0.0, r, (y - hi) * 2.0**s)
        elif r is x:
            r = x - hi
        else:
            r -= hi
        g -= _LIMB_BITS
    return total + _units(float(r.sum()), 0)


def _units(v: float, s: int) -> int:
    """v * 2^s in units of 2^-1074, for a v that is a multiple of 2^(-1074 - s)."""
    num, den = v.as_integer_ratio()
    return num << (s - _MIN_EXP + 1 - den.bit_length())


def _exact_sum(x) -> float:
    """The bits of ``math.fsum(x)`` at numpy speed.

    The finite float64 values are summed exactly in integers and rounded
    once, half to even.  Non-finite values raise ``ValueError``, and a sum
    beyond the double range ``OverflowError``.  A sum of zeros is +0.0, as
    ``math.fsum`` gives.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    total = sum(_chunk_sum(x[lo : lo + _CHUNK]) for lo in range(0, x.size, _CHUNK))
    return total / (1 << -_MIN_EXP)  # int true division rounds half to even


def _split_chunks(work, count: int) -> list:
    """[work(i) for i in range(count)], run on two CPUs when a second is ours.

    The calling thread runs the lower half of the indices and one helper
    thread the upper half, joined before this returns; numpy's loops release
    the GIL, so the halves overlap.  An exception raised in the helper is
    raised here after the join.  ``work`` must touch only numpy and private
    helpers of this module, and each index only its own output.
    """
    # on one CPU the two halves only take turns: shifted_points and weyl_sum
    # over 10^6 points ran 8-14% slower split than serial, pinned to one
    # core of a 2-core VM
    if count < 2 or not constants._second_cpu():
        return [work(i) for i in range(count)]
    half = (count + 1) // 2
    upper, failed = [], []

    def run():
        try:
            upper.extend(work(i) for i in range(half, count))
        except BaseException as exc:
            failed.append(exc)

    helper = threading.Thread(target=run, name="spectra-chunks")
    helper.start()
    try:
        lower = [work(i) for i in range(half)]
    finally:
        helper.join()
    if failed:
        raise failed[0]
    return lower + upper


# Working set of the stats kernels (shifted_points, weyl_sum, star_discrepancy,
# block_frequency): beside the digit prefix, the point array (which the reports
# sort in place; star_discrepancy sorts a copy) and the count tables, every
# temporary is O(max(_CHUNK, b^k)) elements.  Points go _CHUNK a pass;
# block_frequency goes max(_CHUNK, b^k_max) windows a pass, so a count table is
# not re-added every _CHUNK windows.
def weyl_sum(pts: PointSet, m_list: Sequence[int]) -> WeylReport:
    """Normalized magnitudes |sum e(2 pi i m u_n)| / N for each frequency m != 0.

    Both sums are exactly rounded (the bits of math.fsum, see _exact_sum);
    the reported error bound folds in the propagated point error 2 pi |m| eps.
    """
    n = len(pts)
    if n < 1:
        raise ValueError("point set is empty")
    check_weyl_terms(n, len(m_list))
    ms = list(m_list)
    if 0 in ms:
        raise ValueError("frequency m = 0 is not admissible")
    points = pts.points

    def chunk(i):
        u = points[i * _CHUNK : (i + 1) * _CHUNK]
        return [(_chunk_sum(np.cos(phase)), _chunk_sum(np.sin(phase)))
                for phase in (2.0 * math.pi * m * u for m in ms)]

    chunks = _split_chunks(chunk, -(-n // _CHUNK))
    rows = []
    unit = 1 << -_MIN_EXP
    for j, m in enumerate(ms):
        re = sum(part[j][0] for part in chunks)
        im = sum(part[j][1] for part in chunks)
        mag = math.hypot(re / unit, im / unit) / n
        err = 2.0 * math.pi * abs(m) * pts.eps + _FLOAT_SLOP
        rows.append(WeylRow(m=m, magnitude=mag, error_bound=err))
    return WeylReport(n_points=n, label=pts.label, rows=tuple(rows))


def star_discrepancy(pts: PointSet) -> float:
    """Exact 1-D star discrepancy D*_N via the sorted-points formula
    max_i max(i/N - u_(i), u_(i) - (i-1)/N), taken _CHUNK points a pass."""
    if len(pts) < 1:
        raise ValueError("point set is empty")
    return _sorted_discrepancy(np.sort(pts.points))


def _sorted_discrepancy(u: np.ndarray) -> float:
    """star_discrepancy of the points ``u``, given in ascending order."""
    n = len(u)
    worst = -math.inf
    for lo in range(0, n, _CHUNK):
        v = u[lo : lo + _CHUNK]
        i = np.arange(lo + 1, lo + v.size + 1, dtype=np.float64)
        above = i / n
        above -= v
        i -= 1.0  # exact: every i is an integer below 2^53
        i /= n
        below = np.subtract(v, i, out=i)
        worst = max(worst, float(np.maximum(above, below, out=above).max()))
    return worst


def block_frequency(digits: DigitStream, n_digits: int, k_max: int) -> BlockTable:
    """Overlapping block counts of every length k = 1..k_max over the first
    ``n_digits`` digits, from one pass that extends each window by a digit,
    over slices of max(_CHUNK, base^k_max) windows.

    All base^k patterns enter max_abs_dev and the chi-square statistic, seen
    or not; a table of more than _TABLE_CAP patterns asks for a smaller block length.
    """
    b = digits.base
    if k_max < 1:
        raise ValueError("block length must be >= 1")
    if n_digits < k_max:
        raise ValueError("need at least one full window: n_digits >= block length")
    if b**k_max > _TABLE_CAP:
        raise TableCapError(
            f"base^k = {b**k_max} exceeds the table cap {_TABLE_CAP}; use a smaller block length"
        )
    arr = np.frombuffer(digits.prefix(n_digits), np.uint8)
    tables = [np.zeros(b**k, dtype=np.int64) for k in range(1, k_max + 1)]
    # a slice holds at least b^k_max windows, so adding its bincount to a
    # table costs no more than counting them
    step = max(_CHUNK, b**k_max)
    for lo in range(0, n_digits, step):
        # the windows that start at lo .. lo+step-1; the last slice holds fewer
        seg = arr[lo : lo + step + k_max - 1]
        for table, code in zip(tables, _digit_windows(seg, k_max, b)):
            table += np.bincount(code[:step], minlength=table.size)
    lengths = []
    for k, counts in enumerate(tables, start=1):
        n_patterns = b**k
        windows = n_digits - k + 1
        expected = windows / n_patterns
        lengths.append(BlockStats(
            base=b, block_len=k, windows=windows, table=counts,
            max_abs_dev=float(np.abs(counts / windows - 1.0 / n_patterns).max()),
            chi_square=float(((counts - expected) ** 2 / expected).sum()), dof=n_patterns - 1,
        ))
    return BlockTable(tuple(lengths))


def check_weyl_terms(n_points: int, m_count: int) -> None:
    """Raise ValueError for more than WEYL_TERMS_MAX Weyl terms, a frequency
    counting max(n_points, _CHUNK).  Callers run it before they read or
    build the points or the frequencies."""
    terms = m_count * max(n_points, _CHUNK)
    if terms > WEYL_TERMS_MAX:
        raise ValueError(f"{m_count} frequencies over {n_points} points make {terms} Weyl terms, "
                         f"past WEYL_TERMS_MAX = {WEYL_TERMS_MAX} (about 64 ns a term)")


def check_expsum_p(p: int) -> None:
    """Raise ValueError for a p above EXPSUM_P_MAX, whose length-p transform
    would not fit in memory.  Callers run it before they build anything of
    size p or #H."""
    if p > EXPSUM_P_MAX:
        raise ValueError(f"p = {p} exceeds EXPSUM_P_MAX = {EXPSUM_P_MAX}: "
                         "the length-p FFT needs about 144 bytes per unit of p")


@functools.cache
def _glibc_malloc():
    """The C library's mallopt and malloc_trim, through ctypes."""
    import ctypes

    libc = ctypes.CDLL(None)
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    libc.malloc_trim.argtypes = (ctypes.c_size_t,)
    libc.malloc_trim.restype = ctypes.c_int
    return libc


def _malloc_policy_is_ours() -> bool:
    """True on glibc when the environment sets none of its malloc settings."""
    try:
        version = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):  # no confstr, or a C library without the name
        return False
    return version.startswith("glibc") and not any(name in os.environ for name in _GLIBC_MALLOC_ENV)


@contextlib.contextmanager
def _reused_heap():
    """Serve every allocation inside the block from glibc's main heap.

    At a prime p pocketfft transforms by Bluestein's algorithm, through
    buffers of up to ~128 MB at p = 4 004 023.  glibc maps each one fresh and
    unmaps it on free, so one transform there took about 221 000 minor page
    faults and 0.4-0.6 s of system time.  With mmap off and a 1 GiB trim
    threshold the buffers reuse each other's pages: about 127 000 faults, the
    transform's own ~500 MiB touched once, and 0.2-0.3 s.  On exit glibc's
    default mmap count and trim threshold come back and malloc_trim returns
    the heap to the system.  One effect lasts: after any mallopt glibc no
    longer moves its mmap threshold with the sizes freed.

    Off glibc, or when the environment sets a glibc malloc policy, the block
    runs unchanged.
    """
    if not _malloc_policy_is_ours():
        yield
        return
    libc = _glibc_malloc()
    try:
        libc.mallopt(_M_MMAP_MAX, 0)
        libc.mallopt(_M_TRIM_THRESHOLD, 1 << 30)
        yield
    finally:
        libc.mallopt(_M_MMAP_MAX, _DEFAULT_MMAP_MAX)
        libc.mallopt(_M_TRIM_THRESHOLD, _DEFAULT_TRIM_THRESHOLD)
        libc.malloc_trim(0)


def expsum_magnitudes(elements: Sequence[int], p: int) -> np.ndarray:
    """|sum_{x in H} e(2 pi i a x / p)| for every a = 0..p-1, as the DFT of
    the indicator vector of H.  The tests hold it to 1e-9 of a direct sum.
    A p above EXPSUM_P_MAX raises ValueError before anything is allocated."""
    check_expsum_p(p)
    # One complex128 array, transformed in place: pocketfft makes no complex copy
    # of a float64 input and no separate output.  The c2c transform sees the
    # same values, so every magnitude keeps its bits.
    s = np.zeros(p, dtype=np.complex128)
    np.add.at(s.real, np.asarray(elements, dtype=np.int64) % p, 1.0)
    with _reused_heap():
        np.fft.fft(s, out=s)
    return np.abs(s)


def subgroup_expsum(report: SubgroupReport, c: float = 0.5) -> ExpSumReport:
    """Exhaustive max over a = 1..p-1 of the subgroup exponential sum magnitude,
    with the reference envelope exp(-(log p)^c) * #H and their ratio.  argmax is
    the least a in 1..p-1 that reaches the largest magnitude the FFT returns:
    |S(a h)| = |S(a)| for every h in H and |S(-a)| = |S(a)|, so in exact
    arithmetic every member of a maximal coset a H and of its mirror -a H
    ties, and the FFT's rounding picks the member."""
    p = report.modulus
    if not primes.is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    if report.elements is None:
        raise ValueError("subgroup elements are not materialized; raise the element cap")
    if not (0 < c < math.inf):
        raise ValueError(f"c must be positive and finite, got {c}")
    try:
        envelope = math.exp(-((math.log(p)) ** c))
    except OverflowError:
        envelope = 0.0
    if envelope < sys.float_info.min:  # 0 or subnormal: the ratio would divide by zero or overflow
        raise ValueError(f"c = {c} underflows the envelope exp(-(log p)^c) * #H at p = {p}")
    mags = expsum_magnitudes(report.elements, p)
    a_max = int(np.argmax(mags[1:]) + 1)
    max_mag = float(mags[a_max])
    bound = envelope * report.order
    return ExpSumReport(
        modulus=p, generator=report.generator, subgroup_order=report.order,
        c=c, max_magnitude=max_mag, argmax=a_max, bound=bound, ratio=max_mag / bound,
    )


def parseval_sum(elements: Sequence[int], p: int) -> tuple[float, int]:
    """(sum_a |S(a)|^2, p * #H): the two sides of the Parseval identity."""
    mags = expsum_magnitudes(elements, p)
    return float(np.sum(mags * mags)), p * len(elements)


def _digit_windows(d: np.ndarray, width: int, b: int) -> Iterator[np.ndarray]:
    """The int64 codes of the k-digit windows d[n:n+k] for k = 1..width in turn.

    code_k = code_{k-1}[:-1] * b + d[k-1:] updates one buffer in place, so
    each array is valid only until the next one is drawn.
    """
    code = d.astype(np.int64)
    yield code
    for k in range(2, width + 1):
        code = code[:-1]
        code *= b
        code += d[k - 1 :]
        yield code


def _window_values(seg: np.ndarray, count: int, b: int, s: int) -> np.ndarray:
    """c / b^s rounded to the nearest double, for the codes c of the ``count``
    s-digit windows ``seg[n:n+s]``, with the bits of Python's ``c / b**s``.

    Each code is k int64 limbs of h digits (b^h <= 2^40, the last limb
    zero-padded), a k-place fraction in radix b^h.  Three long-division steps
    of 23 quotient bits give its truncation T to 69 bits and a sticky bit for
    a nonzero rest.  One float addition rounds T; a FastTwoSum residual finds
    the only case where the rest matters, a T exactly on a tie.  From 2^-14 up
    every midpoint between doubles is a multiple of 2^-69, so this is exact;
    smaller nonzero values are divided exactly one by one.
    """
    h = 1
    while b ** (h + 1) <= _LIMB_MAX:
        h += 1
    radix = b**h
    whole, part = divmod(s, h)
    limbs = []
    if whole:
        *_, full = _digit_windows(seg[: count + whole * h - 1], h, b)
        limbs = [full[i * h : i * h + count] for i in range(whole)]
    if part:
        *_, rest = _digit_windows(seg[whole * h :], part, b)
        rest *= b ** (h - part)
        limbs.append(rest)
    k = len(limbs)
    # the long division writes into t and k rests, which every step reuses;
    # each step's last carry is its quotient chunk
    t = np.empty(count, dtype=np.int64)
    rem = [np.empty(count, dtype=np.int64) for _ in range(k)]
    q = []
    src = limbs
    for _ in range(3):
        carry = np.empty(count, dtype=np.int64)
        for i in reversed(range(k)):
            np.left_shift(src[i], _QBITS, out=t)
            if i < k - 1:
                t += carry
            np.floor_divide(t, radix, out=carry)
            np.multiply(carry, radix, out=rem[i])
            np.subtract(t, rem[i], out=rem[i])
        q.append(carry)
        src = rem
    sticky = rem[0] != 0
    for i in range(1, k):
        sticky |= rem[i] != 0
    del t, rem, src  # free the division's buffers before the float ones
    tiny = q[0] < _TINY_Q0  # before q[0] is shifted in place
    top = q[0]
    top <<= _QBITS
    top |= q[1]
    head = top.astype(np.float64)
    head *= 2.0 ** (-2 * _QBITS)
    tail = q[2].astype(np.float64)
    tail *= 2.0 ** (-3 * _QBITS)
    del q, top, carry
    val = head + tail
    gap = np.subtract(val, head, out=head)
    resid = np.subtract(tail, gap, out=tail)  # exact where kept: head >= 2^-14 > tail
    up = np.nextafter(val, 2.0)
    resid += resid
    tie = resid == np.subtract(up, val, out=gap)  # resid is half an ulp
    tie &= resid > 0.0
    tie &= sticky
    np.copyto(val, up, where=tie)
    scale = radix**k
    for n in np.flatnonzero(tiny & ((val != 0.0) | sticky)).tolist():
        code = 0
        for limb in limbs:
            code = code * radix + int(limb[n])
        val[n] = code / scale
    return val


def shifted_points(digits: DigitStream, n_points: int, shift_digits: int = 24) -> PointSet:
    """The point set { x * b^n mod 1 : n = 1..N } built from exact digit shifts.

    Each point is the shift's ``shift_digits``-digit truncation c_n / b^S,
    rounded once to the nearest double (the bits of ``c_n / b**S``), so the
    certified error is b^-shift_digits plus float conversion.  A truncation
    that rounds to 1.0 lies in [1 - 2^-54, 1) and is clamped to 1 - 2^-53, as
    in PointSet.from_fractions.  The clamp moves it by less than 2^-53, and
    the 2e-16 term of ``eps``, which otherwise covers the rounding's 2^-54,
    covers that too.
    """
    if n_points < 1:
        raise ValueError("need at least one point")
    if shift_digits < 1:
        raise ValueError("need shift_digits >= 1")
    b = digits.base
    digs = np.frombuffer(digits.prefix(n_points + shift_digits), np.uint8)
    pts = np.empty(n_points, dtype=np.float64)

    def chunk(i):
        lo = i * _CHUNK
        count = min(_CHUNK, n_points - lo)
        # points n = lo+1 .. lo+count read the digits n .. n+S-1
        seg = digs[lo + 1 : lo + count + shift_digits]
        pts[lo : lo + count] = _window_values(seg, count, b, shift_digits)

    _split_chunks(chunk, -(-n_points // _CHUNK))
    np.minimum(pts, math.nextafter(1.0, 0.0), out=pts)
    pts.flags.writeable = False
    eps = 1.0 / b**shift_digits + 2e-16
    label = digits.label and f"{digits.label}-shifts"
    return PointSet(points=pts, eps=eps, label=label)


def wall_criterion_report(digits: DigitStream, n_points: int, k_max: int, m_max: int) -> dict:
    """Both sides of the base-b normality equivalence in one report.

    Builds the shift point set { x b^n mod 1 } from 24-digit shifts (the
    shifted_points default), runs Weyl magnitudes for m = 1..m_max and the
    star discrepancy, and tabulates block frequencies for k = 1..k_max over
    the same digits.
    """
    if k_max < 1 or m_max < 1:
        raise ValueError("k_max and m_max must be >= 1")
    if n_points < 10 * k_max:
        raise ValueError("need n_points >= 10 * k_max for meaningful block statistics")
    if not any(digits.prefix(n_points)):
        raise ValueError("degenerate stream: all digits are zero")
    report = _equidistribution(shifted_points(digits, n_points), range(1, m_max + 1))
    blocks = block_frequency(digits, n_points, k_max)
    report.update(label=digits.label, base=digits.base,
                  blocks={str(stats.block_len): stats.row() for stats in blocks.lengths})
    return report


def x_sequence_audit(n_max: int) -> dict:
    """Weyl magnitudes (m = 1..5) and discrepancy for the fractional parts of
    n*ln(10) + ln(pi), n = 1..n_max, each within 10^-30."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    precision = 30
    xs = constants.x_sequence(n_max, precision=precision)
    fracs = [fractional_part(x, precision) for x in xs]
    report = _equidistribution(PointSet.from_fractions(fracs, eps=10.0**-precision), range(1, 6))
    report.update(label="log-lattice", precision=precision)
    return report


def _equidistribution(pts: PointSet, m_list: Sequence[int]) -> dict:
    """The report fields of a point set a report built for itself: its size,
    eps, Weyl rows for ``m_list`` and star discrepancy.  The Weyl sums are
    exact, so they do not depend on the order of the points, and D* is then
    taken from the set's own array, sorted in place: no N-length copy."""
    weyl = weyl_sum(pts, m_list)
    u = pts.points
    u.flags.writeable = True  # the set was built by the caller and dies with this call
    u.sort()
    return {"n_points": len(pts), "point_eps": pts.eps,
            "weyl": [row._asdict() for row in weyl.rows], "star_discrepancy": _sorted_discrepancy(u)}

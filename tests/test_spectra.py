import cmath
import ctypes
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilab import cli, constants, spectra
from pilab.constructors import ConcatSpec, concat_digits
from pilab.groups import subgroup
from pilab.radix import DigitStream
from pilab.spectra import (
    PointSet,
    TableCapError,
    block_frequency,
    expsum_magnitudes,
    parseval_sum,
    shifted_points,
    star_discrepancy,
    subgroup_expsum,
    wall_criterion_report,
    weyl_sum,
    x_sequence_audit,
)
from pilab.spectra import _exact_sum

GOLDEN = (1 + 5**0.5) / 2


def golden_points(n):
    return PointSet(points=tuple((k * GOLDEN) % 1.0 for k in range(1, n + 1)),
                    eps=1e-12, label="golden")


def test_weyl_full_period_lattice_vanishes():
    q = 101
    pts = PointSet(points=tuple((n % q) / q for n in range(1, q + 1)), eps=0.0, label="lattice")
    report = weyl_sum(pts, [1, 2, 3])
    for row in report.rows:
        assert row.magnitude < 1e-13


def test_weyl_constant_sequence_is_maximal():
    pts = PointSet(points=(0.5,) * 64, eps=0.0, label="const")
    report = weyl_sum(pts, [1])
    assert report.rows[0].magnitude == pytest.approx(1.0, abs=1e-12)


def test_weyl_golden_rotation_small():
    report = weyl_sum(golden_points(10**4), [1])
    assert report.rows[0].magnitude < 2e-4  # bounded-remainder rotation


def test_weyl_rejects_zero_frequency():
    with pytest.raises(ValueError):
        weyl_sum(golden_points(10), [0])


@pytest.mark.parametrize("n, m_max", [(1, 10**12), (10**6, spectra.WEYL_TERMS_MAX // 10**6 + 1)])
def test_weyl_refuses_terms_past_the_ceiling_before_listing_frequencies(n, m_max):
    # a list of 10^12 frequencies would not fit in memory; the check reads
    # only the range's length
    pts = PointSet(points=np.full(n, 0.5), eps=0.0)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="past WEYL_TERMS_MAX"):
        weyl_sum(pts, range(1, m_max + 1))
    assert time.perf_counter() - start < 1


def test_weyl_terms_at_the_ceiling_pass():
    spectra.check_weyl_terms(10**6, spectra.WEYL_TERMS_MAX // 10**6)
    spectra.check_weyl_terms(1, spectra.WEYL_TERMS_MAX // spectra._CHUNK)
    with pytest.raises(ValueError):
        spectra.check_weyl_terms(1, spectra.WEYL_TERMS_MAX // spectra._CHUNK + 1)


def test_weyl_error_bound_scales_with_m():
    report = weyl_sum(golden_points(100), [1, 5])
    assert report.rows[1].error_bound > report.rows[0].error_bound


def test_star_discrepancy_single_point():
    assert star_discrepancy(PointSet(points=(0.5,), eps=0.0)) == 0.5


def test_star_discrepancy_centered_lattice():
    n = 10
    pts = PointSet(points=tuple((2 * i - 1) / (2 * n) for i in range(1, n + 1)), eps=0.0)
    assert star_discrepancy(pts) == pytest.approx(0.05, abs=1e-15)


def test_star_discrepancy_golden():
    d = star_discrepancy(golden_points(1000))
    assert d == pytest.approx(0.0013362337334979, abs=1e-12)
    assert d < 0.01


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=0.999999), min_size=1, max_size=200))
def test_star_discrepancy_leveque_bounds(values):
    pts = PointSet(points=tuple(values), eps=0.0)
    d = star_discrepancy(pts)
    assert 1.0 / (2 * len(values)) <= d <= 1.0


def _star_oracle(points) -> float:
    # the whole-array formula over N-length temporaries
    u = np.sort(np.asarray(points, dtype=np.float64))
    n = u.size
    i = np.arange(1, n + 1, dtype=np.float64)
    return float(np.maximum(i / n - u, u - (i - 1) / n).max())


@pytest.mark.parametrize("n", [1, 2, 65535, 65536, 65537, 3 * 65536 + 1])
def test_star_discrepancy_chunked_equals_whole_array_formula(n):
    rng = np.random.default_rng(n)
    special = np.array([0.0, 1.0 - 2.0**-53, 0.0, 0.25, 0.25])
    u = np.concatenate([special, rng.random(max(n - special.size, 0))])[:n]
    if n > 65536:
        # a run of duplicates across the slice edge at sorted index 2^16
        u[special.size : special.size + 1000] = np.sort(u)[65536]
        edge = np.sort(u)[65535:65537]
        assert edge[0] == edge[1]
    for points in (u, np.sort(u)[::-1], (np.arange(n) + 0.5) / n):
        want = np.float64(_star_oracle(points)).view(np.uint64)
        got = np.float64(star_discrepancy(PointSet(points=points, eps=0.0))).view(np.uint64)
        assert got == want


def _block_oracle(stream, n, k_max):
    # one bincount of every window code over the whole prefix, for each k
    b = stream.base
    d = np.frombuffer(stream.prefix(n), np.uint8).astype(np.int64)
    tables = []
    for k in range(1, k_max + 1):
        code = np.zeros(n - k + 1, dtype=np.int64)
        for j in range(k):
            code = code * b + d[j : n - k + 1 + j]
        tables.append(np.bincount(code, minlength=b**k))
    return tables


def _random_digits(base, n, seed):
    rng = np.random.default_rng(seed)
    return DigitStream.from_digits(rng.integers(0, base, n, dtype=np.uint8).tobytes(), base=base)


# a slice holds max(2^16, base^k_max) windows: these N end just before, on and
# just after slice edges, with tails shorter than k_max
@pytest.mark.parametrize("base,k_max,n", [
    (2, 16, 16), (2, 16, 65535), (2, 16, 65536), (2, 16, 65537), (2, 16, 65536 + 15),
    (2, 17, 2 * 131072 + 3),
    (10, 5, 99_999), (10, 5, 100_000), (10, 5, 100_003), (10, 5, 300_002),
    (10, 3, 3 * 65536 + 1),
    (36, 2, 65536 + 1), (36, 3, 46_656 * 2 + 2),
])
def test_block_frequency_chunked_equals_one_bincount(base, k_max, n):
    stream = _random_digits(base, n, seed=base * n + k_max)
    table = block_frequency(stream, n, k_max)
    for stats, want in zip(table.lengths, _block_oracle(stream, n, k_max), strict=True):
        assert stats.table.dtype == want.dtype
        assert np.array_equal(stats.table, want)
        assert stats.windows == int(want.sum()) == n - stats.block_len + 1


def test_block_frequency_base_36_four_digit_table():
    # 36^4 = 1 679 616 patterns, so a slice holds that many windows
    n = 2 * 36**4 + 2
    stream = _random_digits(36, n, seed=36)
    table = block_frequency(stream, n, 4)
    for stats, want in zip(table.lengths, _block_oracle(stream, n, 4), strict=True):
        assert np.array_equal(stats.table, want)
    k4 = table.lengths[-1]
    assert k4.table.size == 36**4 and int(k4.table.sum()) == n - 3


def _counts(stats):
    """A block length's counts table as reports print it: names in report order."""
    return json.loads(cli._dump(stats))


def test_blocks_constant_stream():
    s = DigitStream(10, lambda n: [3] * n, label="thirds")
    stats = block_frequency(s, 100, 1).lengths[-1]
    assert stats.windows == 100
    assert _counts(stats) == {"3": 100}
    assert stats.max_abs_dev == pytest.approx(0.9)
    assert stats.dof == 9


def test_blocks_periodic_pairs():
    digs = [0, 1] * 51
    s = DigitStream.from_digits(digs[:101], base=10)
    stats = block_frequency(s, 101, 2).lengths[-1]
    assert stats.windows == 100
    assert _counts(stats) == {"01": 50, "10": 50}


def test_blocks_count_total_invariant():
    s = concat_digits(ConcatSpec("integers"), 5000)
    for k in (1, 2, 3):
        stats = block_frequency(s, 5000, k).lengths[-1]
        assert sum(_counts(stats).values()) == 5000 - k + 1 == stats.windows


def test_blocks_binary_base():
    s = DigitStream.from_rational(Fraction(1, 3), base=2)  # 010101...
    stats = block_frequency(s, 1000, 2).lengths[-1]
    assert _counts(stats) == {"01": 500, "10": 499}


@pytest.mark.parametrize("base,k", [(2, 9), (10, 4), (16, 3), (36, 2)])
def test_block_names_match_base_repr(base, k):
    n = 20000
    stream = concat_digits(ConcatSpec("integers", base=base), n)
    text = stream.prefix_string(n)
    stats = block_frequency(stream, n, k).lengths[-1]
    codes = sorted({int(text[i : i + k], base) for i in range(n - k + 1)})
    counts = _counts(stats)
    assert list(counts) == [np.base_repr(c, base=base).rjust(k, "0").lower() for c in codes]
    assert counts == Counter(text[i : i + k] for i in range(n - k + 1))


@pytest.mark.parametrize("base,k_max", [(10, 4), (3, 7), (36, 2)])
def test_block_table_counts_every_length_from_one_pass(base, k_max):
    n = 3000
    stream = concat_digits(ConcatSpec("integers", base=base), n)
    text = stream.prefix_string(n)
    table = block_frequency(stream, n, k_max)
    assert [stats.block_len for stats in table.lengths] == list(range(1, k_max + 1))
    assert table.windows == sum(n - k + 1 for k in range(1, k_max + 1))
    for k, stats in enumerate(table.lengths, start=1):
        assert _counts(stats) == Counter(text[i : i + k] for i in range(n - k + 1))
        assert int(stats.table.sum()) == stats.windows == n - k + 1


def test_blocks_table_cap():
    s = concat_digits(ConcatSpec("integers"), 100)
    with pytest.raises(TableCapError):
        block_frequency(s, 100, 9)


def test_champernowne_digit_frequencies_at_ten_thousand():
    s = concat_digits(ConcatSpec("integers"), 10**4)
    stats = block_frequency(s, 10**4, 1).lengths[-1]
    assert stats.max_abs_dev == pytest.approx(0.0858, abs=5e-4)


def naive_expsum(elements, p):
    """|S(a)| for a = 1..p-1, summed directly in complex arithmetic."""
    return [abs(sum(cmath.exp(2j * math.pi * a * x / p) for x in elements)) for a in range(1, p)]


@pytest.mark.parametrize("p", [7, 31, 101])
def test_full_group_sum_is_minus_one(p):
    mags = expsum_magnitudes(list(range(1, p)), p)
    for a in range(1, p):
        assert mags[a] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("p", [13, 101])
def test_two_element_subgroup_maximum(p):
    # S(a) = 2 cos(2 pi a / p); |S| peaks at a ~ p/2 where the cosine nears -1
    rep_elements = [1, p - 1]
    mags = expsum_magnitudes(rep_elements, p)
    got = max(mags[1:])
    assert got == pytest.approx(2 * math.cos(math.pi / p), abs=1e-9)
    assert got < 2.0


def test_expsum_p31_subgroup_of_ten():
    rep = subgroup(10, 31)
    assert rep.order == 15
    result = subgroup_expsum(rep, c=0.5)
    assert result.max_magnitude == pytest.approx(2 * math.sqrt(2), abs=1e-9)
    assert result.bound == pytest.approx(math.exp(-math.log(31) ** 0.5) * 15, rel=1e-12)
    assert result.ratio == pytest.approx(result.max_magnitude / result.bound, rel=1e-12)


def test_expsum_indicator_matches_element_loop():
    p = 101
    elements = [0, 1, 1, 5, 100, 101, 205, -3, -101, 10**12 + 7]
    v = np.zeros(p)
    for x in elements:
        v[x % p] += 1.0
    got = expsum_magnitudes(elements, p)
    assert np.array_equal(got.view(np.uint64), np.abs(np.fft.fft(v)).view(np.uint64))


@pytest.mark.parametrize("p", [31, 1999, 65537, 1_000_039, 2_000_003])
def test_expsum_in_place_transform_matches_float64_input_bit_for_bit(p):
    # the in-place complex128 transform against the FFT of a float64 indicator;
    # at 2 000 003 Bluestein's buffers pass glibc's 32 MiB mmap threshold ceiling
    rep = subgroup(10, p, element_cap=p)
    v = np.zeros(p)
    np.add.at(v, np.asarray(rep.elements, dtype=np.int64), 1.0)
    want = np.abs(np.fft.fft(v))
    got = expsum_magnitudes(rep.elements, p)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    result = subgroup_expsum(rep)
    a_max = int(np.argmax(want[1:]) + 1)
    assert result.argmax == a_max
    assert result.max_magnitude.hex() == float(want[a_max]).hex()


@pytest.mark.parametrize("p, want", [(13, 6), (31, 15), (101, 51)])
def test_expsum_argmax_is_least_a_reaching_the_fft_maximum(p, want):
    # H = {1, p-1}: |S(a)| = |2 cos(2 pi a / p)| peaks at the mirrors (p-1)/2 and
    # (p+1)/2.  At 13 and 31 the FFT gives both the same float and the lesser
    # wins; at 101 its rounding puts (p+1)/2 one ulp higher.
    rep = subgroup(p - 1, p)
    assert rep.elements == (1, p - 1)
    mags = expsum_magnitudes(rep.elements, p)
    top = mags[1:].max()
    result = subgroup_expsum(rep)
    assert result.argmax == want == min(a for a in range(1, p) if mags[a] == top)
    assert result.max_magnitude == top


def _child_peak_rise(setup: str, call: str) -> int:
    """How far a fresh interpreter's peak RSS rises, in bytes, over ``call``
    after ``setup`` has run.

    ru_maxrss would carry the spawning process's peak across exec on Linux,
    so the child reads its own high-water mark, VmHWM, before and after.
    """
    code = (
        "import re\n"
        f"{setup}\n"
        "def hwm():\n"
        "    with open('/proc/self/status') as f:\n"
        "        status = f.read()\n"
        "    return int(re.search(r'VmHWM:\\s+(\\d+) kB', status).group(1)) * 1024\n"
        "before = hwm()\n"
        f"{call}\n"
        "print(hwm() - before)\n"
    )
    src = str(Path(spectra.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return int(result.stdout)


needs_vmhwm = pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")


@needs_vmhwm
def test_expsum_peak_memory_per_unit_of_p():
    p = 1_000_003
    rise = _child_peak_rise("from pilab.spectra import expsum_magnitudes\n"
                            "expsum_magnitudes([1], 31)",
                            f"expsum_magnitudes(list(range(1, 200)), {p})")
    # the in-place transform rises ~144 bytes per unit of p here, a float64
    # indicator cast to complex128 with a separate output ~160
    assert rise / p < 150


needs_mallinfo2 = pytest.mark.skipif(  # mallinfo2 is glibc's, from 2.33
    not (sys.platform == "linux" and hasattr(ctypes.CDLL(None), "mallinfo2")),
    reason="reads glibc's mallinfo2 and VmRSS from /proc")


def _malloc_child(call: str, **env: str) -> dict:
    """The JSON object a fresh interpreter prints after ``call``, with ``env``
    added to an environment cleared of glibc's malloc settings.

    ``call`` may use: minflt(), the process's minor page faults so far;
    rss(), its resident set in bytes; and mmapped_64mib(), the number of
    chunks glibc maps to serve a new 64 MiB array, 1 while mmap is on.
    """
    code = (
        "import ctypes, json, re, resource\n"
        "import numpy as np\n"
        "from pilab import spectra\n"
        "class Mallinfo2(ctypes.Structure):\n"
        "    _fields_ = [(name, ctypes.c_size_t) for name in ('arena', 'ordblks', 'smblks', 'hblks',\n"
        "                'hblkhd', 'usmblks', 'fsmblks', 'uordblks', 'fordblks', 'keepcost')]\n"
        "libc = ctypes.CDLL(None)\n"
        "libc.mallinfo2.restype = Mallinfo2\n"
        "def minflt():\n"
        "    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "def rss():\n"
        "    with open('/proc/self/status') as f:\n"
        "        status = f.read()\n"
        "    return int(re.search(r'VmRSS:\\s+(\\d+) kB', status).group(1)) * 1024\n"
        "def mmapped_64mib():\n"
        "    before = libc.mallinfo2().hblks\n"
        "    a = np.ones(8 << 20)\n"
        "    return libc.mallinfo2().hblks - before\n"
        "spectra.expsum_magnitudes([1], 31)\n"
        f"{call}\n"
    )
    clean = {k: v for k, v in os.environ.items() if k not in spectra._GLIBC_MALLOC_ENV}
    src = str(Path(spectra.__file__).parents[1])
    result = subprocess.run([sys.executable, "-c", code], env={**clean, **env, "PYTHONPATH": src},
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


@needs_mallinfo2
def test_expsum_bluestein_buffers_reuse_one_heap():
    # Bluestein buffers of ~64 MB each: mapped fresh and unmapped on free they
    # took ~110 500 minor faults here, reusing one heap ~63 700
    call = ("rss0, faults0 = rss(), minflt()\n"
            "spectra.expsum_magnitudes(list(range(1, 200)), 2_000_003)\n"
            "print(json.dumps({'faults': minflt() - faults0, 'rss_rise': rss() - rss0,\n"
            "                  'mmapped': mmapped_64mib()}))")
    reused = _malloc_child(call)
    mapped = _malloc_child(call, MALLOC_MMAP_MAX_="65536")
    assert reused["faults"] < 0.75 * mapped["faults"]
    for run in (reused, mapped):
        assert run["rss_rise"] < 8 << 20  # the heap went back to the system
        assert run["mmapped"] == 1  # and glibc's mmap is on again


@needs_mallinfo2
def test_expsum_restores_malloc_defaults_when_the_transform_raises():
    call = ("def fft(*args, **kwargs):\n"
            "    raise MemoryError\n"
            "np.fft.fft = fft\n"
            "try:\n"
            "    spectra.expsum_magnitudes([1], 1999)\n"
            "except MemoryError:\n"
            "    print(json.dumps({'mmapped': mmapped_64mib()}))")
    assert _malloc_child(call) == {"mmapped": 1}


def _forbid_mallopt():
    raise AssertionError("mallopt called")


@pytest.mark.parametrize("name", spectra._GLIBC_MALLOC_ENV)
def test_expsum_leaves_a_malloc_policy_from_the_environment_alone(monkeypatch, name):
    monkeypatch.setenv(name, "65536")
    monkeypatch.setattr(spectra, "_glibc_malloc", _forbid_mallopt)
    got = expsum_magnitudes([1, 2, 4], 7)
    assert np.array_equal(got, np.abs(np.fft.fft([0, 1, 1, 0, 1, 0, 0])))


def _confstr_unknown(name):
    raise OSError(22, "Invalid argument")  # a C library without the name


@pytest.mark.parametrize("confstr", [None, _confstr_unknown])
def test_expsum_calls_no_mallopt_off_glibc(monkeypatch, confstr):
    if confstr is None:
        monkeypatch.delattr(os, "confstr")
    else:
        monkeypatch.setattr(os, "confstr", confstr)
    monkeypatch.setattr(spectra, "_glibc_malloc", _forbid_mallopt)
    got = expsum_magnitudes([1, 2, 4], 7)
    assert np.array_equal(got, np.abs(np.fft.fft([0, 1, 1, 0, 1, 0, 0])))


@needs_vmhwm
def test_wall_report_peak_memory_per_point():
    # the digits are made with little garbage, so the high-water mark before
    # the call is close to the resident set
    n = 10**6
    rise = _child_peak_rise(
        "import numpy as np\n"
        "from pilab.radix import DigitStream\n"
        "from pilab.spectra import wall_criterion_report\n"
        f"digits = np.random.default_rng(5).integers(0, 10, {n + 24}, dtype=np.uint8).tobytes()\n"
        "stream = DigitStream.from_digits(digits)\n"
        "wall_criterion_report(stream, 1000, 4, 5)",
        f"wall_criterion_report(stream, {n}, 4, 5)")
    # the points take 8 bytes a point, sorted in place for D*, and every other
    # temporary is chunk-sized: ~15 here; a sorted copy of the points took
    # ~20, and N-length discrepancy temporaries and window codes ~52
    assert rise / n < 17.5


def test_expsum_fft_matches_naive():
    for p in (31, 97, 113):
        rep = subgroup(10, p)
        fft = expsum_magnitudes(rep.elements, p)[1:]
        assert np.abs(fft - naive_expsum(rep.elements, p)).max() < 1e-9
        assert subgroup_expsum(rep).max_magnitude == fft.max()


def test_expsum_rejects_composite_and_missing_elements():
    rep = subgroup(10, 31, element_cap=0)
    with pytest.raises(ValueError):
        subgroup_expsum(rep)
    with pytest.raises(ValueError):
        subgroup_expsum(subgroup(10, 49))
    with pytest.raises(ValueError):
        subgroup_expsum(subgroup(10, 31), c=0.0)


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
def test_expsum_rejects_non_finite_c(c):
    with pytest.raises(ValueError, match="c must be positive and finite"):
        subgroup_expsum(subgroup(10, 31), c=c)


@pytest.mark.parametrize("c", [6.0, 1e3, 1e300])
def test_expsum_rejects_an_envelope_that_underflows(c):
    # (log 31)^6 ~ 1.6e3, so exp(-(log p)^c) is 0; from c ~ 200 the power itself overflows
    with pytest.raises(ValueError, match=re.escape(f"c = {c} ")):
        subgroup_expsum(subgroup(10, 31), c=c)


def test_parseval_identity_all_primes_to_thousand():
    from pilab import primes

    for p in primes.primes_upto(1000).tolist():
        if p in (2, 5):
            continue
        rep = subgroup(10, p)
        lhs, rhs = parseval_sum(rep.elements, p)
        assert abs(lhs - rhs) / rhs < 1e-6


def test_shifted_points_match_truncation():
    # the vectorized point set must agree with direct per-shift truncation:
    # exactly at the rational level, and to float resolution after conversion
    import random

    s = concat_digits(ConcatSpec("integers"), 1100)
    pts = shifted_points(s, 1000, shift_digits=20)
    rng = random.Random(7799)
    for n in rng.sample(range(1, 1001), 100):
        window = Fraction(int(s.prefix_string(n + 20)[n:]), 10**20)
        recomputed = (Fraction(int(s.prefix_string(n + 20)), 10 ** (n + 20)) * 10**n) % 1
        assert window == recomputed  # b^-20 truncations agree exactly
        assert abs(pts.points[n - 1] - float(window)) < 1e-15


def test_wall_report_periodic_sevenths():
    s = DigitStream.from_rational(Fraction(1, 7), label="one-seventh")
    report = wall_criterion_report(s, 700, k_max=2, m_max=3)
    # a 6-periodic orbit cannot equidistribute: some Weyl magnitude stays large
    assert max(row["magnitude"] for row in report["weyl"]) > 0.1
    assert report["blocks"]["1"]["max_abs_dev"] >= 0.09
    assert report["star_discrepancy"] > 0.05


def test_wall_report_champernowne():
    s = concat_digits(ConcatSpec("integers"), 10**4 + 30)
    report = wall_criterion_report(s, 10**4, k_max=2, m_max=3)
    assert report["weyl"][0]["magnitude"] == pytest.approx(0.17128, abs=5e-3)
    assert report["star_discrepancy"] == pytest.approx(0.13266, abs=5e-3)
    assert report["blocks"]["1"]["max_abs_dev"] < 0.1
    assert report["n_points"] == 10**4


def test_wall_report_rejects_degenerate_stream():
    s = DigitStream(10, lambda n: [0] * n, label="zeros")
    with pytest.raises(ValueError):
        wall_criterion_report(s, 100, k_max=1, m_max=1)


def test_wall_report_requires_enough_windows():
    s = concat_digits(ConcatSpec("integers"), 100)
    with pytest.raises(ValueError):
        wall_criterion_report(s, 50, k_max=10, m_max=1)


def test_x_sequence_audit_small_magnitudes():
    report = x_sequence_audit(1000)
    for row in report["weyl"]:
        assert row["magnitude"] < 0.05
    assert report["star_discrepancy"] < 0.01


def test_x_sequence_audit_single_point():
    report = x_sequence_audit(1)
    u1 = 0.4473149788434458
    assert report["star_discrepancy"] == pytest.approx(max(u1, 1 - u1), abs=1e-12)


def test_point_set_validates_range():
    with pytest.raises(ValueError):
        PointSet(points=(0.5, 1.0), eps=0.0)
    with pytest.raises(ValueError):
        PointSet(points=(-0.1,), eps=0.0)


def _oracle_points(stream, n_points, s):
    # the scalar definition: the s-digit window after n digits, over b^s, one rounding
    b = stream.base
    text = stream.prefix_string(n_points + s)
    return [int(text[n : n + s], b) / b**s for n in range(1, n_points + 1)]


def _random_stream(base, length, seed, zero_runs=False):
    import random

    rng = random.Random(seed)
    digs = [rng.randrange(base) for _ in range(length)]
    if zero_runs:
        for start in range(0, length, 400):
            digs[start : start + 90] = [0] * len(digs[start : start + 90])
            digs[start + 30 + start % 7] = 1  # a lone nonzero digit deep in the run
    return DigitStream.from_digits(digs, base=base)


def _hexes(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("base", [2, 10, 16, 36])
@pytest.mark.parametrize("shift", [1, 20, 24, 30])
def test_shifted_points_bit_identical_to_scalar_division(base, shift):
    s = _random_stream(base, 1500 + shift, seed=base * 100 + shift)
    pts = shifted_points(s, 1500, shift_digits=shift)
    assert _hexes(pts.points) == _hexes(_oracle_points(s, 1500, shift))


@pytest.mark.parametrize("base", [2, 10, 36])
def test_shifted_points_zero_runs_bit_identical(base):
    s = _random_stream(base, 4100, seed=base, zero_runs=True)
    pts = shifted_points(s, 4000, shift_digits=24)
    ref = _oracle_points(s, 4000, 24)
    assert sum(0.0 < u < 2.0**-14 for u in ref) >= 20  # lanes below the vector path's range
    assert ref.count(0.0) >= 20
    assert _hexes(pts.points) == _hexes(ref)


@pytest.mark.parametrize("base,shift", [(2, 80), (10, 24), (10, 30), (16, 20), (36, 14)])
def test_shifted_points_ties_with_nonzero_tail(base, shift):
    # windows just above a midpoint (2m+1) 2^-(54+j) between doubles, by less
    # than 2^-69: their 69-bit truncation is exactly the tie, the rest is not
    # zero, so the value rounds up, also for even m where the tie alone rounds down
    import random

    rng = random.Random(base + shift)
    digs, lanes = [], []
    for j in list(range(14)) + [15, 20]:
        for parity in (0, 1):
            m = 2 * rng.randrange(2**51, 2**52) + parity  # 2m+1 in [2^53, 2^54)
            code = (2 * m + 1) * base**shift // 2 ** (54 + j) + 1
            window = []
            for _ in range(shift):
                code, d = divmod(code, base)
                window.append(d)
            assert code == 0
            lanes.append((len(digs), m, j))
            digs += [rng.randrange(base)] + window[::-1]
    s = DigitStream.from_digits(digs + [0] * shift, base=base)
    ref = _oracle_points(s, len(digs), shift)
    for n, m, j in lanes:
        if j < 14:
            assert ref[n] == math.ldexp(m + 1, -(53 + j))
    pts = shifted_points(s, len(digs), shift_digits=shift)
    assert _hexes(pts.points) == _hexes(ref)


def test_shifted_points_benchmark_stream_bit_identical():
    # every point of `report --in` over the integers family at N = 10^6
    n_points = 10**6
    s = concat_digits(ConcatSpec("integers"), n_points + 24)
    pts = shifted_points(s, n_points)
    ref = np.array(_oracle_points(s, n_points, 24))
    assert np.array_equal(pts.points.view(np.uint64), ref.view(np.uint64))  # bit for bit


def test_shifted_points_clamp_windows_that_round_to_one():
    # windows of 17 or more leading nines round to 1.0; they are clamped
    # below 1 and stay within eps of the exact window value
    s = DigitStream.from_digits([1, 2] + [9] * 30 + [3] * 40)
    pts = shifted_points(s, 40, shift_digits=20)
    ref = _oracle_points(s, 40, 20)
    below_one = math.nextafter(1.0, 0.0)
    assert ref[1] == 1.0 and pts.points[1] == below_one
    assert _hexes(pts.points) == _hexes(min(u, below_one) for u in ref)
    digits = s.prefix(60)
    for n in range(1, 41):
        window = Fraction(int("".join(map(str, digits[n : n + 20]))), 10**20)
        assert abs(Fraction(float(pts.points[n - 1])) - window) <= pts.eps


def test_shifted_points_rejects_empty_window():
    s = concat_digits(ConcatSpec("integers"), 100)
    with pytest.raises(ValueError):
        shifted_points(s, 10, shift_digits=0)


def test_point_set_is_read_only_float_array():
    pts = PointSet(points=[0.25, 0.5], eps=0.0)
    assert pts.points.dtype == np.float64 and not pts.points.flags.writeable
    with pytest.raises(ValueError):
        pts.points[0] = 0.75
    shifted = shifted_points(concat_digits(ConcatSpec("integers"), 200), 100)
    assert not shifted.points.flags.writeable


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1.0, -1e-300, 1.5])
def test_point_set_rejects_non_finite_and_out_of_range(bad):
    with pytest.raises(ValueError):
        PointSet(points=(0.5, bad, 0.25), eps=0.0)
    with pytest.raises(ValueError):
        PointSet(points=np.array([bad]), eps=0.0)


@pytest.mark.parametrize("eps", [-1.0, -1e-300, math.nan, math.inf])
def test_point_set_rejects_negative_or_non_finite_eps(eps):
    with pytest.raises(ValueError, match="eps"):
        PointSet(points=(0.25,), eps=eps)


def test_point_set_accepts_negative_zero_like_the_scalar_check():
    assert len(PointSet(points=(-0.0, 0.0), eps=0.0)) == 2


def _wide_values(rng, n):
    # signed values with decimal exponents spread over -300..300
    return rng.choice([-1.0, 1.0], n) * rng.random(n) * 10.0 ** rng.uniform(-300, 300, n)


def test_exact_sum_matches_fsum_wide_exponents():
    rng = np.random.default_rng(11)
    for size in (1, 2, 3, 10, 1000, 5000):
        x = _wide_values(rng, size)
        assert _exact_sum(x).hex() == math.fsum(x).hex()


@pytest.mark.parametrize("values", [
    [1e100, 1.0, -1e100],
    [1e308, -1e308, 1e-308, 5e-324],
    [2.0**53, 1.0],             # exact tie, rounds to even
    [2.0**53, 1.0, 2.0**-60],   # just above the tie
    [2.0**53, -1.0, -(2.0**-60)],
    [5e-324] * 7,
    [2.2250738585072014e-308, -5e-324, 1e-320],
    [0.0], [-0.0], [-0.0, -0.0], [0.0, -0.0], [],
    [0.1], [-3.5], [1.7976931348623157e308],
    [0.1] * 10,
])
def test_exact_sum_matches_fsum_special_cases(values):
    assert _exact_sum(np.array(values, dtype=np.float64)).hex() == math.fsum(values).hex()


@pytest.mark.parametrize("size", [2**16 - 1, 2**16, 2**16 + 1, 2 * 2**16 + 3])
def test_exact_sum_matches_fsum_around_chunk_size(size):
    rng = np.random.default_rng(size)
    for x in (np.cos(rng.random(size) * 40.0), _wide_values(rng, size)):
        assert _exact_sum(x).hex() == math.fsum(x).hex()


def test_exact_sum_matches_fsum_on_weyl_arrays():
    pts = shifted_points(concat_digits(ConcatSpec("integers"), 100_024), 100_000)
    for m in range(1, 6):
        phase = 2.0 * math.pi * m * pts.points
        for x in (np.cos(phase), np.sin(phase)):
            assert _exact_sum(x).hex() == math.fsum(x).hex()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_exact_sum_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        _exact_sum(np.array([1.0, bad]))


def test_weyl_sum_matches_fsum_reference():
    # the chunked exact sums reproduce the unchunked math.fsum magnitudes bit for bit
    pts = shifted_points(concat_digits(ConcatSpec("integers"), 150_025), 150_001)
    report = weyl_sum(pts, [1, 2, 3, -4, 7])
    for row in report.rows:
        phase = 2.0 * math.pi * row.m * pts.points
        want = math.hypot(math.fsum(np.cos(phase)), math.fsum(np.sin(phase))) / len(pts)
        assert row.magnitude.hex() == want.hex()


def _threads_seen(monkeypatch):
    """Record the thread of every _window_values and _chunk_sum call."""
    seen = set()
    for name in ("_window_values", "_chunk_sum"):
        inner = getattr(spectra, name)

        def spy(*args, inner=inner):
            seen.add(threading.current_thread())
            return inner(*args)

        monkeypatch.setattr(spectra, name, spy)
    return seen


@pytest.mark.parametrize("n_points", [1, 1 << 16, (1 << 16) + 1, 3 * (1 << 16) + 5, 10**6])
def test_split_chunks_bit_identical_to_serial(monkeypatch, n_points):
    # 10^6 points is the `report --in` stream of the stats benchmark
    s = concat_digits(ConcatSpec("integers"), n_points + 24)
    ms = [1, -1, 3, 3, -7, 2, -7]
    seen = _threads_seen(monkeypatch)
    runs = []
    interval = sys.getswitchinterval()
    for second_cpu in (False, True):
        monkeypatch.setattr(constants, "_second_cpu", lambda on=second_cpu: on)
        seen.clear()
        sys.setswitchinterval(1e-5)  # interleave the two threads finely
        try:
            pts = shifted_points(s, n_points)
            mags = _hexes(row.magnitude for row in weyl_sum(pts, ms).rows)
        finally:
            sys.setswitchinterval(interval)
        runs.append((pts.points.view(np.uint64), mags, set(seen)))
    (serial, serial_mags, serial_threads), (split, split_mags, split_threads) = runs
    assert serial_threads == {threading.main_thread()}
    helpers = split_threads - {threading.main_thread()}
    assert len(helpers) == (0 if n_points <= 1 << 16 else 2)  # one per call when chunks are split
    assert np.array_equal(serial, split)
    assert serial_mags == split_mags


class _LastChunkError(Exception):
    pass


def test_split_chunks_raise_helper_errors_and_leave_no_thread(monkeypatch, tmp_path):
    monkeypatch.setattr(constants, "_second_cpu", lambda: True)
    n_points = 3 * (1 << 16) + 5
    s = concat_digits(ConcatSpec("integers"), n_points + 24)
    window_values = spectra._window_values
    raised_in = []

    def fail_last_chunk(seg, count, b, shift):
        if count == 5:  # the last chunk, in the helper thread's half
            raised_in.append(threading.current_thread())
            time.sleep(0.1)  # long after the caller's half: only a join sees this
            raise _LastChunkError
        return window_values(seg, count, b, shift)

    before = threading.active_count()
    monkeypatch.setattr(spectra, "_window_values", fail_last_chunk)
    with pytest.raises(_LastChunkError):
        shifted_points(s, n_points)
    assert raised_in and raised_in[0] is not threading.main_thread()
    assert threading.active_count() == before

    monkeypatch.setattr(spectra, "_window_values", window_values)
    digits, report = tmp_path / "int.digits", tmp_path / "report.json"
    assert cli.main(["construct", "--family", "integers", "--digits", "200064", "--out", str(digits)]) == 0
    assert cli.main(["report", "--in", str(digits), "--N", "200000", "--kmax", "3", "--mmax", "5",
                     "--out", str(report)]) == 0
    assert threading.active_count() == before

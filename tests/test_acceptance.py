"""Acceptance suite: every criterion runs at its pinned tolerance and prints
one PASS/FAIL line (visible with pytest -s or in failure output)."""

import json
import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from pilab import constants, primes
from pilab.cf import (
    AuditConfig,
    audit_lemma_caseI,
    audit_lemma_caseII,
    audit_lemma_prime_variant,
    audit_payload,
    pi_convergents,
    residue_decompose,
)
from pilab.cli import _dump
from pilab.constants import const_digits
from pilab.constructors import ConcatSpec, concat_digits
from pilab.groups import artin_scan, coset_structure, subgroup
from pilab.radix import DigitStream
from pilab.spectra import (
    PointSet,
    block_frequency,
    expsum_magnitudes,
    parseval_sum,
    weyl_sum,
    x_sequence_audit,
)


def report(number, ok, detail, elapsed, budget):
    flag = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {number}: {flag} - {detail} ({elapsed:.2f}s / budget {budget:.0f}s)")
    assert ok, detail
    assert elapsed < budget, f"criterion {number} overran its {budget}s budget: {elapsed:.2f}s"


def test_criterion_1_constant_engines():
    t0 = time.perf_counter()
    w = constants._working_digits(1000)
    machin, chudnovsky = constants._ENGINES["pi"](w)
    released = const_digits("pi", 1000).prefix_string(1000)
    elapsed = time.perf_counter() - t0
    shift = 10 ** (w - 1000)
    ok = (str(machin // shift) == str(chudnovsky // shift) == "3" + released
          and released[:20] == "14159265358979323846")
    report(1, ok, "pi dual methods agree on 1000 digits; first 20 digits exact", elapsed, 10)


def test_criterion_2_constructions():
    t0 = time.perf_counter()
    primes30 = concat_digits(ConcatSpec("primes"), 30).prefix_string(30)
    squares30 = concat_digits(ConcatSpec("squares"), 30).prefix_string(30)
    got = concat_digits(ConcatSpec("integers"), 10**4).prefix_string(10**4)
    naive = []
    total = 0
    k = 1
    while total < 10**4:
        term = str(k)
        naive.append(term)
        total += len(term)
        k += 1
    elapsed = time.perf_counter() - t0
    ok = (
        primes30 == "235711131719232931374143475359"
        and squares30 == "149162536496481100121144169196"
        and got == "".join(naive)[: 10**4]
    )
    report(2, ok, "printed prime/square expansions exact; integers match naive oracle at 10^4", elapsed, 5)


def test_criterion_3_cf_layer():
    t0 = time.perf_counter()
    depth = 10
    convs = pi_convergents(depth)
    while convs[-1].q <= 10**6:
        depth += 2
        convs = pi_convergents(depth)
    pi_ref = Fraction(3) + Fraction(
        int(const_digits("pi", 80).prefix_string(80)), 10**80
    )
    ok = convs[-1].q > 10**6
    for k in range(len(convs)):
        c = convs[k]
        if k >= 2:
            ok &= c.p == c.a * convs[k - 1].p + convs[k - 2].p
            ok &= c.q == c.a * convs[k - 1].q + convs[k - 2].q
        if k >= 1:
            ok &= c.p * convs[k - 1].q - convs[k - 1].p * c.q == (-1) ** (k - 1)
        if k + 1 < len(convs):
            gap = abs(pi_ref - Fraction(c.p, c.q))
            ok &= gap < Fraction(1, c.q * convs[k + 1].q)
    pairs = [(c.p, c.q) for c in convs]
    ok &= (22, 7) in pairs and (355, 113) in pairs
    elapsed = time.perf_counter() - t0
    report(3, ok, f"recurrence/unimodularity/classical bound hold through q={convs[-1].q}", elapsed, 5)


def test_criterion_4_residue_audits():
    t0 = time.perf_counter()
    convs = pi_convergents(12)
    rng = random.Random(5588100)
    ok = True
    for _ in range(1000):
        conv = convs[rng.randrange(1, 13)]
        n = rng.randrange(1, 30)
        dec = residue_decompose(conv, n)
        ok &= dec.reconstructs(conv.p, conv.q)
        ok &= 0 <= dec.r_n < conv.q and 0 <= dec.s_n < conv.q and 0 <= dec.c_n < conv.q
    cfg = AuditConfig(n_max=12)
    for k in range(1, 13):
        for build in (
            lambda: audit_payload(audit_lemma_caseI(convs[k], cfg)),
            lambda: audit_payload(audit_lemma_caseII(convs[k], cfg)),
            lambda: audit_payload(audit_lemma_prime_variant(convs[k], cfg)),
        ):
            first = _dump(build()).encode()
            second = _dump(build()).encode()
            ok &= first == second
    elapsed = time.perf_counter() - t0
    report(4, ok, "10^3 reconstructions exact; audits k<=12, n<=12 rerun byte-identically", elapsed, 30)


def test_criterion_5_artin_scan():
    t0 = time.perf_counter()
    scan = artin_scan(10**5)
    elapsed = time.perf_counter() - t0
    ok = 0.354 <= scan.density <= 0.394
    report(
        5, ok,
        f"density {scan.density:.6f} over {scan.count_primes} primes in [0.354, 0.394] "
        f"(reference 0.3739558)", elapsed, 60,
    )


def test_criterion_6_exponential_sums():
    t0 = time.perf_counter()
    ok = True
    for p in primes.primes_upto(500).tolist():
        mags = expsum_magnitudes(list(range(1, p)), p)
        worst = max(abs(m - 1.0) for m in mags[1:]) if p > 2 else abs(mags[1] - 1.0)
        ok &= worst < 1e-9
        if p in (2, 5):
            continue
        rep = subgroup(10, p)
        lhs, rhs = parseval_sum(rep.elements, p)
        ok &= abs(lhs - rhs) / rhs < 1e-6
    elapsed = time.perf_counter() - t0
    report(6, ok, "full-group max-over-a magnitudes equal 1 within 1e-9; Parseval within 1e-6", elapsed, 60)


def test_criterion_7_equidistribution():
    t0 = time.perf_counter()
    golden = (1 + 5**0.5) / 2
    pts = PointSet(points=tuple((n * golden) % 1.0 for n in range(1, 10**4 + 1)),
                   eps=1e-12, label="golden")
    golden_mag = weyl_sum(pts, [1]).rows[0].magnitude
    audit = x_sequence_audit(1000)
    mags = [row["magnitude"] for row in audit["weyl"]]
    elapsed = time.perf_counter() - t0
    ok = golden_mag < 0.01 and all(m < 0.05 for m in mags)
    report(
        7, ok,
        f"golden-rotation |S|/N = {golden_mag:.2e} < 0.01; log-lattice m<=5 max "
        f"{max(mags):.4f} < 0.05", elapsed, 10,
    )


def test_criterion_8_normality_statistics():
    # Tolerance pinned by the oracle run on the first 10^6 digits: the prefix
    # ends mid 6-digit block, so digit '1' carries frequency 0.179810 (numbers
    # 100000..185184 all lead with 1) and the max deviation is 0.079810.
    t0 = time.perf_counter()
    stream = concat_digits(ConcatSpec("integers"), 10**6)
    stats = block_frequency(stream, 10**6, 1).lengths[-1]
    naive = []
    total = 0
    k = 1
    while total < 10**6:
        term = str(k)
        naive.append(term)
        total += len(term)
        k += 1
    counts = Counter("".join(naive)[: 10**6])
    table = json.loads(_dump(stats))  # the counts table as reports print it
    ok = all(table[str(d)] == counts[str(d)] for d in range(10))
    devs = {d: abs(table[str(d)] / 10**6 - 0.1) for d in range(10)}
    ok &= max(devs.values()) == pytest.approx(0.079810, abs=1e-6)
    ok &= all(dev <= 0.08 for dev in devs.values())
    constant = DigitStream(10, lambda n: [3] * n, label="thirds")
    ok &= block_frequency(constant, 10**4, 1).lengths[-1].max_abs_dev > 0.1
    alternating = DigitStream(10, lambda n: ([0, 1] * (n // 2 + 1))[:n], label="alternating")
    ok &= block_frequency(alternating, 10**4, 1).lengths[-1].max_abs_dev > 0.1
    elapsed = time.perf_counter() - t0
    report(
        8, ok,
        f"10^6-digit frequencies match the oracle run (max dev {max(devs.values()):.6f} <= 0.08); "
        f"periodic counterexample exceeds 0.1", elapsed, 30,
    )


def test_criterion_9_coset_structure():
    t0 = time.perf_counter()
    convs = pi_convergents(12)
    ok = True
    tested = 0
    for conv in convs[1:]:
        rep = coset_structure(conv, element_cap=2 * 10**6)
        if not rep.hypothesis_ok:
            ok &= math.gcd(10, conv.q) > 1
            continue
        tested += 1
        ok &= rep.h_equals_subgroup
        ok &= rep.g_size == rep.h_size == rep.base.order
    elapsed = time.perf_counter() - t0
    ok &= tested >= 5  # k in {1,3,6,8,9,11} satisfy gcd(10, q_k) = 1 through k = 12
    report(9, ok, f"H = <10> elementwise and #G = #H on {tested} convergents with gcd(10,q)=1",
           elapsed, 10)

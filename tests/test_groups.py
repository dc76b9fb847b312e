import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilab import primes
from pilab.cf import Convergent, pi_convergents
from pilab import groups
from pilab.groups import (
    DEFAULT_ELEMENT_CAP,
    LANE_MAX,
    _power_set_sorted,
    WindowExhaustedError,
    artin_orders,
    artin_scan,
    coset_structure,
    euler_phi,
    factorize,
    mult_order,
    nearest_prime_in_window,
    orders_of_ten,
    subgroup,
)


def naive_order(g, m):
    x = g % m
    n = 1
    while x != 1:
        x = x * g % m
        n += 1
    return n


@pytest.mark.parametrize("g,m,want", [(10, 7, 6), (10, 3, 1), (10, 11, 2), (10, 31, 15), (10, 113, 112)])
def test_mult_order_examples(g, m, want):
    assert mult_order(g, m) == want


def test_mult_order_rejects_non_units():
    with pytest.raises(ValueError):
        mult_order(10, 106)
    with pytest.raises(ValueError):
        mult_order(10, 1)


@settings(max_examples=120, deadline=None)
@given(m=st.integers(min_value=2, max_value=3000), g=st.integers(min_value=2, max_value=50))
def test_mult_order_matches_naive_loop_any_generator(m, g):
    if math.gcd(g, m) != 1:
        return
    assert mult_order(g, m) == naive_order(g, m)


def test_mult_order_of_ten_exhaustive_to_ten_thousand():
    for m in range(2, 10**4 + 1):
        if math.gcd(10, m) != 1:
            continue
        assert mult_order(10, m) == naive_order(10, m)


def test_factorize_round_trip():
    for n in (1, 2, 97, 128, 1725033, 10**12 + 39, 1000003 * 1000033):
        factors = factorize(n)
        prod = 1
        for p, e in factors.items():
            from pilab import primes

            assert primes.is_prime(p)
            prod *= p**e
        assert prod == n


def test_factorize_matches_sympy():
    import random

    sympy = pytest.importorskip("sympy")
    near_lanes = sympy.prevprime(LANE_MAX + 1)
    semiprime = 1000003 * 1000033  # both factors above the trial-division limit
    # around the trial-division limit 10^4 (9973 is the last prime below it, 10007 the first
    # above), then three factors above it, which rho must split twice
    edges = [9973**2, 9973 * 10007, 10007**3, 10007 * 10009 * 10037, 1000003 * 1000033 * 1000037]
    rng = random.Random(2024)
    for n in [near_lanes, near_lanes - 1, semiprime] + edges + [rng.randrange(2, 10**15) for _ in range(500)]:
        assert factorize(n) == sympy.factorint(n), n


# psi_12, the least strong pseudoprime to the twelve prime bases 2..37
PSI_12 = 318665857834031151167461


def test_is_prime_rejects_strong_pseudoprime_to_bases_through_37():
    assert not primes.is_prime(PSI_12)
    assert primes.is_prime(798330580441)


def test_factorize_splits_strong_pseudoprime_to_bases_through_37():
    assert factorize(PSI_12) == {399165290221: 1, 798330580441: 1}


def test_is_prime_raises_at_witness_limit():
    with pytest.raises(ValueError, match="witness range"):
        primes.is_prime(primes._MR_LIMIT)


def test_subgroup_totient_of_prime_near_lanes():
    q = 3037000493  # the largest prime <= LANE_MAX
    rep = subgroup(10, q, element_cap=0)
    assert rep.totient == euler_phi(q) == q - 1
    assert rep.order == mult_order(10, q) == orders_of_ten(np.array([q]))[0]


def test_euler_phi_small():
    assert [euler_phi(m) for m in (1, 2, 7, 10, 106, 113)] == [1, 1, 6, 4, 52, 112]


def test_subgroup_reports():
    rep = subgroup(10, 7)
    assert rep.order == 6 and rep.is_primitive
    assert rep.elements == (1, 2, 3, 4, 5, 6)
    rep = subgroup(10, 11)
    assert rep.elements == (1, 10) and not rep.is_primitive
    rep = subgroup(1, 9)
    assert rep.order == 1 and rep.elements == (1,)


def test_subgroup_lagrange():
    for m in (7, 11, 31, 97, 113, 1725033):
        rep = subgroup(10, m, element_cap=0)
        assert rep.totient % rep.order == 0


def test_subgroup_element_cap():
    rep = subgroup(10, 7, element_cap=3)
    assert rep.elements is None
    assert rep.order == 6


def test_coset_structure_22_7():
    rep = coset_structure(Convergent(k=1, a=7, p=22, q=7))
    assert rep.hypothesis_ok
    assert rep.base.order == 6
    assert rep.h_equals_subgroup and rep.g_equals_coset
    assert rep.g_size == rep.h_size == 6
    assert rep.g_elements == rep.h_elements == (1, 2, 3, 4, 5, 6)


def test_coset_structure_hypothesis_failure():
    rep = coset_structure(Convergent(k=2, a=15, p=333, q=106))
    assert not rep.hypothesis_ok
    assert rep.base is None


def test_coset_full_group_when_primitive():
    rep = coset_structure(Convergent(k=3, a=1, p=355, q=113))
    assert rep.hypothesis_ok
    assert rep.g_size == rep.h_size == 112 == rep.base.order
    assert rep.h_equals_subgroup and rep.g_equals_coset


def test_artin_scan_small():
    scan = artin_scan(100)
    qs, orders = artin_orders(100)
    hits = qs[(orders == qs - 1) & (qs < 50)]
    assert hits.tolist() == [7, 17, 19, 23, 29, 47]
    assert scan.count_artin <= scan.count_primes


def test_artin_rows_orders_match_naive():
    qs, orders = artin_orders(300)
    assert orders.tolist() == [naive_order(10, q) for q in qs.tolist()]


def test_artin_orders_chunked_equal_single_pass():
    qs, orders = artin_orders(5000)
    pieces = np.array_split(qs, 7)
    assert np.array_equal(np.concatenate([orders_of_ten(piece) for piece in pieces]), orders)
    scan = artin_scan(5000)
    assert scan.count_primes == sum(len(piece) for piece in pieces) == len(qs)
    assert scan.count_artin == sum(
        int(np.count_nonzero(orders_of_ten(piece) == piece - 1)) for piece in pieces
    )
    assert artin_scan(5000, (qs, orders)) == scan


def test_orders_of_ten_match_mult_order_below_ten_thousand():
    qs = [q for q in primes.primes_upto(10**4).tolist() if q not in (2, 5)]
    assert orders_of_ten(qs).tolist() == [mult_order(10, q) for q in qs]


def test_orders_of_ten_at_lane_edge():
    qs = primes._sieve(LANE_MAX - 6000, LANE_MAX)[-200:].tolist()
    assert len(qs) == 200 and qs[-1] <= LANE_MAX < qs[-1] + 6000
    assert orders_of_ten(qs).tolist() == [mult_order(10, q) for q in qs]


@pytest.mark.parametrize("q,factors", [
    (1838878963, {2: 1, 3: 1, 223: 2, 6163: 1}),  # the order strips both 223s
    (3004574597, {2: 2, 27407: 2}),
    (9999659, {2: 1, 1847: 1, 2707: 1}),  # strips 1847 > sqrt(q) / 2
    (2944763, {2: 1, 1153: 1, 1277: 1}),
])
def test_orders_of_ten_large_factors(q, factors):
    assert factorize(q - 1) == factors
    assert orders_of_ten([q]).tolist() == [mult_order(10, q)]


def test_orders_of_ten_rejects_primes_beyond_lanes():
    for q in (primes.next_prime(LANE_MAX + 1), 2**70 + 25):
        with pytest.raises(ValueError):
            orders_of_ten([7, q])
    with pytest.raises(ValueError):
        orders_of_ten([3, 5, 7])


def test_artin_limit_past_lanes_raises_before_sieving(monkeypatch):
    first_past = primes.next_prime(LANE_MAX + 1)
    below = 3037000493  # the largest prime <= LANE_MAX

    def refuse(limit):
        raise AssertionError(f"sieved to {limit}")

    monkeypatch.setattr(primes, "primes_upto", refuse)
    for limit in (first_past, LANE_MAX + 10**6, 4 * 10**9):
        with pytest.raises(ValueError):
            artin_orders(limit)
    # one below the boundary the sieve is reached; stand it in by its top primes,
    # and lift the memory ceiling that a real sieve that large would pass
    monkeypatch.setattr(primes, "primes_upto", lambda limit: np.array([2, 3, 5, 7, below]))
    monkeypatch.setattr(groups, "ARTIN_LIMIT_MAX", first_past)
    qs, orders = artin_orders(first_past - 1)
    assert qs.tolist() == [3, 7, below]
    assert orders.tolist() == [mult_order(10, q) for q in (3, 7, below)]


def test_nearest_prime_in_window(monkeypatch):
    assert nearest_prime_in_window(106) == (107, (106, 129))
    assert nearest_prime_in_window(113) == (113, (113, 137))  # 113 is itself prime
    monkeypatch.setattr(primes, "next_prime", lambda n: 131)  # one past the window end 129
    with pytest.raises(WindowExhaustedError, match=r"no prime in \[106, 129\]"):
        nearest_prime_in_window(106)


def test_window_holds_the_next_prime_below_dusart_range():
    # For q in (p, p'] the next prime is p', and q + ceil(q / ln q) grows with q,
    # so q = p + 1 is the tightest case of each gap.  Past 396 738, Dusart (2010,
    # Prop. 6.8) puts a prime in (x, x (1 + 1 / (25 ln^2 x))], inside the window.
    ps = primes.primes_upto(396_833)  # 396 833 is the first prime past 396 738
    q = ps[:-1] + 1
    assert ps[-2] < 396_738 < ps[-1]
    assert np.all(ps[1:] <= q + np.ceil(q / np.log(q)))


def test_coset_invariants_across_pi_convergents():
    for conv in pi_convergents(9)[1:]:
        rep = coset_structure(conv, element_cap=1 << 20)
        if not rep.hypothesis_ok:
            assert math.gcd(10, conv.q) > 1
            continue
        assert rep.h_equals_subgroup
        assert rep.g_equals_coset
        assert rep.g_size == rep.h_size == rep.base.order
        assert rep.base.totient % rep.base.order == 0


def test_coset_numpy_branch_matches_python_sets():
    convs = pi_convergents(8)
    for conv in convs[3:9]:
        p, q = conv.p, conv.q
        rep = coset_structure(conv, element_cap=1 << 20)
        if math.gcd(10, q) != 1:
            assert not rep.hypothesis_ok
            continue
        ten = {pow(10, n, q) for n in range(rep.base.order)}
        g = {p * t % q for t in ten}
        h = {(p * q + 1) * t % q for t in ten}
        assert rep.g_elements == tuple(sorted(g)) and rep.h_elements == tuple(sorted(h))
        assert (rep.g_size, rep.h_size) == (len(g), len(h))
        assert rep.h_equals_subgroup == (h == ten) and rep.g_equals_coset


R19 = (10**19 - 1) // 9  # prime, above LANE_MAX, ord 19


@pytest.mark.parametrize("q,order,lanes", [(R19, 19, object), (2331002331, 12, np.int64)])
def test_cosets_and_subgroup_match_python_sets_across_lane_bound(q, order, lanes):
    # 2331002331 = (10^12 - 1) / 429 lies in (2^31, LANE_MAX]
    assert (q > LANE_MAX) == (lanes is object) and q > 2**31
    assert _power_set_sorted(1, 10, q, order).dtype == lanes
    ten = {pow(10, n, q) for n in range(naive_order(10, q))}
    rep = subgroup(10, q)
    assert rep.order == order == len(ten)
    assert rep.elements == tuple(sorted(ten))
    for p in (1, 7, 314159265358979323846, q - 1, q + 3):
        cos = coset_structure(Convergent(k=0, a=0, p=p, q=q))
        g = {p * t % q for t in ten}
        h = {(p * q + 1) * t % q for t in ten}
        assert cos.g_elements == tuple(sorted(g)) and cos.h_elements == tuple(sorted(h))
        assert (cos.g_size, cos.h_size) == (len(g), len(h))
        assert cos.h_equals_subgroup == (h == ten) and cos.g_equals_coset
        assert all(type(x) is int for x in cos.g_elements + rep.elements)


def _refuse_power_sets(monkeypatch):
    def refuse(start, g, m, count):
        raise AssertionError(f"built a power set of {count} elements")

    monkeypatch.setattr(groups, "_power_set_sorted", refuse)


def test_coset_structure_builds_each_power_set_once(monkeypatch):
    # <10>, H and G once each; the subgroup report gives only order and totient
    conv = pi_convergents(8)[8]  # q = 265 381, ord_q(10) = 88 460, above the default cap
    counts = []

    def counting(start, g, m, count):
        counts.append(count)
        return _power_set_sorted(start, g, m, count)

    monkeypatch.setattr(groups, "_power_set_sorted", counting)
    rep = coset_structure(conv, element_cap=1 << 20)
    assert counts == [rep.base.order] * 3 and rep.base.order <= 1 << 20
    assert rep.base.elements is None and len(rep.g_elements) == rep.g_size


def test_coset_order_bound_raises_before_building_power_sets(monkeypatch):
    conv = pi_convergents(20)[20]  # q = 6 701 487 259, ord_q(10) = 33 166 008
    _refuse_power_sets(monkeypatch)
    for cap in (DEFAULT_ELEMENT_CAP, 1 << 26):
        with pytest.raises(ValueError, match="33166008"):
            coset_structure(conv, element_cap=cap)
    assert 8_299_090 <= groups.COSET_ORDER_MAX < 33_166_008  # ord at q_16 fits, at q_20 not


def test_coset_cli_past_order_bound_exits_one(monkeypatch, capsys):
    from pilab.cli import main

    _refuse_power_sets(monkeypatch)
    assert main(["coset", "--k", "20"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "COSET_ORDER_MAX" in captured.err

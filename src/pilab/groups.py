"""Multiplicative orders, subgroups of (Z/mZ)*, and Artin primitive-root scans.

Order computation factors the totient (trial division by the sieved primes
below 10^4, then Brent's rho with deterministic parameters) and descends
through divisors; anything left unfactored aborts loudly rather than risking a
wrong order.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from . import DEFAULT_ELEMENT_CAP, primes

_TRIAL_LIMIT = 10**4
_TRIAL_PRIMES = primes.primes_upto(_TRIAL_LIMIT).tolist()  # factorize trial-divides by these
LANE_MAX = math.isqrt(2**63 - 1)  # int64 lanes multiply residues exactly while q <= LANE_MAX
# coset_structure holds three power sets of ord_q(10) elements and a sorted coset.
# q_16 (order 8 299 090, int64 lanes) peaked at 424 MB, about 50 bytes an element;
# 2^23 admits that largest order for k <= 18 and refuses q_20 (order 33 166 008,
# Python ints past LANE_MAX), which would take several GB.
COSET_ORDER_MAX = 1 << 23
# artin --limit 10**8 peaked at 657 MiB RSS (2 cores, CPython 3.11.7, numpy
# 2.4.6): the sieve and the int64 prime and order arrays take about 6.9 bytes
# per unit of limit.  ARTIN_LIMIT_MAX is where that rate reaches 2 GiB.
ARTIN_LIMIT_MAX = 2048 * 10**8 // 657
ArtinTable = tuple[np.ndarray, np.ndarray]  # (q, ord_q(10)) over the scanned primes


class FactoringError(RuntimeError):
    """Factoring gave up; the offending composite is named."""

    def __init__(self, composite: int):
        super().__init__(f"could not factor composite {composite}")
        self.composite = composite


class WindowExhaustedError(RuntimeError):
    """No prime was found inside the search window."""


class SubgroupReport(NamedTuple):
    """The cyclic subgroup generated by ``generator`` in (Z/modulus Z)*."""

    modulus: int
    generator: int
    order: int
    totient: int
    is_primitive: bool
    elements: Optional[tuple[int, ...]]  # materialized only when order <= cap


class CosetReport(NamedTuple):
    """The sets {p 10^n mod q} and {(p q + 1) 10^n mod q} against <10> mod q."""

    p: int
    q: int
    hypothesis_ok: bool  # gcd(10, q) == 1
    base: Optional[SubgroupReport]  # order and totient of <10>; its elements are not built
    g_size: int
    h_size: int
    h_equals_subgroup: bool
    g_equals_coset: bool
    g_elements: Optional[tuple[int, ...]]
    h_elements: Optional[tuple[int, ...]]


class ArtinScan(NamedTuple):
    limit: int
    count_primes: int
    count_artin: int
    density: float


def _brent_rho(n: int) -> int:
    # deterministic parameter sweep; n must be odd and composite
    for c in range(1, 50):
        y, m = 2, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise FactoringError(n)


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {prime: exponent}: trial division by the primes
    below _TRIAL_LIMIT, then Brent's rho on what is left."""
    if n < 1:
        raise ValueError("factorize needs n >= 1")
    factors: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if primes.is_prime(m):
            factors[m] = factors.get(m, 0) + 1
        elif m < _TRIAL_LIMIT**2:
            # m has no prime factor below _TRIAL_LIMIT, so a composite m exceeds
            # _TRIAL_LIMIT**2; cannot happen
            raise FactoringError(m)
        else:
            g = _brent_rho(m)
            stack.extend((g, m // g))
    return factors


def euler_phi(m: int) -> int:
    if m < 1:
        raise ValueError("totient needs m >= 1")
    phi = 1
    for p, e in factorize(m).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


def _order_and_totient(g: int, m: int) -> tuple[int, int]:
    # (ord_m(g), phi(m)): descend from the totient through its prime factors
    if m < 2:
        raise ValueError("modulus must be >= 2")
    if math.gcd(g, m) != 1:
        raise ValueError(f"gcd({g}, {m}) = {math.gcd(g, m)} != 1: {g} is not a unit mod {m}")
    totient = order = euler_phi(m)
    for ell in factorize(order):
        while order % ell == 0 and pow(g, order // ell, m) == 1:
            order //= ell
    return order, totient


def mult_order(g: int, m: int) -> int:
    """Least n >= 1 with g^n = 1 mod m, via totient factorization and descent."""
    return _order_and_totient(g, m)[0]


def subgroup(g: int, m: int, element_cap: int = DEFAULT_ELEMENT_CAP) -> SubgroupReport:
    """Report on <g> mod m; elements are materialized only up to the cap."""
    order, totient = _order_and_totient(g, m)
    elements = None
    if order <= element_cap:
        elements = tuple(_power_set_sorted(1, g, m, order).tolist())
    return SubgroupReport(
        modulus=m, generator=g % m, order=order, totient=totient,
        is_primitive=order == totient, elements=elements,
    )


def _power_set_sorted(start: int, g: int, m: int, count: int) -> np.ndarray:
    """start * g^n mod m for n < count, sorted: int64 lanes while m <= LANE_MAX,
    Python ints (dtype=object) above, where a lane product could overflow."""
    # doubling fill: out[n:2n] = out[:n] * g^n mod m
    out = np.empty(count, dtype=np.int64 if m <= LANE_MAX else object)
    out[0] = start % m
    n, step = 1, g % m
    while n < count:
        k = min(n, count - n)
        out[n : n + k] = out[:k] * step % m
        n += k
        step = step * step % m
    out.sort()
    return out


def coset_structure(conv, element_cap: int = DEFAULT_ELEMENT_CAP) -> CosetReport:
    """Build {p 10^n mod q} and {(p q + 1) 10^n mod q} literally and compare.

    The second set must coincide with <10> (its multiplier is 1 mod q) and the
    first with the coset p * <10>; gcd(10, q) != 1 is reported as a hypothesis
    failure, not raised.  An order above COSET_ORDER_MAX raises ValueError
    before any power set is built.
    """
    p, q = conv.p, conv.q
    if math.gcd(10, q) != 1:
        return CosetReport(
            p=p, q=q, hypothesis_ok=False, base=None, g_size=0, h_size=0,
            h_equals_subgroup=False, g_equals_coset=False,
            g_elements=None, h_elements=None,
        )
    base = subgroup(10, q, element_cap=0)  # order and totient; ten_set below is <10> itself
    order = base.order
    if order > COSET_ORDER_MAX:
        raise ValueError(f"ord_{q}(10) = {order} exceeds COSET_ORDER_MAX = {COSET_ORDER_MAX}")
    ten_set = _power_set_sorted(1, 10, q, order)
    h_set = _power_set_sorted((p * q + 1) % q, 10, q, order)
    g_set = _power_set_sorted(p % q, 10, q, order)
    coset = np.sort(ten_set * (p % q) % q)
    h_equals = bool(np.array_equal(h_set, ten_set))
    g_equals = bool(np.array_equal(g_set, coset))
    g_unique = g_set[np.r_[True, np.diff(g_set) != 0]]  # both sets are sorted
    h_unique = h_set[np.r_[True, np.diff(h_set) != 0]]
    g_size, h_size = len(g_unique), len(h_unique)
    g_elems = tuple(g_unique.tolist()) if order <= element_cap else None
    h_elems = tuple(h_unique.tolist()) if order <= element_cap else None
    return CosetReport(
        p=p, q=q, hypothesis_ok=True, base=base,
        g_size=g_size, h_size=h_size,
        h_equals_subgroup=h_equals, g_equals_coset=g_equals,
        g_elements=g_elems, h_elements=h_elems,
    )


def _pow10_lanes(exps: np.ndarray, qs: np.ndarray) -> np.ndarray:
    # 10^e mod q lane by lane, square-and-multiply; exact because every q <= LANE_MAX
    result = np.ones_like(qs)
    base = 10 % qs
    e = exps.copy()
    while e.any():
        result = np.where((e & 1) == 1, result * base % qs, result)
        base = base * base % qs
        e >>= 1
    return result


def orders_of_ten(qs) -> np.ndarray:
    """ord_q(10) for every q of an int64 array of primes other than 2 and 5, in one pass.

    Trial division of q - 1 by the primes <= sqrt(max q) leaves at most one
    prime cofactor per lane; the order descends from q - 1 through those
    primes by a vectorized modpow.  The q must be prime; q > LANE_MAX raises.
    """
    qs = np.asarray(qs)
    if qs.size and (qs.min() < 3 or qs.max() > LANE_MAX or np.any(np.gcd(qs, 10) != 1)):
        raise ValueError(f"orders_of_ten needs primes q coprime to 10 in [3, {LANE_MAX}]")
    qs = qs.astype(np.int64)
    orders, rem = qs - 1, qs - 1

    def descend(lanes: np.ndarray, ells: np.ndarray) -> None:
        # strip ell from the order while 10^(order/ell) stays 1
        while lanes.size:
            cand = orders[lanes] // ells
            hit = _pow10_lanes(cand, qs[lanes]) == 1
            orders[lanes[hit]] = cand[hit]
            keep = hit & (cand % ells == 0)
            lanes, ells = lanes[keep], ells[keep]

    active = np.arange(qs.size)
    for ell in primes.primes_upto(math.isqrt(int(qs.max(initial=3)) - 1)):
        active = active[rem[active] >= ell * ell]  # the rest have rem 1 or prime
        lanes = active[rem[active] % ell == 0]
        div = lanes
        while div.size:
            rem[div] //= ell
            div = div[rem[div] % ell == 0]
        descend(lanes, np.full(lanes.size, ell, dtype=np.int64))
    lanes = np.flatnonzero(rem > 1)
    descend(lanes, rem[lanes])
    return orders


def artin_orders(limit: int) -> ArtinTable:
    """(q, ord_q(10)) as int64 arrays over the primes q <= limit except 2 and 5.

    A limit below 100, one that would admit a prime above LANE_MAX, or one
    above ARTIN_LIMIT_MAX raises before sieving.
    """
    if limit < 100:
        raise ValueError("limit must be >= 100")
    if limit >= primes.next_prime(LANE_MAX + 1):
        raise ValueError(f"artin limit {limit} admits primes above {LANE_MAX}, past the int64 lanes")
    if limit > ARTIN_LIMIT_MAX:
        raise ValueError(f"artin limit {limit} exceeds ARTIN_LIMIT_MAX = {ARTIN_LIMIT_MAX}: "
                         "its in-memory sieve would pass 2 GiB")
    qs = primes.primes_upto(limit)
    qs = qs[(qs != 2) & (qs != 5)]
    return qs, orders_of_ten(qs)


def artin_scan(limit: int, table: Optional[ArtinTable] = None) -> ArtinScan:
    """Empirical density of primes <= limit for which 10 is a primitive root.

    Primes 2 and 5 are excluded (10 is not a unit there).  ``table`` is
    artin_orders(limit), when the caller already holds it.
    """
    qs, orders = artin_orders(limit) if table is None else table
    artin = int(np.count_nonzero(orders == qs - 1))
    return ArtinScan(
        limit=limit, count_primes=len(qs), count_artin=artin,
        density=artin / len(qs),
    )


def nearest_prime_in_window(q: int) -> tuple[int, tuple[int, int]]:
    """Least prime in [q, q + ceil(q / ln q)]; error when none.

    Below 396 738 the sieve's prime gaps show the window always holds one
    (tests/test_groups.py); above, Dusart (2010, Prop. 6.8) puts a prime in
    (x, x (1 + 1 / (25 ln^2 x))], well inside it.
    """
    if q < 3:
        raise ValueError("window search needs q >= 3")
    hi = q + math.ceil(q / math.log(q))
    p = primes.next_prime(q)
    if p > hi:
        raise WindowExhaustedError(f"no prime in [{q}, {hi}]")
    return p, (q, hi)

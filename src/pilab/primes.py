"""Prime sieving and primality utilities shared across the package.

The sieve cache is grow-only: it doubles to cover a larger limit.
"""

from __future__ import annotations

import bisect
import math

_sieved_to = 100
_primes: list[int] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                      53, 59, 61, 67, 71, 73, 79, 83, 89, 97]

# Deterministic Miller-Rabin witness set: the 13 primes 2..41 admit no strong
# pseudoprime below psi_13 = _MR_LIMIT (Sorenson & Webster, Math. Comp. 2017).
# Without 41 the bound would be psi_12 = 318665857834031151167461.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def _grow(limit: int) -> None:
    global _sieved_to
    if limit <= _sieved_to:
        return
    limit = max(limit, 2 * _sieved_to)
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    _primes[:] = [i for i, flag in enumerate(sieve) if flag]
    _sieved_to = limit


def primes_upto(limit: int) -> list[int]:
    """All primes <= limit, from the shared grow-only cache."""
    if limit < 2:
        return []
    _grow(limit)
    return _primes[: bisect.bisect_right(_primes, limit)]


def first_primes(count: int) -> list[int]:
    """The first ``count`` primes."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if count < 6:
        return [2, 3, 5, 7, 11][:count]
    bound = int(count * (math.log(count) + math.log(math.log(count)))) + 10
    while True:
        ps = primes_upto(bound)
        if len(ps) >= count:
            return ps[:count]
        bound *= 2


def nth_prime(n: int) -> int:
    return first_primes(n)[-1]


def is_prime(n: int) -> bool:
    """Deterministic primality for n below _MR_LIMIT ~ 3.3e24 (Miller-Rabin
    over the 13 prime bases 2..41); ValueError at or above it."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} exceeds the deterministic witness range")
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_in_range(lo: int, hi: int) -> list[int]:
    """Primes in [lo, hi] via a segmented sieve over the window."""
    if hi < lo or hi < 2:
        return []
    lo = max(lo, 2)
    base = primes_upto(math.isqrt(hi))
    size = hi - lo + 1
    seg = bytearray([1]) * size
    for p in base:
        start = max(p * p, ((lo + p - 1) // p) * p)
        if start > hi:
            continue
        seg[start - lo :: p] = bytearray(len(seg[start - lo :: p]))
    return [lo + i for i in range(size) if seg[i]]


def next_prime(n: int) -> int:
    """The least prime >= n."""
    c = max(n, 2)
    if c <= 2:
        return 2
    if c % 2 == 0:
        c += 1
    while not is_prime(c):
        c += 2
    return c

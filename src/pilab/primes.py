"""Prime sieving and primality utilities shared across the package.

Every prime array comes from one odd-only numpy sieve over a window; nothing is
cached between calls.
"""

from __future__ import annotations

import math

import numpy as np

# Deterministic Miller-Rabin witness set: the 13 primes 2..41 admit no strong
# pseudoprime below psi_13 = _MR_LIMIT (Sorenson & Webster, Math. Comp. 2017).
# Without 41 the bound would be psi_12 = 318665857834031151167461.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def _sieve(lo: int, hi: int) -> np.ndarray:
    """The primes in [lo, hi] as an int64 array.

    One flag per odd number of the window, struck from each odd base prime's
    first odd multiple >= max(p^2, lo); the base primes <= isqrt(hi) come from
    the same sieve, recursively.
    """
    lo = max(lo, 2)
    if hi < lo:
        return np.empty(0, dtype=np.int64)
    first = lo | 1  # least odd number >= lo
    flags = np.ones(max(0, (hi - first) // 2 + 1), dtype=bool)  # first, first + 2, ...
    for p in _sieve(3, math.isqrt(hi)).tolist():
        m = max(p * p, -(-first // p) * p)
        if m % 2 == 0:
            m += p
        flags[(m - first) // 2 :: p] = False
    odd = first + 2 * np.flatnonzero(flags)
    return np.concatenate(([2], odd)) if lo == 2 else odd


def primes_upto(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array."""
    return _sieve(2, limit)


def first_primes(count: int) -> np.ndarray:
    """The first ``count`` primes as an int64 array."""
    if count < 1:
        raise ValueError("count must be >= 1")
    # Rosser: p_n < n (ln n + ln ln n) for n >= 6; p_5 = 11
    bound = 11 if count < 6 else int(count * (math.log(count) + math.log(math.log(count)))) + 10
    return _sieve(2, bound)[:count]


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

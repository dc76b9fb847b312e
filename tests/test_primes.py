import random

import numpy as np

from pilab import primes


def trial_division_primes(lo, hi):
    return [n for n in range(max(lo, 2), hi + 1)
            if all(n % d for d in range(2, int(n**0.5) + 1))]


def test_primes_in_range_every_small_window():
    for hi in range(-2, 130):
        for lo in range(0, hi + 3):
            assert primes._sieve(lo, hi).tolist() == trial_division_primes(lo, hi), (lo, hi)


def test_primes_in_range_random_windows():
    rng = random.Random(20261018)
    for _ in range(300):
        lo = rng.randrange(0, 10**6)
        hi = min(lo + rng.randrange(0, 400), 10**6 - 1)
        assert primes._sieve(lo, hi).tolist() == trial_division_primes(lo, hi), (lo, hi)


def test_prime_lists_are_int64_arrays():
    for ps in (primes.primes_upto(1000), primes._sieve(500, 1500),
               primes.first_primes(200), primes.primes_upto(2), primes._sieve(24, 28)):
        assert isinstance(ps, np.ndarray) and ps.dtype == np.int64


def test_first_primes_is_a_prefix_of_the_sieve():
    ps = primes.primes_upto(10**7)
    for n in list(range(1, 3001)) + [78498, 664579]:
        assert np.array_equal(primes.first_primes(n), ps[:n]), n

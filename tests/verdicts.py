"""Verdicts derived again from pilab's reports, independently of pilab.

Nothing here imports pilab.  Convergents come from the continued fractions
of both ends of an mpmath interval around pi; audit residues from ``pow``,
endpoints from the lemma statements in ``Fraction``s, and every comparison
with {pi 10^n} from mpmath's digits of pi; multiplicative orders from
``sympy.n_order``, totients from ``sympy.totient`` and exponential sums from
direct sums over the subgroup; block statistics from ``collections.Counter``
over the digit text and exact ``Fraction`` formulas; digit streams from
``itertools.count``, mpmath and long division, and star discrepancies from
the shift points' integer codes.  Each ``check_*``
raises AssertionError at the first field that does not follow, naming its
row.
"""

import functools
import itertools
import math
import random
import re
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import numpy as np
import sympy
from mpmath import mp, mpf
from sympy.ntheory import n_order


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(what)


def pi_digits(count: int) -> int:
    """floor(pi * 10^count), from mpmath with 20 digits to spare."""
    with mp.workdps(count + 20):
        return int(mp.floor(mp.pi * mpf(10) ** count))


def pi_quotients(digits: int) -> list[int]:
    """The quotients a_0, a_1, ... shared by the continued fractions of both
    ends of [P, P + 1] / 10^digits, P = floor(pi 10^digits), which holds pi.
    The last quotient of each terminating expansion may still move, so it is
    left out."""
    big, one = pi_digits(digits), 10**digits
    expansions = []
    for num, den in ((big, one), (big + 1, one)):
        quotients = []
        while den:
            a, rem = divmod(num, den)
            quotients.append(a)
            num, den = den, rem
        expansions.append(quotients[:-1])
    shared = []
    for a, b in zip(*expansions):
        if a != b:
            break
        shared.append(a)
    return shared


def pi_convergent(k: int, digits: int = 100) -> tuple[int, int]:
    """(p_k, q_k) of pi, folded from the quotients a_0..a_k of pi_quotients."""
    quotients = pi_quotients(digits)
    if len(quotients) <= k:
        raise ValueError(f"{digits} digits of pi do not pin quotient {len(quotients)}")
    p, p_prev, q, q_prev = 1, 0, 0, 1
    for a in quotients[: k + 1]:
        p, p_prev, q, q_prev = a * p + p_prev, p, a * q + q_prev, q
    return p, q


def check_pi_convergents(report: dict, depth: int) -> None:
    """Every row of a ``cf --depth`` report: a_k is pi's quotient k, p_k and
    q_k follow x_k = a_k x_(k-1) + x_(k-2) from the report's previous rows,
    and p_k q_(k-1) - p_(k-1) q_k = (-1)^(k-1)."""
    _expect((report["const"], report["depth"]) == ("pi", depth), "const and depth")
    rows = report["convergents"]
    _expect(len(rows) == depth + 1, "row count")
    digits = depth * 11 // 10 + 100  # about 0.97 quotients a digit (Lochs), with room
    quotients = pi_quotients(digits)
    if len(quotients) <= depth:
        raise ValueError(f"{digits} digits of pi do not pin quotient {len(quotients)}; take more")
    p, p_prev, q, q_prev = 1, 0, 0, 1
    for k, row in enumerate(rows):
        _expect(row["k"] == k, f"row {k}: k")
        a = int(row["a"])
        _expect(a == quotients[k], f"row {k}: a")
        p_k, q_k = int(row["p"]), int(row["q"])
        _expect(p_k == a * p + p_prev, f"row {k}: p")
        _expect(q_k == a * q + q_prev, f"row {k}: q")
        _expect(k == 0 or p_k * q - p * q_k == (-1) ** (k - 1), f"row {k}: determinant")
        p, p_prev, q, q_prev = p_k, p, q_k, q


@functools.cache
def _artin_counts(limit: int) -> tuple[int, int]:
    """(primes, primes with 10 of order q - 1 mod q) over the primes q <= limit
    that an Artin scan covers: all but 2 and 5."""
    primes = [q for q in sympy.primerange(3, limit + 1) if q != 5]
    return len(primes), sum(n_order(10, q) == q - 1 for q in primes)


def check_artin_count(report: dict, limit: int) -> None:
    """The counts of an ``artin --limit`` report, derived again over every
    prime it covers."""
    primes, artin = _artin_counts(limit)
    _expect(report["limit"] == limit, "limit")
    _expect(report["count_primes"] == primes, "count_primes")
    _expect(report["count_artin"] == artin, "count_artin")
    _expect(float(report["density"]) == artin / primes, "density")


def sampled_rows(count: int, size: int) -> list[int]:
    """The indices, ascending, of ``size`` of ``count`` rows drawn with seed 0."""
    return sorted(random.Random(0).sample(range(count), min(size, count)))


def check_artin_csv(text: str, limit: int, size: int) -> None:
    """The rows of ``artin --limit --csv``: one per prime the scan covers, q
    increasing, and is_artin true exactly when ord = q - 1; on ``size``
    seeded rows, q is prime and ord is sympy.n_order(10, q)."""
    header, *lines = text.splitlines()
    _expect(header == "q,ord,is_artin", "header")
    rows = [(int(q), int(order), flag) for q, order, flag in (line.split(",") for line in lines)]
    _expect(len(rows) == sympy.primepi(limit) - 2, "row count")
    _expect(all(a[0] < b[0] for a, b in zip(rows, rows[1:])), "q increasing")
    for i in sampled_rows(len(rows), size):
        q, order, _ = rows[i]
        _expect(sympy.isprime(q), f"row q={q}: q")
        _expect(order == n_order(10, q), f"row q={q}: ord")
    for q, order, flag in rows:
        _expect(flag == ("true" if order == q - 1 else "false"), f"row q={q}: is_artin")


def check_artin_summary(report: dict, text: str) -> None:
    """An ``artin --limit --csv`` report's counts against the rows of its own CSV."""
    flags = [line.rsplit(",", 1)[1] for line in text.splitlines()[1:]]
    primes, artin = len(flags), flags.count("true")
    _expect(report["count_primes"] == primes, "count_primes")
    _expect(report["count_artin"] == artin, "count_artin")
    _expect(float(report["density"]) == artin / primes, "density")


def _below(bound: Fraction, x: int, places: int) -> bool:
    """bound <= t for the irrational t in [x, x + 1) / 10^places."""
    scaled, den = bound.numerator * 10**places, bound.denominator
    if scaled <= x * den:
        return True
    if scaled >= (x + 1) * den:
        return False
    raise ValueError("the digits do not decide an endpoint; take more")


def _equals(text: str, num: int, den: int) -> bool:
    """Whether the report's "a/b" is num/den, by cross-multiplication: the
    report's values have thousands of digits, and reducing them costs gcds."""
    a, _, b = text.partition("/")
    return int(a) * den == num * int(b or 1)


def _pi_decimals(width: int) -> str:
    """pi's first ``width`` decimals (through Decimal, whose text has no
    length limit)."""
    return str(Decimal(pi_digits(width)))[1:]


def _power_term(base: int, exponent: Fraction, guard: int, printed) -> Fraction:
    """base^-exponent as an audit adds it to its lower endpoint: exact when the
    exponent is integral; otherwise the printed fixed-point term ``printed()``,
    which must satisfy T <= base^-exponent < T + 2 10^-guard (mpmath at
    guard + 20 digits)."""
    if exponent.denominator == 1:
        return Fraction(1, base**exponent.numerator)
    term = printed()
    with mp.workdps(guard + 20):
        x = mpf(base) ** (-mpf(exponent.numerator) / exponent.denominator)
        t = mpf(term.numerator) / term.denominator
        _expect(t <= x < t + 2 * mpf(10) ** -guard, "lower term")
    return term


def _exponent(report: dict) -> Fraction:
    """mu - 1 as the audits take it: the fraction with denominator <= 10^6 nearest it."""
    return Fraction(float(report["mu"]) - 1).limit_denominator(10**6)


def _guard(modulus: int) -> int:
    """Fractional digits an audit row carries past its shift n."""
    return 2 * len(str(modulus)) + 20


def _check_lemma_audit(report: dict, lemma: str, ns, endpoints, lower_exact: bool = True) -> None:
    """What every interval audit report of pi's convergent ``report["k"]``
    must follow: rows n over ``ns(q)``, and on row n the residues and both
    endpoints of ``endpoints(n, p, q)``, as ((r, s, c), lower, upper).  The
    row's value must be {pi 10^n} truncated to -value_error_exp digits,
    ``pass`` must say whether {pi 10^n} lies between the endpoints, and its
    margins must be value - lower and upper - value exactly.
    """
    _expect(report["lemma"] == lemma, f"not a {lemma} audit")
    k = report["k"]
    p, q = pi_convergent(k)
    _expect((report["p"], report["q"]) == (str(p), str(q)), f"p/q is not pi's convergent {k}")
    _expect(report["k_even"] == (k % 2 == 0), "k_even")
    rows = report["rows"]
    _expect([row["n"] for row in rows] == list(ns(q)), "row indices")
    decimals = _pi_decimals(max((row["n"] - row["value_error_exp"] for row in rows), default=0) + 10)
    for row in rows:
        n, e = row["n"], -row["value_error_exp"]  # the value is within 10^-e
        residues, lower, upper = endpoints(n, p, q)
        _expect((row["r"], row["s"], row["c"]) == residues, f"row {n}: residues")
        _expect((Fraction(row["lower"]), Fraction(row["upper"])) == (lower, upper), f"row {n}: endpoints")
        _expect(row["lower_exact"] is lower_exact, f"row {n}: lower_exact")
        places = e + 10  # the row was decided at e digits, so these decide it too
        x = int(decimals[n : n + places])  # {pi 10^n} lies in [x, x + 1) / 10^places
        value, one = x // 10**10, 10**e  # {pi 10^n} truncated to e digits: value / one
        _expect(_equals(row["value"], value, one), f"row {n}: value")
        passed = _below(lower, x, places) and not _below(upper, x, places)
        _expect(row["pass"] is passed, f"row {n}: pass")
        lo_num, lo_den = lower.numerator, lower.denominator
        up_num, up_den = upper.numerator, upper.denominator
        _expect(_equals(row["margin_lower"], value * lo_den - lo_num * one, one * lo_den), f"row {n}: margin_lower")
        _expect(_equals(row["margin_upper"], up_num * one - value * up_den, one * up_den), f"row {n}: margin_upper")


def check_caseI_audit(report: dict, n_max: int) -> None:
    """Every row of a caseI audit report, n from 1 to ``n_max`` while
    10^n <= q_k: with r = 10^n p mod q, {pi 10^n} between r/q + 10^n/(2q^2)
    and (r + 1)/q."""

    def endpoints(n, p, q):
        r = pow(10, n, q) * p % q
        return (r, None, None), Fraction(r, q) + Fraction(10**n, 2 * q * q), Fraction(r + 1, q)

    _check_lemma_audit(report, "caseI", lambda q: [n for n in range(1, n_max + 1) if 10**n <= q], endpoints)


def check_caseII_audit(report: dict, n_max: int) -> None:
    """Every row of a caseII audit report, n from the first with 10^n > q_k
    to ``n_max``: for r = 10^n p mod q and 10^n (p q + 1) = b q^2 + s q + c
    with 0 <= s, c < q, {pi 10^n} between r/q + q^-(mu-1) and s/q + c/q^2.
    The exponent mu - 1 is a/b, the fraction with b <= 10^6 nearest it; when
    b > 1 the term q^-(a/b) is the first row's printed lower minus r/q, within
    2 10^-g below its true value, g = 2 len(str(q)) + 20, and lower_exact is
    false."""
    exponent = _exponent(report)

    @functools.cache
    def term(p, q):
        first = report["rows"][0]
        return _power_term(q, exponent, _guard(q),
                           lambda: Fraction(first["lower"]) - Fraction(pow(10, first["n"], q) * p % q, q))

    def endpoints(n, p, q):
        r = pow(10, n, q) * p % q
        s, c = divmod(pow(10, n, q * q) * (p * q + 1) % (q * q), q)
        return (r, s, c), Fraction(r, q) + term(p, q), Fraction(s, q) + Fraction(c, q * q)

    _check_lemma_audit(report, "caseII", lambda q: range(len(str(q)), n_max + 1), endpoints,
                       lower_exact=exponent.denominator == 1)


def check_prime_audit(report: dict, n_max: int) -> None:
    """Every row of a prime-modulus audit report of pi's convergent p_k/q_k,
    n from 1 to ``n_max``.  The modulus is the least prime >= q_k, inside
    [q_k, q_k + ceil(q_k / ln q_k)].  Row n is case I while 10^n <= q_k and
    case II after; with r = 10^n p mod prime and 10^n (p q_k + 1) =
    b prime^2 + s prime + c, its endpoints are r/(2 prime), plus
    (2 prime)^-(mu-1) in case II, and (r + 1)/prime in case I, s/prime in
    case II.  Its value is {pi 10^n} truncated to n + 2 len(str(prime)) + 20
    digits, its residuals are value - lower and upper - value exactly, and
    each scaled column is its residual times prime^2."""
    _expect(report["lemma"] == "prime", "not a prime audit")
    k = report["k"]
    p, q = pi_convergent(k)
    _expect((report["p"], report["q_k"]) == (str(p), str(q)), f"p/q_k is not pi's convergent {k}")
    prime = sympy.nextprime(q - 1)
    _expect(report["q"] == str(prime), "q")
    with mp.workdps(30):
        window = [q, q + int(mp.ceil(mpf(q) / mp.log(q)))]
    _expect(report["window"] == window and prime <= window[1], "window")
    rows = report["rows"]
    _expect([row["n"] for row in rows] == list(range(1, n_max + 1)), "row indices")
    guard, modulus = _guard(prime), prime * prime
    decimals = _pi_decimals(2 * n_max + guard)

    def r_of(n):
        return pow(10, n, prime) * p % prime

    @functools.cache
    def term():  # (2 prime)^-(mu-1), printed on the first case II row
        first = next(row for row in rows if 10 ** row["n"] > q)
        return _power_term(2 * prime, _exponent(report), guard,
                           lambda: Fraction(first["lower"]) - Fraction(r_of(first["n"]), 2 * prime))

    for row in rows:
        n = row["n"]
        r = r_of(n)
        s, c = divmod(pow(10, n, modulus) * (p * q + 1) % modulus, prime)
        _expect((row["r"], row["s"], row["c"]) == (r, s, c), f"row {n}: residues")
        case_one = 10**n <= q
        _expect(row["case"] == ("I" if case_one else "II"), f"row {n}: case")
        lower = Fraction(r, 2 * prime) + (0 if case_one else term())
        upper = Fraction(r + 1 if case_one else s, prime)
        _expect((Fraction(row["lower"]), Fraction(row["upper"])) == (lower, upper), f"row {n}: endpoints")
        e = n + guard
        _expect(row["value_error_exp"] == -e, f"row {n}: value_error_exp")
        value, one = int(decimals[n : n + e]), 10**e  # {pi 10^n} truncated to e digits: value / one
        _expect(_equals(row["value"], value, one), f"row {n}: value")
        residuals = {
            "lower": (value * lower.denominator - lower.numerator * one, one * lower.denominator),
            "upper": (upper.numerator * one - value * upper.denominator, one * upper.denominator),
        }
        for side, (num, den) in residuals.items():
            _expect(_equals(row[f"residual_{side}"], num, den), f"row {n}: residual_{side}")
            _expect(_equals(row[f"scaled_{side}"], num * modulus, den), f"row {n}: scaled_{side}")


def check_coset(report: dict) -> None:
    """A ``coset --k`` report of pi's convergent p_k/q_k: H = {(p q + 1) 10^n
    mod q} and G = {p 10^n mod q}, built as Python sets over one period of
    10, against <10> and the coset p <10>; the order from sympy.n_order and
    the totient from sympy.totient."""
    k = report["k"]
    p, q = pi_convergent(k)
    _expect((report["p"], report["q"]) == (str(p), str(q)), f"p/q is not pi's convergent {k}")
    _expect(report["hypothesis_ok"] is True, "hypothesis_ok")
    order = n_order(10, q)
    _expect(report["order"] == order, "order")
    _expect(report["totient"] == sympy.totient(q), "totient")
    powers = [pow(10, n, q) for n in range(order)]
    ten = set(powers)
    h = {(p * q + 1) * x % q for x in powers}
    g = {p * x % q for x in powers}
    _expect(report["h_size"] == len(h), "h_size")
    _expect(report["g_size"] == len(g), "g_size")
    _expect(report["h_equals_subgroup"] is (h == ten), "h_equals_subgroup")
    _expect(report["g_equals_coset"] is (g == {p * x % q for x in ten}), "g_equals_coset")
    for key, elements in (("h_elements", h), ("g_elements", g)):
        _expect(report[key] is None or report[key] == sorted(elements), key)


def check_expsum(report: dict) -> None:
    """An ``expsum`` report: with H = <g> mod p of order sympy.n_order(g, p),
    |S(a)| = |sum over x in H of e(a x / p)| is constant on the cosets a H,
    so it is summed directly once per coset r^i H, r = sympy.primitive_root(p).
    max_magnitude must lie within 1e-9 order of the largest coset value, and
    argmax in a coset within that of it, where an mpmath sum must agree too;
    bound = exp(-(ln p)^c) order and ratio = max_magnitude / bound to 1e-15
    relative."""
    p, g = report["p"], report["g"]
    _expect(sympy.isprime(p) and p < 2**31, "p")  # products a x of residues fit int64 lanes
    order = n_order(g, p)
    _expect(report["order"] == order, "order")
    xs = np.empty(order, dtype=np.int64)
    x = 1
    for j in range(order):
        xs[j], x = x, x * g % p

    def magnitude(a):
        phase = 2 * np.pi * (a * xs % p) / p
        return math.hypot(math.fsum(np.cos(phase)), math.fsum(np.sin(phase)))

    # a H = b H exactly when a^order = b^order mod p: H is the subgroup of that order
    root = sympy.primitive_root(p)
    cosets = {pow(root, i * order, p): magnitude(pow(root, i, p)) for i in range((p - 1) // order)}
    top, tol = max(cosets.values()), 1e-9 * order
    mag, argmax = float(report["max_magnitude"]), report["argmax"]
    _expect(abs(mag - top) <= tol, "max_magnitude")
    _expect(0 < argmax < p and top - cosets[pow(argmax, order, p)] <= tol, "argmax")
    with mp.workdps(30):
        exact = abs(mp.fsum(mp.expjpi(mpf(2 * (argmax * int(x) % p)) / p) for x in xs))
        _expect(abs(exact - mag) <= tol, "argmax")
        bound = mp.exp(-mp.log(p) ** mpf(report["c"])) * order
        _expect(abs(mpf(report["bound"]) / bound - 1) <= 1e-15, "bound")
        _expect(abs(mpf(report["ratio"]) * bound / mpf(report["max_magnitude"]) - 1) <= 1e-15, "ratio")


_NUMERALS = {10: str, 16: lambda i: format(i, "x")}
_DIGIT_CHARS = "0123456789abcdefghijklmnopqrstuvwxyz"


def stoneham_text(b: int, c: int, s: int, count: int) -> str:
    """The first ``count`` base-b digits of sum_{n>=1} 1 / (c^n b^(c^n + s)),
    by long division one digit at a time.

    The terms with c^n + s <= count have the common denominator c^M, M the
    last such n; term n is c^(M-n) / c^M, entered at digit c^n + s, so the
    rest r stays below c^M.  Before term n enters, the fraction so far is a
    multiple of 1/c^(n-1) below 1, so r b + c^(M-n) < b c^M: no digit reaches
    b.  The terms past count add under 1/c^M at the last digit, where the
    fraction is at most 1 - 1/c^M, so they carry into no digit."""
    m = 0
    while c ** (m + 1) + s <= count:
        m += 1
    den, enters = c**m, {c**n + s: c ** (m - n) for n in range(1, m + 1)}
    r, out = 0, []
    for i in range(1, count + 1):
        digit, r = divmod(r * b + enters.get(i, 0), den)
        _expect(digit < b, f"digit {i - 1} carries")
        out.append(_DIGIT_CHARS[digit])
    return "".join(out)


def check_digits(digits: str, base: int, label: str) -> None:
    """The digit text of the stream ``label`` in ``base``: pi's fractional
    digits from mpmath, the numerals of 1, 2, 3, ... from itertools.count,
    joined, in base 10 or 16, or a Stoneham prefix by stoneham_text."""
    stoneham = re.fullmatch(r"stoneham-b(\d+)-c(\d+)-s(\d+)", label)
    if label == "pi" and base == 10:
        want = _pi_decimals(len(digits))
    elif label == f"concat-integers-b{base}" and base in _NUMERALS:
        want = "".join(map(_NUMERALS[base], itertools.islice(itertools.count(1), len(digits))))[: len(digits)]
    elif stoneham and int(stoneham[1]) == base:
        want = stoneham_text(base, int(stoneham[2]), int(stoneham[3]), len(digits))
    else:
        raise ValueError(f"no derivation of {label!r} in base {base}")
    if digits != want:
        first = next(i for i, (a, b) in enumerate(zip(digits, want)) if a != b)
        raise AssertionError(f"digit {first}")


def check_discrepancy(report: dict, digits: str, shift_digits: int = 24) -> None:
    """The star discrepancy of a ``report`` or ``report --const`` report over
    the digit text ``digits``: point n = 1..N is the code c_n / b^S, c_n the
    integer of digits n .. n + S - 1 (digit 0 first), which the shift's
    point lies within point_eps of.  D* = max_i max(i / N - u_(i), u_(i) -
    (i - 1) / N) over the codes sorted as ints, an exact Fraction, must lie
    within point_eps of the printed D*, as moving each point by at most eps
    moves D* by at most eps."""
    base, n = report["base"], report["n_points"]
    _expect(len(digits) >= n + shift_digits, "digits")
    scale = base**shift_digits
    codes = sorted(int(digits[i : i + shift_digits], base) for i in range(1, n + 1))
    worst = max(max(i * scale - c * n, c * n - (i - 1) * scale) for i, c in enumerate(codes, start=1))
    printed = Fraction(float(report["star_discrepancy"]))
    _expect(abs(printed - Fraction(worst, n * scale)) <= Fraction(float(report["point_eps"])), "star_discrepancy")


def digit_file_text(data: str) -> str:
    """The digit text of a digit file's contents: every line after the
    header, joined."""
    return "".join(data.splitlines()[1:])


def _within_2_ulp(printed, exact: Fraction, scale: Fraction) -> bool:
    """Whether the printed float lies within 2 ulp of ``scale`` of ``exact``."""
    return abs(Fraction(float(printed)) - exact) <= 2 * Fraction(math.ulp(float(scale)))


def check_blocks(report: dict, digits: str) -> None:
    """The block statistics of a ``normality`` or ``report --in`` report over
    the first N characters of the digit text ``digits``, N its n_digits or
    n_points.  For each k = 1, 2, ..., with P = base^k patterns and
    W = N - k + 1 windows, the counts c come from collections.Counter over
    the text's k-windows, an absent pattern counting 0.  windows is W, dof
    P - 1, and counts, where printed, the nonzero c by pattern.  chi_square
    = P sum c^2 / W - W and max_abs_dev = D = max |c P - W| / (W P) are
    exact Fractions.  The printed chi_square must lie within 2 ulp of its
    value, and max_abs_dev within 2 ulp of 1/P + D: pilab takes it as
    |c / W - 1/P| in float64, three roundings of values at most 1/P + D,
    and the subtraction cancels (2.2 ulp of D itself at base 10, k = 1)."""
    base = report["base"]
    n = report["n_digits"] if "n_digits" in report else report["n_points"]
    text = digits[:n]
    _expect(len(text) == n and set(text) <= set(_DIGIT_CHARS[:base]), "digits")
    blocks = report["blocks"]
    _expect(list(blocks) == [str(k) for k in range(1, len(blocks) + 1)], "block lengths")
    for k, row in enumerate(blocks.values(), start=1):
        patterns, windows = base**k, n - k + 1
        counts = Counter(text[i : i + k] for i in range(windows))
        _expect(row["windows"] == windows, f"k={k}: windows")
        _expect(row["dof"] == patterns - 1, f"k={k}: dof")
        _expect("counts" not in row or row["counts"] == dict(counts), f"k={k}: counts")
        chi = Fraction(patterns * sum(c * c for c in counts.values()), windows) - windows
        worst = max(abs(c * patterns - windows) for c in counts.values())
        if len(counts) < patterns:
            worst = max(worst, windows)  # |0 P - W| for a pattern never seen
        dev = Fraction(worst, windows * patterns)
        _expect(_within_2_ulp(row["chi_square"], chi, chi), f"k={k}: chi_square")
        _expect(_within_2_ulp(row["max_abs_dev"], dev, dev + Fraction(1, patterns)), f"k={k}: max_abs_dev")

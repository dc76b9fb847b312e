"""Audit verdicts derived again from a report's JSON, independently of pilab.

Nothing here imports pilab.  The convergent comes from the continued
fraction of an mpmath interval around pi, the residues from ``pow``, the
endpoints from the lemma statements in ``Fraction``s, and every comparison
with {pi 10^n} from mpmath's digits of pi.  ``check_caseII_audit`` raises
AssertionError at the first field that does not follow.
"""

from fractions import Fraction

from mpmath import mp, mpf


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(what)


def pi_digits(count: int) -> int:
    """floor(pi * 10^count), from mpmath with 20 digits to spare."""
    with mp.workdps(count + 20):
        return int(mp.floor(mp.pi * mpf(10) ** count))


def pi_convergent(k: int, digits: int = 100) -> tuple[int, int]:
    """(p_k, q_k) of pi: the quotients a_0..a_k shared by the continued
    fractions of both ends of [P, P + 1] / 10^digits, which holds pi."""
    big = pi_digits(digits)
    ends = [Fraction(big, 10**digits), Fraction(big + 1, 10**digits)]
    p, p_prev, q, q_prev = 1, 0, 0, 1
    for i in range(k + 1):
        a = {end.numerator // end.denominator for end in ends}
        if len(a) != 1:
            raise ValueError(f"{digits} digits of pi do not pin quotient {i}")
        a = a.pop()
        p, p_prev, q, q_prev = a * p + p_prev, p, a * q + q_prev, q
        ends = [1 / (end - a) for end in ends]
    return p, q


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


def check_caseII_audit(report: dict, n_max: int) -> None:
    """Every row of a caseII audit report of pi's convergent ``report["k"]``,
    n from the first with 10^n > q_k to ``n_max``.

    For r = 10^n p mod q, 10^n (p q + 1) = b q^2 + s q + c with 0 <= s, c < q,
    and integral mu, row n checks {pi 10^n} between r/q + q^-(mu-1) and
    s/q + c/q^2; its value must be {pi 10^n} truncated to -value_error_exp
    digits, and its margins value - lower and upper - value exactly.
    """
    _expect(report["lemma"] == "caseII", "not a caseII audit")
    k = report["k"]
    p, q = pi_convergent(k)
    _expect((report["p"], report["q"]) == (str(p), str(q)), f"p/q is not pi's convergent {k}")
    _expect(report["k_even"] == (k % 2 == 0), "k_even")
    mu = Fraction(report["mu"])
    if mu.denominator != 1:
        raise ValueError(f"mu = {report['mu']} is not integral; its endpoint is not derived here")
    term = Fraction(1, q ** int(mu - 1))
    rows = report["rows"]
    _expect([row["n"] for row in rows] == list(range(len(str(q)), n_max + 1)), "row indices")
    width = max(row["n"] - row["value_error_exp"] for row in rows) + 10
    decimals = str(pi_digits(width))[1:]  # pi's first ``width`` decimals
    for row in rows:
        n, e = row["n"], -row["value_error_exp"]  # the value is within 10^-e
        r = pow(10, n, q) * p % q
        s, c = divmod(pow(10, n, q * q) * (p * q + 1) % (q * q), q)
        _expect((row["r"], row["s"], row["c"]) == (r, s, c), f"row {n}: residues")
        lower = Fraction(r, q) + term
        upper = Fraction(s, q) + Fraction(c, q * q)
        _expect((Fraction(row["lower"]), Fraction(row["upper"])) == (lower, upper), f"row {n}: endpoints")
        _expect(row["lower_exact"] is True, f"row {n}: lower_exact")
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

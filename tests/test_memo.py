"""The one constants memo: prefix serving, shared binary log internals, and
the audit rows decided on its digits by integer cross-multiplication."""

import hashlib
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from pilab import cf, cli, constants
from pilab.cf import InsufficientPrecisionError, frac_pi_shift
from pilab.radix import DigitStream, digits_from_text, read_digit_file


@pytest.fixture
def pi_calls(monkeypatch):
    """An empty memo, and a list that grows by one per run of the pi engines."""
    monkeypatch.setattr(constants, "_memo", {})
    calls = []
    engine = constants._ENGINES["pi"]

    def counting(w):
        calls.append(w)
        return engine(w)

    monkeypatch.setitem(constants._ENGINES, "pi", counting)
    return calls


@pytest.mark.parametrize("second_cpu", [True, False], ids=["forked", "inline"])
def test_standalone_audit_runs_pi_engines_twice(monkeypatch, tmp_path, pi_calls, second_cpu):
    # once for the convergent's 96 digits, once for the rows' 2 * 1500 + 36;
    # neither the forked child nor a row runs them again
    monkeypatch.setattr(constants, "_second_cpu", lambda: second_cpu)
    argv = ["audit", "--lemma", "caseII", "--k", "12", "--nmax", "1500",
            "--out", str(tmp_path / "audit.json")]
    assert cli.main(argv) == 0
    assert len(pi_calls) == 2
    assert constants._memo["pi"][0] == 3036


@pytest.mark.parametrize("build", [cf.audit_lemma_caseII, cf.audit_lemma_prime_variant],
                         ids=["caseII", "prime"])
def test_built_audit_holds_the_pi_its_rows_read(pi_calls, build):
    conv = cf.pi_convergents(12)[12]
    audit = build(conv, cf.AuditConfig(n_max=300))
    modulus = audit.prime if build is cf.audit_lemma_prime_variant else audit.q
    assert constants._memo["pi"][0] == 2 * 300 + cf._guard_digits(modulus)
    calls = len(pi_calls)
    assert len(list(audit.rows)) == len(audit.rows)
    assert [row.n for row in audit.rows[100:140:3]] == list(audit.rows.ns[100:140:3])
    assert len(pi_calls) == calls


def test_certify_sequence_runs_pi_engines_once(tmp_path, pi_calls):
    for name, digits in (("pi", 30000), ("ln10", 10000), ("ln_pi", 10000)):
        argv = ["constants", "--name", name, "--digits", str(digits),
                "--out", str(tmp_path / f"{name}.digits")]
        assert cli.main(argv) == 0
    argv = ["audit", "--lemma", "caseII", "--k", "12", "--nmax", "1500",
            "--out", str(tmp_path / "audit.json")]
    assert cli.main(argv) == 0
    assert len(pi_calls) == 1


def _cli_stdout(capsys, monkeypatch, *argv):
    monkeypatch.setattr(constants, "_memo", {})
    assert cli.main(list(argv)) == 0
    return capsys.readouterr().out


def _sealed_pi_file(path, digits):
    """A digit file with the header earlier versions' pi cache entries carried,
    ``engine=1`` and the SHA-256 of the digit text."""
    text = DigitStream.from_digits(digits).prefix_string(len(digits))
    seal = f"engine=1 sha256={hashlib.sha256(text.encode()).hexdigest()}"
    rows = [text[i : i + 80] for i in range(0, len(text), 80)]
    path.write_text("\n".join([f"base=10 count={len(text)} {seal} label=pi", *rows]) + "\n")


def test_cf_and_coset_ignore_a_corrupt_cache(tmp_path, monkeypatch, capsys):
    # every printed digit comes from this process: a PI_LAB_CACHE directory
    # holding a well-sealed pi.digits with one wrong digit past the first
    # 1000 changes no output, and is neither read into nor written to
    runs = (("constants", "--name", "pi", "--digits", "1500"),
            ("report", "--const", "pi", "--N", "1400"),
            ("cf", "--depth", "12"), ("coset", "--k", "8"))
    want = [_cli_stdout(capsys, monkeypatch, *argv) for argv in runs]
    forged = bytearray(digits_from_text(constants.certified_digits("pi", 1500)[:1500]))
    forged[1199] = (forged[1199] + 1) % 10  # digit 1200
    cache = tmp_path / "cache"
    cache.mkdir()
    _sealed_pi_file(cache / "pi.digits", bytes(forged))
    assert read_digit_file(cache / "pi.digits").prefix(1500) == forged  # the digest checks
    before = {path.name: path.read_bytes() for path in cache.iterdir()}
    monkeypatch.setenv("PI_LAB_CACHE", str(cache))
    assert [_cli_stdout(capsys, monkeypatch, *argv) for argv in runs] == want
    assert {path.name: path.read_bytes() for path in cache.iterdir()} == before

    empty = tmp_path / "fresh"
    monkeypatch.setenv("PI_LAB_CACHE", str(empty))
    assert [_cli_stdout(capsys, monkeypatch, *argv) for argv in runs[:2]] == want[:2]
    assert not empty.exists()


def test_memo_served_prefixes_equal_fresh_computation(monkeypatch, pi_calls):
    sizes = (1, 64, 1000, 11015)
    constants._certify("pi", 2 * sizes[-1])
    assert len(pi_calls) == 1
    served = {n: (constants._certified_scaled("pi", n), constants.certified_digits("pi", n)[:n])
              for n in sizes}
    assert len(pi_calls) == 1
    for n in sizes:
        monkeypatch.setattr(constants, "_memo", {})
        fresh = (constants._certified_scaled("pi", n), constants.certified_digits("pi", n))
        assert served[n] == fresh
        assert len(fresh[1]) == n


def test_memo_certifies_exactly_the_width_asked(pi_calls):
    assert constants._certify("pi", 100)[0] == 100
    assert constants._certify("pi", 101)[0] == 101
    assert len(pi_calls) == 2
    assert constants._certify("pi", 60)[0] == 101  # served from the entry
    assert constants.certified_digits("pi", 101) == constants._memo["pi"][1]
    assert len(pi_calls) == 2


@pytest.mark.parametrize("drop", [1, 7, 300])
def test_shifted_down_ln2_within_derived_bound(monkeypatch, drop):
    # each held series 2 atanh(1/q) is one _arc_series sum: 2 binary ulp
    monkeypatch.setattr(constants, "_memo", {})
    bits = 2000
    held = constants._smooth_bin(bits + drop)
    one = 2 << bits + drop  # atanh(1/q) at twice the scale is 2 atanh(1/q)
    assert held == tuple(constants._arc_series(1, q, one) for q in constants._SMOOTH_Q)
    served = constants._smooth_bin(bits)
    assert served == tuple(t >> drop for t in held)
    mp.prec = bits + 200
    for q, t in zip(constants._SMOOTH_Q, served):
        err = abs(mpf(t) - 2 * mp.atanh(mpf(1) / q) * mpf(2) ** bits)
        assert err <= mpf(2) / 2**drop + 1  # a shift adds at most one ulp
        assert err <= 2  # so the unshifted bound still holds


def test_memo_holds_only_what_is_read_back(monkeypatch):
    # the certify sequence with every pair in this process: the Newton engine
    # reads no pi and no logarithm of its own, so nothing of it is held; the
    # four series behind ln 2, ln 5 and ln 7 are read back, by ln_pi at ln10's
    # bits
    monkeypatch.setattr(constants, "_memo", {})
    monkeypatch.setattr(constants, "_fork_pays", lambda w, floor=None: False)
    for name, digits in (("pi", 30000), ("ln10", 10000), ("ln_pi", 10000)):
        constants.certified_digits(name, digits)
    assert set(constants._memo) == {"pi", "ln10", "ln_pi", "smooth"}


def _fraction_value_with_margin(lower, upper, n, q):
    """The audit row decision as Fraction comparisons, the reference logic."""
    prec = n + 2 * len(str(q)) + 20
    for _ in range(4):
        v = frac_pi_shift(n, prec)
        eps = Fraction(1, 10**prec)
        lower_ok = v >= lower
        lower_fail = v + eps <= lower
        upper_ok = v + eps <= upper
        upper_fail = v > upper
        if (lower_ok or lower_fail) and (upper_ok or upper_fail):
            return v, -prec, lower_ok and upper_ok
        prec *= 2
    raise InsufficientPrecisionError(n)


def _rows(n, q):
    """Endpoints on {pi 10^n} truncated to P digits, which the first pass at
    prec digits cannot decide when P > prec: P <= 2 prec needs one doubling,
    P <= 4 prec two, and P > 8 prec exhausts the four passes.  At P = prec an
    endpoint equals the first pass's value or that value plus 10^-prec, so a
    margin is exactly 0 or +-10^-prec there."""
    prec = n + 2 * len(str(q)) + 20
    rows = []
    for places in (prec // 2, prec, prec + 5, 2 * prec, 2 * prec + 3, 4 * prec, 9 * prec):
        below = frac_pi_shift(n, places)
        above = below + Fraction(1, 10**places)
        rows += [
            (below, Fraction(1)), (above, Fraction(1)),
            (Fraction(0), below), (Fraction(0), above),
            (below, above), (Fraction(q - 1, q), above),
        ]
    return prec, rows


@pytest.mark.parametrize("n,q", [(1, 113), (40, 33102), (300, 3_245_263_411)])
def test_integer_row_decision_matches_fraction_logic(n, q):
    prec, rows = _rows(n, q)
    exps = set()
    for lower, upper in rows:
        try:
            want = _fraction_value_with_margin(lower, upper, n, q)
        except InsufficientPrecisionError:
            with pytest.raises(InsufficientPrecisionError):
                cf._row_value(lower, upper, n, q)
            exps.add(None)
            continue
        value, below, above, passed = cf._row_value(lower, upper, n, q)
        assert (Fraction(value), -value.exp, passed) == want
        assert (below, above) == (Fraction(value) - lower, upper - Fraction(value))
        exps.add(-value.exp)
    assert {-prec, -2 * prec, -4 * prec, None} <= exps

"""Each constant engine on its own against mpmath and against pinned bits,
plus the digit-stream ceiling."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from sympy import factorint

from pilab import _int, constants
from pilab.constants import MethodDisagreementError, const_digits
from pilab.radix import ProducerExhaustedError


def _floor_scaled(value, w):
    return int(mp.floor(value * mpf(10) ** w))


def _pi_hat(w):
    """The ln pi engines' argument: the certified truncation P / 10^(w+5)."""
    return constants._certified_scaled("pi", w + 5), 10 ** (w + 5)


# 3000 digits, and the working scale of pi 30000 / ln 10000 digit requests
PI_SCALES = [3000, constants._working_digits(30000)]
LOG_SCALES = [3000, constants._working_digits(10000)]


@pytest.mark.parametrize("w", PI_SCALES)
@pytest.mark.parametrize("engine", ["ramanujan", "chudnovsky"])
def test_pi_engine_against_mpmath(engine, w):
    one = 10**w
    got = constants._pi_ramanujan(one, w) if engine == "ramanujan" else constants._pi_chudnovsky(one, w)
    mp.dps = w + 20
    assert abs(got - _floor_scaled(mp.pi, w)) <= constants._AGREE_ULP


@pytest.mark.parametrize("w", [40, 120, 1020, 3010, 10020, 30020])
def test_ramanujan_within_derived_bound(w):
    mp.dps = w + 20
    # tail under 10^-5 ulp, cut under 2^-30 ulp, one floor: within 2 ulp
    assert abs(constants._pi_ramanujan(10**w, w) - _floor_scaled(mp.pi, w)) <= 2


@pytest.mark.parametrize("mutation", ["1124", "21461", "three_terms_fewer"])
def test_mutated_ramanujan_series_is_caught(monkeypatch, mutation):
    if mutation == "three_terms_fewer":
        exact = constants._split

        def split(leaf, a, b, *rest):
            # the top call only (the recursion gets the wrapped leaf): the last
            # three terms add nothing to T, and Q, which the caller shifts by
            # its own count of terms, keeps every factor
            if leaf is constants._ramanujan_leaf:
                def leaf(k, whole=leaf, last=b - 3):
                    p, q, d, t = whole(k)
                    return p, q, d, t if k < last else 0
            return exact(leaf, a, b, *rest)

        monkeypatch.setattr(constants, "_split", split)
    else:
        exact_leaf = constants._ramanujan_leaf
        a, b = (1124, 21460) if mutation == "1124" else (1123, 21461)

        def leaf(k):
            p, q, _, _ = exact_leaf(k)
            return p, q, 1, p * (a + b * k)

        monkeypatch.setattr(constants, "_ramanujan_leaf", leaf)
    monkeypatch.setattr(constants, "_memo", {})
    with pytest.raises(MethodDisagreementError):
        const_digits("pi", 100)


def _four_product_split(leaves, a, b):
    """(P, Q, B, T) over leaves[a:b] by the plain recursion: all four products
    at every node, each q as given."""
    if b - a == 1:
        return leaves[a]
    m = (a + b) // 2
    p1, q1, b1, t1 = _four_product_split(leaves, a, m)
    p2, q2, b2, t2 = _four_product_split(leaves, m, b)
    return p1 * p2, q1 * q2, b1 * b2, b2 * q2 * t1 + b1 * p1 * t2


_SIGNED = st.integers(min_value=-(2**80), max_value=2**80)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(leaves=st.lists(st.tuples(_SIGNED, _SIGNED, _SIGNED, _SIGNED), min_size=1, max_size=40),
       shift=st.integers(min_value=0, max_value=64), a=st.integers(min_value=0, max_value=3))
def test_split_matches_four_product_reference(leaves, shift, a):
    # _split reads leaf(k) = leaves[k - a], each q held as q / 2^shift
    leaf, b = (lambda k: leaves[k - a]), a + len(leaves)
    p, q, d, t = _four_product_split([(p, q << shift, d, t) for p, q, d, t in leaves], 0, len(leaves))
    got_p, got_q, got_d, got_t = constants._split(leaf, a, b, shift)
    assert (got_q << shift * len(leaves), got_d, got_t) == (q, d, t)
    assert got_p == (None if len(leaves) > 1 else leaves[0][0])  # the root's P is not built
    assert constants._split(leaf, a, b, shift, True) == (p, got_q, d, t)
    # the first term's q never reaches T: given whole, it leaves T as it was
    first = [(leaves[0][0], leaves[0][1] << shift, *leaves[0][2:])] + leaves[1:]
    assert constants._split(lambda k: first[k - a], a, b, shift)[3] == t


def test_ramanujan_half_takes_no_square_root(monkeypatch):
    exact, roots = _int.isqrt, []

    def recording(n):
        roots.append(n)
        return exact(n)

    monkeypatch.setattr(constants, "isqrt", recording)  # the engines' root is _int.isqrt
    w = 3010
    constants._pi_ramanujan(10**w, w)
    assert roots == []
    constants._pi_chudnovsky(10**w, w)
    assert len(roots) == 1  # the recording sees Chudnovsky's one root


@pytest.mark.parametrize("w", LOG_SCALES)
@pytest.mark.parametrize("engine", [constants._ln_rational_atanh, constants._ln_rational_newton])
@pytest.mark.parametrize("name", ["ln10", "ln_pi"])
def test_log_engine_against_mpmath(name, engine, w):
    num, den = (10, 1) if name == "ln10" else _pi_hat(w)
    mp.dps = w + 20
    want = _floor_scaled(mp.log(10) if name == "ln10" else mp.log(mp.pi), w)
    assert abs(engine(num, den, w) - want) <= constants._AGREE_ULP


EDGE_ARGUMENTS = {
    "below_one": (1, 3),
    "just_above_one": (10**50 + 1, 10**50),
    "power_of_two": (2**40, 1),
    "inverse_power_of_two": (1, 128),
    "tiny": (7, 10**400),
    "pi_like": (31415926535897932384626433832795028841971, 10**40),
}


@pytest.mark.parametrize("w", [40, 600])
@pytest.mark.parametrize("engine", [constants._ln_rational_atanh, constants._ln_rational_newton])
@pytest.mark.parametrize("arg", sorted(EDGE_ARGUMENTS))
def test_log_engines_on_edge_arguments(arg, engine, w):
    num, den = EDGE_ARGUMENTS[arg]
    mp.dps = w + 450
    want = _floor_scaled(mp.log(mpf(num) / den), w)
    assert abs(engine(num, den, w) - want) <= 2


# Both bit-burst primaries read every series behind ln 2, ln 5 and ln 7, and
# neither check engine reads any.
@pytest.mark.parametrize("q", constants._SMOOTH_Q)
def test_perturbed_ln2_in_one_method_is_caught(monkeypatch, q):
    exact, i = constants._smooth_bin, constants._SMOOTH_Q.index(q)

    def perturbed(bits):
        series = list(exact(bits))
        series[i] += series[i] >> 200  # 2^-200 relative
        return tuple(series)

    monkeypatch.setattr(constants, "_smooth_bin", perturbed)
    for name in ("ln10", "ln_pi"):
        monkeypatch.setattr(constants, "_memo", {})
        with pytest.raises(MethodDisagreementError):
            const_digits(name, 100)


def test_perturbed_exp_in_ln_pi_is_caught(monkeypatch):
    exact = constants._exp_ratio

    def perturbed(y, p):
        u, v = exact(y, p)
        return u + (v >> 200), v  # exp(y) + 2^-200 at every width

    monkeypatch.setattr(constants, "_exp_ratio", perturbed)
    monkeypatch.setattr(constants, "_memo", {})
    with pytest.raises(MethodDisagreementError):
        const_digits("ln_pi", 100)


def test_newton_without_its_last_step_is_caught(monkeypatch):
    monkeypatch.setattr(constants, "_memo", {})
    w = constants._working_digits(100)
    bits, pi_hat = constants._bits_for(w), _pi_hat(w)
    exact = constants._exp_ratio
    # exp(y) read as pi_hat itself at the last width: that step adds exactly
    # 0, so the engine returns its quarter-width iterate
    monkeypatch.setattr(constants, "_exp_ratio", lambda y, p: pi_hat if p == bits else exact(y, p))
    with pytest.raises(MethodDisagreementError):
        const_digits("ln_pi", 100)


def test_ln_pi_primary_moved_by_100_ulp_is_caught(monkeypatch):
    exact = constants._ln_rational_atanh
    monkeypatch.setattr(constants, "_ln_rational_atanh",
                        lambda num, den, w, smooth: exact(num, den, w, smooth) + 100)
    monkeypatch.setattr(constants, "_memo", {})
    with pytest.raises(MethodDisagreementError):
        const_digits("ln_pi", 100)


@pytest.mark.parametrize("q", [31, 49, 161])
def test_perturbed_acoth_series_in_ln10_is_caught(monkeypatch, q):
    exact = constants._arc_series

    def perturbed(p, q_, one):
        return exact(p, q_, one) + (one >> 200 if (p, q_) == (1, q) else 0)

    monkeypatch.setattr(constants, "_arc_series", perturbed)
    monkeypatch.setattr(constants, "_memo", {})
    with pytest.raises(MethodDisagreementError):
        const_digits("ln10", 100)


def test_ln10_halves_share_no_series_argument(monkeypatch):
    exact = constants._arc_series
    calls = []

    def recording(p, q, one):
        calls.append((p, q))
        return exact(p, q, one)

    monkeypatch.setattr(constants, "_arc_series", recording)
    monkeypatch.setattr(constants, "_memo", {})  # held series would hide their calls
    constants._ln_rational_atanh(10, 1, 600, constants._SMOOTH["ln10"])
    primary, calls[:] = set(calls), []
    constants._ln10_acoth(600)
    assert not primary & set(calls)
    assert primary == {(1, 251), (1, 449), (1, 4801), (1, 8749)}
    assert set(calls) == {(1, 31), (1, 49), (1, 161)}


def test_smooth_weights_invert_the_ratios_exponents():
    # (q + 1)/(q - 1) = 2^a 3^b 5^c 7^d for each series, factored afresh; the
    # weight rows of ln 2, ln 5 and ln 7 times that matrix are rows of the
    # identity, in exact integers
    exponents = []
    for q in constants._SMOOTH_Q:
        up, down = factorint(q + 1), factorint(q - 1)
        assert set(up) | set(down) <= {2, 3, 5, 7}
        exponents.append([up.get(p, 0) - down.get(p, 0) for p in (2, 3, 5, 7)])
    product = [[sum(c * row[j] for c, row in zip(weights, exponents)) for j in range(4)]
               for weights in constants._LN_WEIGHTS]
    assert product == [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


def test_smooth_parts_leave_the_rests_the_primaries_expect():
    i, j, k = constants._SMOOTH["ln10"]
    assert 2**i * 5**j * 7**k == 10  # no rest
    i, j, k = constants._SMOOTH["ln_pi"]
    mp.dps = 50
    rest = mp.pi / (mpf(2) ** i * mpf(5) ** j * mpf(7) ** k)
    assert 1 <= rest < 1 + mpf(2) ** -16


def test_weighted_series_are_ln_2_5_7_within_derived_bound(monkeypatch):
    monkeypatch.setattr(constants, "_memo", {})
    bits = constants._bits_for(3000)
    series = constants._smooth_bin(bits)
    mp.prec = bits + 64
    for p, weights in zip((2, 5, 7), constants._LN_WEIGHTS):
        got = sum(c * t for c, t in zip(weights, series))
        # each series within 2 binary ulp
        assert abs(got - mp.log(p) * mpf(2) ** bits) <= 2 * sum(map(abs, weights))


@pytest.mark.parametrize("w", [40, 600, 10020])
def test_ln_pi_primary_runs_no_stage_below_32(monkeypatch, w):
    exact = constants._log1p_series
    stages = []

    def recording(a, s, bits):
        stages.append(s)
        return exact(a, s, bits)

    num, den = _pi_hat(w)
    monkeypatch.setattr(constants, "_log1p_series", recording)
    monkeypatch.setattr(constants, "_memo", {})
    constants._ln_rational_atanh(num, den, w, constants._SMOOTH["ln_pi"])
    assert stages and min(stages) == 32
    assert all(s & s - 1 == 0 for s in stages)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data(), s=st.sampled_from([1 << j for j in range(4, 16)]),  # 16, 32, ..., 2^15
       bits=st.integers(min_value=64, max_value=4000))
def test_log1p_stage_within_2_ulp(data, s, bits):
    a = data.draw(st.integers(min_value=1, max_value=(1 << s // 2) - 1))
    got = constants._log1p_series(a, s, bits)
    mp.prec = max(bits, a.bit_length()) + 64
    assert abs(got - mp.log1p(mpf(a) / mpf(2) ** s) * mpf(2) ** bits) <= 2
    # the atanh stage it replaces, 2 atanh(a / (2^(s+1) + a)), errs by 4
    assert abs(got - 2 * constants._arc_series(a, (1 << s + 1) + a, 1 << bits)) <= 6


@pytest.mark.parametrize("w", [600, 10020])
def test_ln10_primary_sums_only_the_four_series(monkeypatch, w):
    exact = constants._arc_series
    calls = []

    def recording(p, q, one):
        calls.append((p, q, one.bit_length() - 1))
        return exact(p, q, one)

    monkeypatch.setattr(constants, "_arc_series", recording)
    monkeypatch.setattr(constants, "_memo", {})
    bits = constants._bits_for(w)
    constants._ln_rational_atanh(10, 1, w, constants._SMOOTH["ln10"])
    assert calls == [(1, q, bits + 1) for q in (251, 449, 4801, 8749)]
    constants._ln_rational_atanh(10, 1, w - 1, constants._SMOOTH["ln10"])
    assert len(calls) == 4  # served lower from the held series


@pytest.mark.parametrize("w", [120] + LOG_SCALES)
@pytest.mark.parametrize("name", ["ln10", "ln_pi"])
def test_log_primary_against_mpmath(monkeypatch, name, w):
    monkeypatch.setattr(constants, "_memo", {})
    num, den = (10, 1) if name == "ln10" else _pi_hat(w)
    mp.dps = w + 20
    want = _floor_scaled(mp.log(10) if name == "ln10" else mp.log(mp.pi), w)
    assert abs(constants._ln_rational_atanh(num, den, w, constants._SMOOTH[name]) - want) <= 2


def _atanh_1_3_bit_burst(num, den, w):
    """The primary before the four series: k 2 atanh(1/3) after the
    power-of-two reduction, then every stage from s = 1."""
    bits = constants._bits_for(w)
    k = num.bit_length() - den.bit_length()
    if k >= 0:
        den <<= k
    else:
        num <<= -k
    if num < den:
        num <<= 1
        k -= 1
    total = k * 2 * constants._arc_series(1, 3, 1 << bits)
    s = 1
    while s < 2 * bits and num != den:
        a = ((num - den) << s) // den
        if a:
            total += 2 * constants._arc_series(a, (1 << s + 1) + a, 1 << bits)
            num <<= s
            den *= (1 << s) + a
        s *= 2
    return constants._bin_to_decimal(total, bits, w)


@pytest.mark.parametrize("w", [3010, 10020, 30020])
@pytest.mark.parametrize("name", ["ln10", "ln_pi"])
def test_primary_equals_atanh_1_3_bit_burst(monkeypatch, name, w):
    monkeypatch.setattr(constants, "_memo", {})
    num, den = (10, 1) if name == "ln10" else _pi_hat(w)
    got = constants._ln_rational_atanh(num, den, w, constants._SMOOTH[name])
    assert got == _atanh_1_3_bit_burst(num, den, w)


def test_ln10_certified_against_mpmath_at_30000_digits(monkeypatch):
    monkeypatch.setattr(constants, "_memo", {})
    mp.dps = 30020
    assert constants._certified_scaled("ln10", 30000) == _floor_scaled(mp.log(10), 30000)


def test_ln_pi_certified_against_mpmath_at_30000_digits(monkeypatch):
    monkeypatch.setattr(constants, "_memo", {})
    mp.dps = 30020
    assert constants._certified_scaled("ln_pi", 30000) == _floor_scaled(mp.log(mp.pi), 30000)


def test_stream_growth_clamps_to_ceiling(monkeypatch):
    monkeypatch.setattr(constants, "DIGIT_CEILING", 1000)
    stream = const_digits("pi", 600)
    stream.ensure(700)  # the memo's doubling growth would ask for 1200 digits
    mp.dps = 1020
    want = str(_floor_scaled(mp.pi, 1000))[1:]
    assert stream.prefix_string(1000) == want
    with pytest.raises(ProducerExhaustedError):
        stream.ensure(1001)


# SHA-256 of str() of each engine integer; the mpmath tests allow +-64 ulp,
# these pin the exact bits.  At these widths Ramanujan and Chudnovsky land on the
# same integer, and so do the ln 10 engines: the primary as its pair runs it,
# the bit-burst of 10 / 2^3 after 3 ln 2, Newton and the acoth formula.
ENGINE_BITS = {
    "ramanujan": ("0b54fe20ef4d7676270cf6ff74c69cd2ef87921bfddbdd149617d8016d066879",
                  lambda: constants._pi_ramanujan(10**3010, 3010)),
    "chudnovsky": ("0b54fe20ef4d7676270cf6ff74c69cd2ef87921bfddbdd149617d8016d066879",
                   lambda: constants._pi_chudnovsky(10**3010, 3010)),
    "atanh_1_3": ("e6f9f0f94d1f321cf178f837c5b7746a6dada8c29e3b6e1c68325bce2001f150",
                  lambda: constants._arc_series(1, 3, 1 << 10000)),
    "ln10_atanh": ("a82884a6f80b4449734333f941b19aae70f862ae28b9475544a44fe1fbbcfeec",
                   lambda: constants._ln_rational_atanh(10, 1, 3010, constants._SMOOTH["ln10"])),
    "ln10_bit_burst": ("a82884a6f80b4449734333f941b19aae70f862ae28b9475544a44fe1fbbcfeec",
                       lambda: constants._ln_rational_atanh(10, 1, 3010)),
    "ln10_newton": ("a82884a6f80b4449734333f941b19aae70f862ae28b9475544a44fe1fbbcfeec",
                    lambda: constants._ln_rational_newton(10, 1, 3010)),
    "ln10_acoth": ("a82884a6f80b4449734333f941b19aae70f862ae28b9475544a44fe1fbbcfeec",
                   lambda: constants._ln10_acoth(3010)),
    # the widths certify works at: pi 30 000 digits, ln 10 and ln pi 10 000
    "ramanujan_30020": ("532e0729f7d7f99dbf349c560b14475b4b6308b590e69480846038e8c587f662",
                        lambda: constants._pi_ramanujan(10**30020, 30020)),
    "chudnovsky_30020": ("532e0729f7d7f99dbf349c560b14475b4b6308b590e69480846038e8c587f662",
                         lambda: constants._pi_chudnovsky(10**30020, 30020)),
    "ln10_atanh_10020": ("5dd867440b57f66a91c0051c2966156c9fcec0beea04cc802351b964c011cabf",
                         lambda: constants._ln_rational_atanh(10, 1, 10020, constants._SMOOTH["ln10"])),
    "ln10_acoth_10020": ("5dd867440b57f66a91c0051c2966156c9fcec0beea04cc802351b964c011cabf",
                         lambda: constants._ln10_acoth(10020)),
    "ln_pi_atanh_10020": ("2ee6c96d4ee6b70780421e668680db2b81ae421cdc2835fce00ae8729fb78d19",
                          lambda: constants._ln_rational_atanh(*_pi_hat(10020), 10020,
                                                               constants._SMOOTH["ln_pi"])),
    "ln_pi_newton_10020": ("2ee6c96d4ee6b70780421e668680db2b81ae421cdc2835fce00ae8729fb78d19",
                           lambda: constants._ln_rational_newton(*_pi_hat(10020), 10020)),
}


@pytest.mark.parametrize("name", sorted(ENGINE_BITS))
def test_engine_bits_are_pinned(monkeypatch, name):
    monkeypatch.setattr(constants, "_memo", {})  # series held at more bits would shift down
    want, compute = ENGINE_BITS[name]
    assert hashlib.sha256(str(compute()).encode()).hexdigest() == want

"""Reports at the sizes the benchmark and CI run, every row derived again by
tests/verdicts.py, which shares no code with pilab: the caseII audit of the
certify workload and at two non-integral mu, the caseI audits of k = 1..30,
the prime audits CI pins and of k = 1..20, the ``cf --depth 2000``
convergents CI pins, and the coset structure, Artin scans and exponential
sum maximum of the scan workload, and the digits, block statistics and star
discrepancies of ``normality``, ``report --in`` and ``report --const pi`` at
N = 2 10^4, the integers in bases 10 and 16, and the digits of ``construct
--family stoneham`` at N = 2 10^4 in bases 2, 3, 10 and 36."""

import copy
import json
from fractions import Fraction

import pytest
import sympy

import verdicts
from pilab import cli

NMAX = 1500
CF_DEPTH = 2000
ARTIN_COUNT_LIMIT = 10**5  # every prime's order derived again
ARTIN_CSV_LIMIT = 10**6  # the scan workload's size; ARTIN_SAMPLE rows derived again
ARTIN_SAMPLE = 2000
CASEI_KS = range(1, 31)
CASEI_NMAX = 30  # past every row: q_30 has 17 digits
COSET_K = 14
PRIME_KS = range(1, 21)  # primes from 7 to 11 digits, both cases at NMAX_SMALL
NMAX_SMALL = 30
MU_NMAX = 400
EXPSUM_P = 4_004_023  # the scan workload's default prime: 93 cosets of <10>, of order 43 054


@pytest.fixture(scope="module")
def audit_report(tmp_path_factory):
    path = tmp_path_factory.mktemp("audit") / "audit.json"
    argv = ["audit", "--lemma", "caseII", "--k", "12", "--nmax", str(NMAX), "--out", str(path)]
    assert cli.main(argv) == 0
    return json.loads(path.read_text())


def test_pi_convergent_12():
    assert verdicts.pi_convergent(12) == (80143857, 25510582)


def test_caseII_audit_rows_are_derived_again(audit_report):
    verdicts.check_caseII_audit(audit_report, NMAX)
    verdicts_seen = {row["pass"] for row in audit_report["rows"]}
    assert verdicts_seen == {True, False}


def _moved(key):
    def move(row):
        margin = Fraction(row[key])
        row[key] = str(margin + Fraction(1, margin.denominator))
    return move


def _flip(row):
    row["pass"] = not row["pass"]


# name -> (the verdict of the row it changes, the change, the field the check
# names); each acts on the middle row with that verdict
MUTATIONS = {
    "pass_forged": (False, _flip, "pass"),
    "pass_dropped": (True, _flip, "pass"),
    "margin_lower_moved": (True, _moved("margin_lower"), "margin_lower"),
    "margin_upper_moved": (False, _moved("margin_upper"), "margin_upper"),
    "r_plus_one": (True, lambda row: row.update(r=row["r"] + 1), "residues"),
    "r_minus_one": (False, lambda row: row.update(r=row["r"] - 1), "residues"),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_mutated_row_is_caught(audit_report, mutation):
    passed, change, field = MUTATIONS[mutation]
    report = copy.deepcopy(audit_report)
    rows = [row for row in report["rows"] if row["pass"] is passed]
    row = rows[len(rows) // 2]
    change(row)
    with pytest.raises(AssertionError, match=f"^row {row['n']}: {field}$"):
        verdicts.check_caseII_audit(report, NMAX)


@pytest.fixture(scope="module")
def caseI_reports(tmp_path_factory):
    return {k: _report(tmp_path_factory, "audit", "--lemma", "caseI", "--k", str(k), "--nmax", str(CASEI_NMAX))
            for k in CASEI_KS}


def test_caseI_audit_rows_are_derived_again(caseI_reports):
    for report in caseI_reports.values():
        verdicts.check_caseI_audit(report, CASEI_NMAX)
    assert {row["pass"] for report in caseI_reports.values() for row in report["rows"]} == {True, False}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_mutated_caseI_row_is_caught(caseI_reports, mutation):
    passed, change, field = MUTATIONS[mutation]
    # the middle row with that verdict of the largest k that has one
    k = max(k for k, report in caseI_reports.items() if any(row["pass"] is passed for row in report["rows"]))
    report = copy.deepcopy(caseI_reports[k])
    rows = [row for row in report["rows"] if row["pass"] is passed]
    row = rows[len(rows) // 2]
    change(row)
    with pytest.raises(AssertionError, match=f"^row {row['n']}: {field}$"):
        verdicts.check_caseI_audit(report, CASEI_NMAX)


def _report(tmp_path_factory, *argv):
    path = tmp_path_factory.mktemp("report") / "report.json"
    assert cli.main([*argv, "--out", str(path)]) == 0
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def cf_report(tmp_path_factory):
    return _report(tmp_path_factory, "cf", "--depth", str(CF_DEPTH))


@pytest.fixture(scope="module")
def artin_count_report(tmp_path_factory):
    return _report(tmp_path_factory, "artin", "--limit", str(ARTIN_COUNT_LIMIT))


@pytest.fixture(scope="module")
def artin_csv_run(tmp_path_factory):
    """The CSV and the report of one ``artin --csv`` run."""
    path = tmp_path_factory.mktemp("artin") / "artin.csv"
    argv = ["artin", "--limit", str(ARTIN_CSV_LIMIT), "--csv", str(path), "--out", str(path.with_suffix(".json"))]
    assert cli.main(argv) == 0
    return path.read_text(), json.loads(path.with_suffix(".json").read_text())


@pytest.fixture(scope="module")
def artin_csv(artin_csv_run):
    return artin_csv_run[0]


def test_pi_convergents_are_derived_again(cf_report):
    verdicts.check_pi_convergents(cf_report, CF_DEPTH)


def _swap_rows(rows, k):
    rows[k], rows[k + 1] = rows[k + 1], rows[k]


def _bump(key, by):
    def bump(rows, k):
        rows[k][key] = str(int(rows[k][key]) + by)
    return bump


# name -> (the change to the rows at index k, the field the check names)
CF_MUTATIONS = {
    "a_plus_one": (_bump("a", 1), "a"),
    "a_minus_one": (_bump("a", -1), "a"),
    "rows_swapped": (_swap_rows, "k"),
    "q_plus_one": (_bump("q", 1), "q"),
}


@pytest.mark.parametrize("mutation", sorted(CF_MUTATIONS))
def test_mutated_convergent_is_caught(cf_report, mutation):
    change, field = CF_MUTATIONS[mutation]
    report = copy.deepcopy(cf_report)
    k = CF_DEPTH // 2 + 1
    change(report["convergents"], k)
    with pytest.raises(AssertionError, match=f"^row {k}: {field}$"):
        verdicts.check_pi_convergents(report, CF_DEPTH)


def test_artin_count_is_derived_again(artin_count_report):
    verdicts.check_artin_count(artin_count_report, ARTIN_COUNT_LIMIT)
    assert (artin_count_report["count_artin"], artin_count_report["count_primes"]) == (3617, 9590)


@pytest.mark.parametrize("by", [1, -1])
def test_moved_artin_count_is_caught(artin_count_report, by):
    report = dict(artin_count_report, count_artin=artin_count_report["count_artin"] + by)
    with pytest.raises(AssertionError, match="^count_artin$"):
        verdicts.check_artin_count(report, ARTIN_COUNT_LIMIT)


def test_artin_csv_rows_are_derived_again(artin_csv):
    verdicts.check_artin_csv(artin_csv, ARTIN_CSV_LIMIT, ARTIN_SAMPLE)


def test_artin_summary_matches_its_csv(artin_csv_run):
    text, report = artin_csv_run
    verdicts.check_artin_summary(report, text)
    with pytest.raises(AssertionError, match="^count_artin$"):
        verdicts.check_artin_summary(dict(report, count_artin=report["count_artin"] + 1), text)


def _mutated_csv(text, row, change):
    """The CSV with data row ``row`` (0 is the first after the header) changed."""
    lines = text.splitlines(keepends=True)
    q, order, flag = lines[row + 1].rstrip("\n").split(",")
    lines[row + 1] = ",".join(change(q, int(order), flag)) + "\n"
    return "".join(lines), q


# name -> (the change to a sampled row's fields, the field the check names)
ARTIN_MUTATIONS = {
    "ord_changed": (lambda q, order, flag: (q, str(order + 1), flag), "ord"),
    "is_artin_flipped": (lambda q, order, flag: (q, str(order), "false" if flag == "true" else "true"), "is_artin"),
}


@pytest.mark.parametrize("mutation", sorted(ARTIN_MUTATIONS))
def test_mutated_artin_row_is_caught(artin_csv, mutation):
    change, field = ARTIN_MUTATIONS[mutation]
    sampled = verdicts.sampled_rows(artin_csv.count("\n") - 1, ARTIN_SAMPLE)
    text, q = _mutated_csv(artin_csv, sampled[len(sampled) // 2], change)
    with pytest.raises(AssertionError, match=f"^row q={q}: {field}$"):
        verdicts.check_artin_csv(text, ARTIN_CSV_LIMIT, ARTIN_SAMPLE)


@pytest.fixture(scope="module")
def coset_report(tmp_path_factory):
    return _report(tmp_path_factory, "coset", "--k", str(COSET_K))


def test_coset_structure_is_derived_again(coset_report):
    assert (coset_report["q"], coset_report["order"]) == ("78256779", 531648)
    verdicts.check_coset(coset_report)


# name -> (the change to the report, the field the check names)
COSET_MUTATIONS = {
    "g_equals_coset_flipped": (lambda report: report.update(g_equals_coset=not report["g_equals_coset"]),
                               "g_equals_coset"),
    "order_plus_one": (lambda report: report.update(order=report["order"] + 1), "order"),
    "h_size_minus_one": (lambda report: report.update(h_size=report["h_size"] - 1), "h_size"),
}


@pytest.mark.parametrize("mutation", sorted(COSET_MUTATIONS))
def test_mutated_coset_report_is_caught(coset_report, mutation):
    change, field = COSET_MUTATIONS[mutation]
    report = copy.deepcopy(coset_report)
    change(report)
    with pytest.raises(AssertionError, match=f"^{field}$"):
        verdicts.check_coset(report)


@pytest.fixture(scope="module")
def prime_report(tmp_path_factory):
    return _report(tmp_path_factory, "audit", "--lemma", "prime", "--k", "12", "--nmax", str(NMAX))


def test_prime_audit_rows_are_derived_again(prime_report):
    verdicts.check_prime_audit(prime_report, NMAX)
    assert (prime_report["q_k"], prime_report["q"]) == ("25510582", "25510609")
    assert {row["case"] for row in prime_report["rows"]} == {"I", "II"}


def test_small_prime_audits_are_derived_again(tmp_path_factory):
    for k in PRIME_KS:
        report = _report(tmp_path_factory, "audit", "--lemma", "prime", "--k", str(k), "--nmax", str(NMAX_SMALL))
        verdicts.check_prime_audit(report, NMAX_SMALL)


def _scaled_by_q_k(row, report):
    # the residual scaled by the convergent's q_k^2 instead of the prime's
    row["scaled_upper"] = str(Fraction(row["residual_upper"]) * int(report["q_k"]) ** 2)


def _flip_case(row, report):
    row["case"] = "I" if row["case"] == "II" else "II"


# name -> (the case of the row it changes, the change, the field the check names)
PRIME_MUTATIONS = {
    "residual_moved": ("II", lambda row, report: _moved("residual_lower")(row), "residual_lower"),
    "case_flipped": ("I", _flip_case, "case"),
    "r_plus_one": ("II", lambda row, report: row.update(r=row["r"] + 1), "residues"),
    "r_minus_one": ("I", lambda row, report: row.update(r=row["r"] - 1), "residues"),
    "scaled_by_q_k": ("II", _scaled_by_q_k, "scaled_upper"),
}


@pytest.mark.parametrize("mutation", sorted(PRIME_MUTATIONS))
def test_mutated_prime_row_is_caught(prime_report, mutation):
    case, change, field = PRIME_MUTATIONS[mutation]
    report = copy.deepcopy(prime_report)
    rows = [row for row in report["rows"] if row["case"] == case]
    row = rows[len(rows) // 2]
    change(row, report)
    with pytest.raises(AssertionError, match=f"^row {row['n']}: {field}$"):
        verdicts.check_prime_audit(report, NMAX)


def test_prime_replaced_by_the_next_is_caught(prime_report):
    report = dict(prime_report, q=str(sympy.nextprime(int(prime_report["q"]))))
    with pytest.raises(AssertionError, match="^q$"):
        verdicts.check_prime_audit(report, NMAX)


@pytest.fixture(scope="module", params=["2.5", "2.123"])
def mu_report(request, tmp_path_factory):
    return _report(tmp_path_factory, "audit", "--lemma", "caseII", "--k", "12", "--nmax", str(MU_NMAX),
                   "--mu", request.param)


def test_caseII_audit_at_non_integral_mu_is_derived_again(mu_report):
    verdicts.check_caseII_audit(mu_report, MU_NMAX)
    passed = [row["pass"] for row in mu_report["rows"]]
    assert (passed.count(True), passed.count(False)) == (77, 316)


# each changes a report and returns the field the check names
def _term_moved(report):
    # every lower endpoint, so the printed term moves by one unit of its last place
    one = Fraction(1, 10 ** (2 * len(report["q"]) + 20))
    for row in report["rows"]:
        row["lower"] = str(Fraction(row["lower"]) + one)
    return "lower term"


def _lower_exact_flipped(report):
    row = report["rows"][len(report["rows"]) // 2]
    row["lower_exact"] = not row["lower_exact"]
    return f"row {row['n']}: lower_exact"


@pytest.mark.parametrize("change", [_term_moved, _lower_exact_flipped])
def test_mutated_non_integral_mu_report_is_caught(mu_report, change):
    report = copy.deepcopy(mu_report)
    field = change(report)
    with pytest.raises(AssertionError, match=f"^{field}$"):
        verdicts.check_caseII_audit(report, MU_NMAX)


@pytest.fixture(scope="module")
def expsum_report(tmp_path_factory):
    return _report(tmp_path_factory, "expsum", "--p", str(EXPSUM_P))


def test_expsum_maximum_is_derived_again(expsum_report):
    assert (expsum_report["order"], expsum_report["argmax"]) == (43054, 417343)
    verdicts.check_expsum(expsum_report)


def _magnitude_raised(report):
    report["max_magnitude"] = str(float(report["max_magnitude"]) * (1 + 1e-6))


# name -> (the change to the report, the field the check names); a = 1 lies
# in <10> itself, whose |S| is below the maximum
EXPSUM_MUTATIONS = {
    "max_magnitude_raised": (_magnitude_raised, "max_magnitude"),
    "argmax_in_other_coset": (lambda report: report.update(argmax=1), "argmax"),
    "order_plus_one": (lambda report: report.update(order=report["order"] + 1), "order"),
}


@pytest.mark.parametrize("mutation", sorted(EXPSUM_MUTATIONS))
def test_mutated_expsum_report_is_caught(expsum_report, mutation):
    change, field = EXPSUM_MUTATIONS[mutation]
    report = copy.deepcopy(expsum_report)
    change(report)
    with pytest.raises(AssertionError, match=f"^{field}$"):
        verdicts.check_expsum(report)


BLOCK_N = 20_000
BLOCK_KMAX = {10: 4, 16: 3}


@pytest.fixture(scope="module")
def block_reports(tmp_path_factory):
    """base -> (the digit text, the normality report, the report --in report)
    of the integers stream in that base; report reads 24 digits past N."""
    out = {}
    for base, kmax in BLOCK_KMAX.items():
        path = tmp_path_factory.mktemp(f"blocks{base}") / "int.digits"
        argv = ["construct", "--family", "integers", "--base", str(base), "--digits", str(BLOCK_N + 24),
                "--out", str(path)]
        assert cli.main(argv) == 0
        reads = [_report(tmp_path_factory, command, "--in", str(path), "--N", str(BLOCK_N),
                         "--kmax", str(kmax)) for command in ("normality", "report")]
        out[base] = (verdicts.digit_file_text(path.read_text()), *reads)
    return out


@pytest.mark.parametrize("base", sorted(BLOCK_KMAX))
def test_block_statistics_are_derived_again(block_reports, base):
    text, normality, report = block_reports[base]
    assert len(normality["blocks"]) == len(report["blocks"]) == BLOCK_KMAX[base]
    verdicts.check_blocks(normality, text)
    verdicts.check_blocks(report, text)


def _count_moved(row, counts):
    printed = row["counts"]
    printed[sorted(printed)[len(printed) // 2]] += 1


def _chi_with_a_count_moved(row, counts):
    # one pattern's count c + 1 adds P (2c + 1) / W to chi^2
    c = counts[sorted(counts)[len(counts) // 2]]
    patterns = row["dof"] + 1
    row["chi_square"] = repr(float(row["chi_square"]) + patterns * (2 * c + 1) / row["windows"])


def _chi_with_one_window_more(row, counts):
    # P sum c^2 / (W + 1) - (W + 1), from P sum c^2 / W = chi^2 + W
    windows = row["windows"]
    chi = (float(row["chi_square"]) + windows) * windows / (windows + 1) - (windows + 1)
    row["chi_square"] = repr(chi)


def _dev_with_the_worst_count_moved(row, counts):
    row["max_abs_dev"] = repr(float(row["max_abs_dev"]) + 1 / row["windows"])


# name -> (the change to a k = 2 row, given the normality report's counts of
# that k, the field the check names, the commands whose reports it changes)
BLOCK_MUTATIONS = {
    "count_moved": (_count_moved, "counts", ("normality",)),
    "chi_square_count_moved": (_chi_with_a_count_moved, "chi_square", ("normality", "report")),
    "chi_square_one_window_more": (_chi_with_one_window_more, "chi_square", ("normality", "report")),
    "max_abs_dev_count_moved": (_dev_with_the_worst_count_moved, "max_abs_dev", ("normality", "report")),
}


@pytest.mark.parametrize("base", sorted(BLOCK_KMAX))
@pytest.mark.parametrize("mutation, command", [(mutation, command) for mutation in sorted(BLOCK_MUTATIONS)
                                               for command in BLOCK_MUTATIONS[mutation][2]])
def test_mutated_block_statistics_are_caught(block_reports, base, mutation, command):
    change, field, _ = BLOCK_MUTATIONS[mutation]
    text, normality, report = block_reports[base]
    report = copy.deepcopy(normality if command == "normality" else report)
    change(report["blocks"]["2"], normality["blocks"]["2"]["counts"])
    with pytest.raises(AssertionError, match=f"^k=2: {field}$"):
        verdicts.check_blocks(report, text)


@pytest.fixture(scope="module")
def shift_reports(tmp_path_factory, block_reports):
    """source -> (the digit text, the report over it): report --in over the
    integers in bases 10 and 16, and report --const pi over the digits that
    constants --name pi writes."""
    out = {str(base): (text, report) for base, (text, _, report) in block_reports.items()}
    path = tmp_path_factory.mktemp("pi") / "pi.digits"
    assert cli.main(["constants", "--name", "pi", "--digits", str(BLOCK_N + 24), "--out", str(path)]) == 0
    report = _report(tmp_path_factory, "report", "--const", "pi", "--N", str(BLOCK_N), "--kmax", "4")
    out["pi"] = (verdicts.digit_file_text(path.read_text()), report)
    return out


@pytest.mark.parametrize("source", ["10", "16", "pi"])
def test_digits_and_discrepancy_are_derived_again(shift_reports, source):
    text, report = shift_reports[source]
    verdicts.check_digits(text, report["base"], report["label"])
    verdicts.check_discrepancy(report, text)
    if source == "pi":
        verdicts.check_blocks(report, text)


@pytest.mark.parametrize("source", ["10", "16", "pi"])
def test_flipped_digit_is_caught(shift_reports, source):
    text, report = shift_reports[source]
    i = len(text) // 2
    flipped = text[:i] + ("1" if text[i] != "1" else "2") + text[i + 1 :]
    with pytest.raises(AssertionError, match=f"^digit {i}$"):
        verdicts.check_digits(flipped, report["base"], report["label"])


@pytest.mark.parametrize("source", ["10", "16", "pi"])
def test_discrepancy_over_unsorted_points_is_caught(shift_reports, source):
    text, report = shift_reports[source]
    base, n = report["base"], report["n_points"]
    points = [int(text[i : i + 24], base) / base**24 for i in range(1, n + 1)]  # in stream order
    unsorted = max(max(i / n - u, u - (i - 1) / n) for i, u in enumerate(points, start=1))
    with pytest.raises(AssertionError, match="^star_discrepancy$"):
        verdicts.check_discrepancy(dict(report, star_discrepancy=repr(unsorted)), text)


# (b, c, s): the CLI's default prefix, bases 2 and 3 outside base 10, a shift
# s, and the largest base, 36
STONEHAM_PARAMS = [(10, 3, 0), (2, 3, 0), (3, 2, 0), (10, 3, 7), (36, 5, 2)]


@pytest.fixture(scope="module")
def stoneham_files(tmp_path_factory):
    """(b, c, s) -> (the digit text, the header's base, its label) of
    ``construct --family stoneham`` at BLOCK_N digits."""
    out = {}
    for b, c, s in STONEHAM_PARAMS:
        path = tmp_path_factory.mktemp("stoneham") / "stoneham.digits"
        argv = ["construct", "--family", "stoneham", "--base", str(b), "--c", str(c), "--s", str(s),
                "--digits", str(BLOCK_N), "--out", str(path)]
        assert cli.main(argv) == 0
        data = path.read_text()
        header = dict(field.split("=", 1) for field in data.splitlines()[0].split())
        out[b, c, s] = verdicts.digit_file_text(data), int(header["base"]), header["label"]
    return out


@pytest.mark.parametrize("params", STONEHAM_PARAMS, ids=str)
def test_stoneham_digits_are_derived_again(stoneham_files, params):
    text, base, label = stoneham_files[params]
    assert len(text) == BLOCK_N
    verdicts.check_digits(text, base, label)


@pytest.mark.parametrize("params", STONEHAM_PARAMS, ids=str)
def test_flipped_stoneham_digit_is_caught(stoneham_files, params):
    text, base, label = stoneham_files[params]
    i = len(text) * 2 // 3
    flipped = text[:i] + ("1" if text[i] != "1" else "0") + text[i + 1 :]
    with pytest.raises(AssertionError, match=f"^digit {i}$"):
        verdicts.check_digits(flipped, base, label)


def test_stoneham_text_of_another_shift_is_caught(stoneham_files):
    text, base, _ = stoneham_files[10, 3, 7]
    with pytest.raises(AssertionError, match="^digit "):
        verdicts.check_digits(text, base, "stoneham-b10-c3-s6")

"""The caseII audit the benchmark's certify workload runs, every row derived
again by tests/verdicts.py, which shares no code with pilab."""

import copy
import json
from fractions import Fraction

import pytest

import verdicts
from pilab import cli

NMAX = 1500


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

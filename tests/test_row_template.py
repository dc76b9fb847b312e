"""Audit rows written through their class's template: the bytes the generic
writer makes of cf.audit_payload(row), for every lemma, and a guard that a
template missing or misnaming a field does not pass."""

import functools

import pytest

from pilab import cf, cli

ROW_INNER = "\n    "  # a row's depth in an audit report: under the top dict's "rows"

# rows of every lemma: exact and fixed-point lower terms, rows that pass and
# rows that fail, and the prime audit's case I and case II rows at both mu
AUDITS = {
    "caseI-k30": (cf.audit_lemma_caseI, 30, 2.0, 1500),
    "caseII-mu2": (cf.audit_lemma_caseII, 12, 2.0, 1500),
    "caseII-mu2.5": (cf.audit_lemma_caseII, 12, 2.5, 1500),
    "caseII-mu2.123": (cf.audit_lemma_caseII, 12, 2.123, 1500),
    "caseII-k1-failing": (cf.audit_lemma_caseII, 1, 2.0, 40),
    "prime-mu2": (cf.audit_lemma_prime_variant, 12, 2.0, 1500),
    "prime-mu2.5": (cf.audit_lemma_prime_variant, 12, 2.5, 1500),
}


@functools.cache
def rows_of(name):
    """About 25 rows of the audit, spread over its shifts, and its last."""
    lemma, k, mu, nmax = AUDITS[name]
    rows = lemma(cf.pi_convergents(k)[k], cf.AuditConfig(mu=mu, n_max=nmax)).rows
    return list(rows[:: max(1, len(rows) // 24)]) + [rows[-1]]


def generic_text(row):
    pieces = []
    cli._render(cf.audit_payload(row), ROW_INNER, pieces.append)
    return "".join(pieces)


@pytest.mark.parametrize("name", sorted(AUDITS))
def test_template_writes_the_generic_bytes(name):
    rows = rows_of(name)
    assert [cli._row_text(row, ROW_INNER) for row in rows] == [generic_text(row) for row in rows]


def test_audits_cover_failing_rows_and_both_prime_cases():
    assert not all(row.passed for row in rows_of("caseII-k1-failing"))
    assert any(row.passed for row in rows_of("caseII-mu2"))
    assert not rows_of("caseII-mu2.123")[0].lower_exact
    for name in ("prime-mu2", "prime-mu2.5"):
        assert {row.case for row in rows_of(name)} == {"I", "II"}


def _rename_a_key(monkeypatch):
    monkeypatch.setitem(cf._REPORT_KEYS, "value", "val")


def _drop_a_field(monkeypatch):
    for cls in (cf.AuditRow, cf.PrimeAuditRow):
        monkeypatch.setattr(cls, "_fields", cls._fields[:-1])


@pytest.mark.parametrize("name", ["caseII-mu2", "prime-mu2"])
@pytest.mark.parametrize("breakage", [_rename_a_key, _drop_a_field], ids=["key-renamed", "field-dropped"])
def test_a_broken_template_fails_the_comparison(name, breakage):
    rows = rows_of(name)
    want = [generic_text(row) for row in rows]
    cli._row_template.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as mp:
            breakage(mp)
            got = [cli._row_text(row, ROW_INNER) for row in rows]
    finally:
        cli._row_template.cache_clear()  # no broken template outlives the test
    assert got != want

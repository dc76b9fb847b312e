"""Pinned SHA-256 digests of CLI reports at sizes that run in tier-1.

A refactor of the path from convergents, digit files or point files to report
bytes (the report writer, the block and Weyl statistics, the records each
command turns into a payload), or of the digits of ``construct --family
stoneham``, must leave these reports byte-identical; any change to one of them
is a deliberate report change and re-pins its digest here.
"""

import hashlib

import pytest

from pilab.cli import main

GOLDEN_POINTS = "golden.txt"
# digit files the --in reports read, written by `construct` beside them
DIGIT_FILES = {
    "int.digits": ("construct", "--family", "integers", "--digits", "20100"),
    "hex.digits": ("construct", "--family", "integers", "--base", "16", "--digits", "8100"),
}

CASES = {
    "cf-depth-20": ("cf", "--depth", "20"),
    "stoneham-b10-c3": ("construct", "--family", "stoneham", "--base", "10", "--c", "3", "--digits", "100000"),
    "stoneham-b2-c3": ("construct", "--family", "stoneham", "--base", "2", "--c", "3", "--digits", "20000"),
    "stoneham-b36-c5-s1": (
        "construct", "--family", "stoneham", "--base", "36", "--c", "5", "--s", "1", "--digits", "5000"),
    "stoneham-b3-c2-s1": (
        "construct", "--family", "stoneham", "--base", "3", "--c", "2", "--s", "1", "--digits", "5000"),
    "audit-caseI-k8": ("audit", "--lemma", "caseI", "--k", "8"),
    "audit-caseII-k6-mu2.5": (
        "audit", "--lemma", "caseII", "--k", "6", "--nmax", "200", "--mu", "2.5"),
    "audit-caseII-k6-mu2.123": (  # exponent 1123/1000: a 30 000-digit root, inside DIGIT_CEILING
        "audit", "--lemma", "caseII", "--k", "6", "--nmax", "60", "--mu", "2.123"),
    "audit-caseII-k12": ("audit", "--lemma", "caseII", "--k", "12", "--nmax", "400"),  # default mu
    "audit-caseII-k1-mu2": ("audit", "--lemma", "caseII", "--k", "1", "--mu", "2"),  # 12 failing rows
    "audit-prime-k6": ("audit", "--lemma", "prime", "--k", "6", "--nmax", "40"),
    "audit-prime-k6-mu2.123": ("audit", "--lemma", "prime", "--k", "6", "--nmax", "40", "--mu", "2.123"),
    "expsum-1999": ("expsum", "--p", "1999"),
    "coset-k8": ("coset", "--k", "8"),  # orders past the cap: no elements
    "coset-k3": ("coset", "--k", "3"),  # both element sets written
    "artin-1e5": ("artin", "--limit", "100000"),
    "weyl-golden": ("weyl", "--points", GOLDEN_POINTS, "--m", "1,2,3,5,8"),
    "normality-int-k3": ("normality", "--in", "int.digits", "--N", "20000", "--kmax", "3"),
    "normality-hex-k2": ("normality", "--in", "hex.digits", "--N", "8000", "--kmax", "2"),
    "report-int": ("report", "--in", "int.digits", "--N", "20000", "--kmax", "3", "--mmax", "5"),
    "report-hex": ("report", "--in", "hex.digits", "--N", "8000", "--kmax", "2", "--mmax", "4"),
}

DIGESTS = {
    "audit-caseI-k8": "3b871831db765e32c0b1a0516e75a64f4f52465591592c8562742d997945e0ff",
    "audit-caseII-k6-mu2.5": "bf92214d63602ecacc58229f42c6c6ae5ca09670dc2c2c782a08a279f482089b",
    "audit-caseII-k6-mu2.123": "e309a2d20a75ba95b69d8a8e5967e90b9e1471090fbe431e9e05a77ec5338a63",
    "audit-caseII-k12": "627f653f9089b405cacb52495e20d484935f385961a03ee40215295d32974dbc",
    "audit-caseII-k1-mu2": "050804d64fae969c0e6e66ee21ff5f310f33e76106043413959bb86af7c78ee3",
    "audit-prime-k6": "d94739c36734fe752730d7227df3a6d89aaacd11e82abfa888e858a10a3148a2",
    "audit-prime-k6-mu2.123": "8e8f85a53163b80d6a6f65a75f5dcbae546aedab04fb1170256909854f77bc30",
    "cf-depth-20": "ce696a0d5ee60a719e5257d951f32049ee32f8206dbebbb4453a5aec70baef8c",
    "stoneham-b10-c3": "1a4bfcd71fa60dff58fc7550fbbacfdd5a282147c6db495fdd2b8fb61bff4ced",
    "stoneham-b2-c3": "d06a52e948286c61baa6121efb27bdd86b7d411fce5ea8b90eef78774f5b2668",
    "stoneham-b36-c5-s1": "83a80774ff0b35e6802259308c6d7d33d76207e5b51db43130e558d1c8dba991",
    "stoneham-b3-c2-s1": "e3d526595405f72623cd75a5d387fdad6c12d032bd2022474cb896a04a48b729",
    "expsum-1999": "b5aff195d0ae85ba9c1dde9beb9dd765daa0a5e55eed6d1706a4ed581424feb3",
    "coset-k8": "2ceb0c893f599f392e05521d27fa376b5d52fa881b27ac9cd47eaafd7555671c",
    "coset-k3": "08e66fe9e41ef95025e4b3bbae4fe13cafce7fb1f26ece0563766c5615dcb3ab",
    "artin-1e5": "265a50e236a989fd2d899a650bef63b57162b8408b3a1600032232e311aeda7e",
    "weyl-golden": "43bf0c1c09a0a1ca470c0d0b508a271591265d3a43edc84d36ee90da2f2d2a2d",
    "normality-int-k3": "3ad91123f915f68f0a88538fcebaefcbdd5ebf9e07a06f8c54d9f3f07293a76c",
    "normality-hex-k2": "06bb1ffef4de630a40a48db2d882db7355d618c10f325ad05fa6ffab458639ed",
    "report-int": "a9ae25b33f0998fc5089669f082d56704c0ec04fc6650e69678e97d6d621b2b2",
    "report-hex": "52458d43d9398e899b6acee729edff71725682cab336f5e5c458b96fb573e8e3",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_stdout_digest(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the weyl report names its point file by the given path
    golden = (1 + 5**0.5) / 2
    (tmp_path / GOLDEN_POINTS).write_text(
        "\n".join(repr((n * golden) % 1.0) for n in range(1, 3001)) + "\n")
    argv = CASES[name]
    if "--in" in argv:
        digit_file = argv[argv.index("--in") + 1]
        assert main([*DIGIT_FILES[digit_file], "--out", digit_file]) == 0
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[name]


def test_artin_csv_digest(tmp_path, capsys):
    # the --csv rows, and the JSON the same run prints beside them
    csv = tmp_path / "artin.csv"
    assert main(["artin", "--limit", "100000", "--csv", str(csv)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS["artin-1e5"]
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == \
        "08b1e00821140ef6ab5d09bc2a3b7729ac557463d224fb1a6054e234e3cf8be9"

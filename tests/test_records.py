"""pilab's records are immutable NamedTuples, and importing the CLI loads
neither dataclasses nor hashlib: every command starts in a fresh interpreter,
so what the import builds or loads is paid on every run.  For the same
reason the certified-digit commands load no analysis module and run without
numpy, and the statistics commands do not load groups."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from pilab import cf, cli, constructors, groups, spectra

SRC = Path(__file__).resolve().parents[1] / "src"
ENV = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
# the commands of the certified-digit core, and the modules they must not load
CORE_COMMANDS = [
    ["constants", "--name", "pi", "--digits", "200"],
    ["audit", "--lemma", "caseII", "--k", "4", "--nmax", "12"],
    ["cf", "--depth", "20"],
]
ANALYSIS_MODULES = ["pilab.constructors", "pilab.groups", "pilab.primes", "pilab.spectra"]
# main(argv) in a child that cannot import numpy
NO_NUMPY = "import sys; sys.modules['numpy'] = None; from pilab.cli import main; raise SystemExit(main(sys.argv[1:]))"


def test_cli_import_loads_neither_dataclasses_nor_hashlib():
    code = "import sys, numpy, pilab.cli; print(sorted({'dataclasses', 'hashlib'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_core_commands_load_no_analysis_module():
    code = (f"import contextlib, io, sys, numpy, pilab.cli\n"
            f"for argv in {CORE_COMMANDS!r}:\n"
            f"    with contextlib.redirect_stdout(io.StringIO()):\n"
            f"        assert pilab.cli.main(argv) == 0\n"
            f"print(sorted(set({ANALYSIS_MODULES!r}) & set(sys.modules)))\n")
    out = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", CORE_COMMANDS, ids=lambda argv: argv[0])
def test_core_commands_run_without_numpy(capsys, argv):
    child = subprocess.run([sys.executable, "-c", NO_NUMPY, *argv], env=ENV, capture_output=True)
    assert child.returncode == 0, child.stderr.decode()
    assert cli.main(argv) == 0
    assert child.stdout == capsys.readouterr().out.encode("ascii")


@pytest.mark.parametrize("command", ["normality", "report", "weyl"])
def test_statistics_commands_load_no_groups(tmp_path, command):
    # spectra names groups.SubgroupReport only in an annotation, which stays text
    digits, points = tmp_path / "int.digits", tmp_path / "points.txt"
    assert cli.main(["construct", "--family", "integers", "--digits", "2064", "--out", str(digits)]) == 0
    points.write_text("0.25\n0.5\n0.875\n")
    argv = {"normality": ["normality", "--in", str(digits), "--N", "2000", "--kmax", "3"],
            "report": ["report", "--in", str(digits), "--N", "2000", "--kmax", "3", "--mmax", "3"],
            "weyl": ["weyl", "--points", str(points), "--m", "3"]}[command]
    code = (f"import contextlib, io, sys, numpy, pilab.cli\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert pilab.cli.main({argv!r}) == 0\n"
            f"print('pilab.groups' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_expsum_p31_bytes_unchanged(capsys):
    assert cli.main(["expsum", "--p", "31"]) == 0
    assert capsys.readouterr().out == """\
{
  "argmax": 5,
  "bound": "2.3512524696140775",
  "c": "0.5",
  "g": 10,
  "max_magnitude": "2.8284271247461903",
  "method": "fft",
  "order": 15,
  "p": 31,
  "ratio": "1.202944882057023"
}
"""


# `--help` of the two commands with a --cap, at 80 columns (CPython 3.11)
HELP = {
    "coset": """\
usage: pilab coset [-h] --k K [--cap CAP] [--out OUT] [--manifest MANIFEST]

Builds {p 10^n mod q} and {(p q + 1) 10^n mod q} literally and compares them
with <10> and its coset.

options:
  -h, --help           show this help message and exit
  --k K
  --cap CAP
  --out OUT            write the result to this file (a manifest lands beside
                       it)
  --manifest MANIFEST  override the manifest path
""",
    "expsum": """\
usage: pilab expsum [-h] --p P [--g G] [--c C] [--cap CAP] [--out OUT]
                    [--manifest MANIFEST]

Exhaustive max over a of |sum_{x in <g>} e(2 pi i a x / p)| with the exp(-(log
p)^c) #H envelope and their ratio.

options:
  -h, --help           show this help message and exit
  --p P
  --g G
  --c C
  --cap CAP
  --out OUT            write the result to this file (a manifest lands beside
                       it)
  --manifest MANIFEST  override the manifest path
""",
}


@pytest.mark.parametrize("command, argv", [("coset", ["--k", "3"]), ("expsum", ["--p", "31"])])
def test_cap_default_and_help_unchanged(capsys, monkeypatch, tmp_path, command, argv):
    assert cli._build_parser().parse_args([command, *argv]).cap == 65536 == groups.DEFAULT_ELEMENT_CAP
    out = tmp_path / "report.json"
    assert cli.main([command, *argv, "--out", str(out)]) == 0
    assert json.loads(Path(f"{out}.manifest.json").read_text())["params"]["cap"] == 65536
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.main([command, "--help"]) == 0
    assert capsys.readouterr().out.replace("optional arguments:", "options:") == HELP[command]


# one instance of every record class; the validating ones with valid fields
RECORDS = [
    cf.AuditConfig(),
    constructors.ConcatSpec("integers"),
    constructors.StonehamSpec(b=10, c=3),
    spectra.PointSet(points=(0.25, 0.5), eps=0.0),
    *(cls(*[0] * len(cls._fields)) for cls in (
        cf.Convergent, cf.ResidueDecomposition, cf.AuditRow, cf.LemmaAudit, cf.PrimeAuditRow,
        cf.PrimeLemmaAudit, spectra.WeylRow, spectra.WeylReport, spectra.BlockStats, spectra.BlockTable,
        spectra.ExpSumReport, groups.SubgroupReport, groups.CosetReport, groups.ArtinScan)),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_refuses_attribute_assignment(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], 1)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_validated_records_keep_their_fields():
    assert cf.AuditConfig(mu=2.5)._asdict() == {"mu": 2.5, "n_max": 12}
    assert constructors.StonehamSpec(2, 3)._asdict() == {"b": 2, "c": 3, "s": 0}
    pts = spectra.PointSet.from_fractions([Fraction(1, 3), Fraction(1)], eps=0.0, label="x")
    assert (len(pts), pts.points.tolist(), pts.label) == (2, [1 / 3, 1 - 2**-53], "x")
    assert not pts.points.flags.writeable

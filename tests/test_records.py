"""pilab's records are immutable NamedTuples, and importing the CLI loads
neither dataclasses nor hashlib: every command starts in a fresh interpreter,
so what the import builds or loads is paid on every run."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from pilab import cf, constructors, groups, spectra

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_import_loads_neither_dataclasses_nor_hashlib():
    code = "import sys, numpy, pilab.cli; print(sorted({'dataclasses', 'hashlib'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


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

"""The mutant runner of tests/mutants.py: a known row is killed, a row whose
old text is gone is reported before anything runs, and every row's old text
occurs once in today's source."""

import dataclasses
import os

import pytest

import mutants


def test_every_row_matches_its_source_once():
    for row in mutants.MUTANTS:
        text = (mutants.ROOT / "src" / "pilab" / row.path).read_text()
        assert text.count(row.old) == 1, row.name


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the row's selection needs os.fork")
def test_known_row_is_killed():
    row = next(m for m in mutants.MUTANTS if m.name == "split_even_and_odd_swapped")
    assert mutants.killed(row)


def test_row_whose_old_text_is_missing_is_reported():
    row = dataclasses.replace(mutants.MUTANTS[0], old="text that is in no source file")
    with pytest.raises(ValueError, match="^split_even_and_odd_swapped: the old text occurs 0 times"):
        mutants.killed(row)

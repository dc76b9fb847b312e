"""The report writer, and the normality report's counts tables, against
json.dumps over the rendering they replaced."""

import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilab import cli
from pilab.cli import _dump, main
from pilab.radix import DigitStream, text_from_digits, write_digit_file
from pilab.spectra import block_frequency

_REAL_FORMAT = ".17g"


def oracle(obj):
    """Rationals as num/den, reals as .17g decimal strings, tuples as lists."""
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, float):
        return format(obj, _REAL_FORMAT)
    if isinstance(obj, dict):
        return {k: oracle(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [oracle(v) for v in obj]
    return obj


def reference(obj) -> str:
    return json.dumps(oracle(obj), indent=2, sort_keys=True) + "\n"


texts = st.text(st.characters(codec="utf-8"), max_size=12) | st.sampled_from(
    ["", "\x00\x1f\x7f", 'quote " and \\ backslash', "tab\tnew\nline", "snow ☃", "\U0001f600"])
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**80), max_value=10**80)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e-310, 5e-324, 1.7976931348623157e308])
    | st.fractions()
    | texts
)
values = st.recursive(
    scalars,
    lambda inner: (
        st.lists(inner, max_size=5)
        | st.lists(inner, max_size=5).map(tuple)
        | st.dictionaries(texts, inner, max_size=5)
        | st.dictionaries(st.integers(), inner, max_size=5)
    ),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(values)
def test_writer_matches_json_dumps(obj):
    assert _dump(obj) == reference(obj)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(texts, st.integers(), max_size=20))
def test_counts_table_matches_json_dumps(table):
    payload = {"blocks": {"1": {"counts": table, "dof": 9}}}
    assert _dump(payload) == reference(payload)


@pytest.mark.parametrize("obj", [
    {}, [], (), {"a": {}}, {"a": []}, [[], {}, ()], {"a": [1, [2, {"b": ()}]]},
    {10: "ten", 9: "nine", -1: None}, {True: 1}, {None: 0}, {1.5: "x"},
    {"k": Fraction(-22, 7), "r": -0.0, "i": 10**400, "b": [True, False, None]},
    {"é": {"\x1b": " "}},
])
def test_writer_edge_cases(obj):
    assert _dump(obj) == reference(obj)


def streamed(obj) -> list[str]:
    """The parts the report writer hands its destination, one write each."""
    pieces = []
    cli._emit(obj, pieces.append)
    return pieces


@settings(max_examples=200, deadline=None)
@given(values)
def test_streamed_pieces_join_to_the_dumped_text(obj):
    pieces = streamed(obj)
    assert "".join(pieces) == _dump(obj) == reference(obj)
    assert all(pieces)


@pytest.mark.parametrize("make,listed", [
    (lambda: iter(()), []),
    (lambda: {"a": (i for i in ())}, {"a": []}),
    (lambda: {"a": {}, "b": [], "c": iter([{}, [], iter(())])}, {"a": {}, "b": [], "c": [{}, [], []]}),
    (lambda: [map(str, range(3)), (x for x in [Fraction(1, 3), 0.5])], [["0", "1", "2"], ["1/3", 0.5]]),
], ids=["empty", "empty-in-dict", "nested-empties", "items"])
@pytest.mark.parametrize("buffer_size", [1, 1 << 16])
def test_writer_renders_any_iterator_as_a_list(make, listed, buffer_size):
    assert "".join(streamed(make())) == reference(listed)
    # through a text file whose binary buffer passes on every byte, or holds 64 KiB
    raw = io.BytesIO()
    fh = io.TextIOWrapper(io.BufferedWriter(raw, buffer_size), encoding="utf-8")
    cli._emit(make(), fh.write)
    fh.flush()
    assert raw.getvalue().decode() == reference(listed)


@pytest.mark.parametrize("obj", [{"a": object()}, {(1, 2): 3}, {"a": {1, 2}}])
def test_writer_rejects_what_json_rejects(obj):
    with pytest.raises(TypeError):
        reference(obj)
    with pytest.raises(TypeError):
        _dump(obj)


def oracle_counts(stats):
    """The counts dict and its pattern names as the dict-based writer built them."""
    b, k = stats.base, stats.block_len
    codes = np.flatnonzero(stats.table)
    rows = codes[:, None] // b ** np.arange(k - 1, -1, -1) % b  # each code's k digits
    names = text_from_digits(rows.astype(np.uint8).tobytes())
    return dict(zip([names[i : i + k] for i in range(0, len(names), k)], stats.table[codes].tolist()))


def oracle_normality(stream, n, k_max, name):
    """The normality report through json.dumps, its counts from oracle_counts."""
    table = block_frequency(stream, n, k_max)
    blocks = {str(s.block_len): {**s.row(), "counts": oracle_counts(s)} for s in table.lengths}
    return reference({"input": name, "label": stream.label, "base": stream.base,
                      "n_digits": n, "blocks": blocks})


def skewed_digits(base, n, seed):
    """Digit 0 nine times, 1 ten, 2 ninety-nine and 3 a hundred times, then
    uniform digits: counts cross 9/10 and 99/100 at every block length."""
    head = [0] * 9 + [1] * 10 + [2] * 99 + [3] * 100 if base > 3 else [0] * 99 + [1] * 100
    rng = np.random.default_rng(seed)
    return head + rng.integers(base, size=n - len(head)).tolist()


@pytest.mark.parametrize("base,n,k_max", [
    (2, 4000, 8), (10, 20000, 4), (16, 30000, 3), (36, 150000, 4),  # base 36, k 4: rows past 2^16
])
def test_normality_counts_match_dict_writer(base, n, k_max, tmp_path, capsys):
    path = tmp_path / f"b{base}.digits"
    for label, digits in (("skewed", skewed_digits(base, n, base)), ("zeros", [0] * n)):
        stream = DigitStream.from_digits(digits, base=base, label=label)
        write_digit_file(path, stream, n)
        assert main(["normality", "--in", str(path), "--N", str(n), "--kmax", str(k_max)]) == 0
        assert capsys.readouterr().out == oracle_normality(stream, n, k_max, path.name), (base, label)


def test_counts_table_slices_with_every_part_flushed():
    # base 36, k 4: 2^16 names a slice, so the table is several slices
    stream = DigitStream.from_digits(skewed_digits(36, 150000, 36), base=36, label="skewed")
    stats = block_frequency(stream, 150000, 4).lengths[-1]
    assert np.count_nonzero(stats.table) > 2 * 2**16
    pieces = streamed({"counts": stats})
    assert "".join(pieces) == reference({"counts": oracle_counts(stats)})
    assert sum(len(p) > 2**16 for p in pieces) > 2  # the slices, each one piece

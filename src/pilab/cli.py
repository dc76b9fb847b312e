"""Command-line interface: one subcommand per operation, reproducible reports.

Report files never contain timestamps, so identical parameters give byte
identical outputs; each written output is accompanied by a manifest that
records the parameters, tool version, input digests, and the timestamp.
Reports are JSON with sorted keys, a 2-space indent and ASCII escapes (the
bytes of json.dumps(indent=2, sort_keys=True)); exact rationals are written
as "num/den" strings and reals as .17g decimal strings, for cross-language
reproducibility.

Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import operator
import sys
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from . import __version__, cf, constants, constructors, groups, spectra
from ._dec import DecimalFraction
from .radix import numerals, open_text_atomic, read_digit_file, row_texts, write_digit_file

_REAL_FORMAT = ".17g"
_NOT_PARAMS = {"command", "func", "out", "manifest"}  # every other parsed argument enters the manifest
_EXPSUM_KEYS = {"modulus": "p", "generator": "g", "subgroup_order": "order"}  # report field -> payload key
_REPORT_GUARD_DIGITS = 30  # report --const certifies this many digits past N
REPORT_CONST_N_MAX = constants.DIGIT_CEILING - _REPORT_GUARD_DIGITS


_ENCODE = json.encoder.encode_basestring_ascii  # the C routine json.dumps quotes strings with
_KEYWORDS = {None: "null", True: "true", False: "false"}
_CSV_FLAGS = np.frombuffer(b"false\0true", np.uint8).reshape(2, 5)  # is_artin, NUL-padded for row_texts


def _emit(payload, write: Callable[[str], object]) -> None:
    """Write a report's text through ``write``, one part at a time: the bytes
    of json.dumps(indent=2, sort_keys=True) with reals as .17g strings and
    rationals as "num/den" strings, any other iterator written as a list.
    The destination's own buffer gathers the parts."""
    _render(payload, "\n", write)
    write("\n")


def _dump(payload) -> str:
    """A report's text as one string, from the renderer that writes reports."""
    pieces: list[str] = []
    _emit(payload, pieces.append)
    return "".join(pieces)


@functools.lru_cache(maxsize=1024)
def _str_key(key: str) -> str:
    return _ENCODE(key)  # report keys repeat once a row


def _key(key) -> str:
    """A dict key as json.dumps writes it: a string, or the JSON text of an int,
    float, bool or None in quotes."""
    if isinstance(key, str):
        return _str_key(key)
    if key is None or isinstance(key, (int, float)):
        return '"' + json.dumps(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _render(obj, newline: str, write: Callable[[str], object]) -> None:
    """Write the text of ``obj``; ``newline`` ends the line before its closing bracket."""
    if type(obj) is int:  # the commonest kind first; a bool is not an int here
        write(int.__repr__(obj))
    elif isinstance(obj, str):
        write(_ENCODE(obj))
    elif obj is None or obj is True or obj is False:
        write(_KEYWORDS[obj])
    elif isinstance(obj, int):
        write(int.__repr__(obj))
    elif isinstance(obj, float):
        write(f'"{obj:{_REAL_FORMAT}}"')
    elif isinstance(obj, Fraction):
        write(f'"{obj.numerator}/{obj.denominator}"')
    elif isinstance(obj, dict):
        if not obj:
            write("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            write(sep + _key(key) + ": ")
            _render(value, inner, write)
            sep = "," + inner
        write(newline + "}")
    elif isinstance(obj, spectra.BlockStats):  # a NamedTuple, so ahead of the tuple branch
        _render_counts(obj, newline, write)
    elif isinstance(obj, cf.AuditRows):
        _render_rows(obj, newline, write)
    elif isinstance(obj, (list, tuple, Iterator)):
        inner = newline + "  "
        first = "[" + inner
        sep = _render_items(obj, first, inner, write)
        write("[]" if sep is first else newline + "]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _render_items(items, sep: str, inner: str, write: Callable[[str], object]) -> str:
    """Write each item of a list after ``sep`` for the first and "," + inner
    for the rest; returns the separator a next item would take."""
    for value in items:
        write(sep)
        _render(value, inner, write)
        sep = "," + inner
    return sep


# Below this many rows an audit's rows are made in this process alone.  On a
# 2-core host (CPython 3.11.7), `audit --lemma caseII --k 12` in fresh
# interpreters, one audit a process, forked against inline in alternating
# runs, the floor set by the measuring script: the fork was faster in 5 of 20
# at 160 rows, 10 of 20 at 300 (medians 20.5 against 18.7 ms), 7 of 12 and 17
# of 20 at 550 (27.0 against 33.3 ms), 10 of 12 at 793 and 12 of 12 at 1093.
_FORK_MIN_ROWS = 550
# An audit's rows go in blocks of at most this many, taken in turn by this
# process and a forked child, so that each holds one block's text.
_BLOCK_ROWS = 64


def _fraction_text(x: Fraction) -> str:
    return f'"{x.text()}"' if type(x) is DecimalFraction else f'"{x.numerator}/{x.denominator}"'


# how a row field is written, by its annotation, as _render writes its value
_FIELD_FORMATS = {
    "int": int.__repr__,
    "Optional[int]": lambda value: "null" if value is None else int.__repr__(value),
    "bool": _KEYWORDS.__getitem__,
    "str": _ENCODE,
    "Fraction": _fraction_text,
}


@functools.lru_cache(maxsize=None)
def _row_template(cls: type, inner: str):
    """(text, fields, formats) for writing a row of NamedTuple ``cls`` at
    ``inner``'s depth as _render writes cf.audit_payload(row): ``text`` has
    a %s for each value in report-key order, ``fields`` reads the values in
    that order and ``formats`` gives each one's text, by the field's
    annotation.  A row field is never in cf._AS_TEXT; one whose annotation
    has no format raises KeyError here."""
    entries = sorted((cf._REPORT_KEYS.get(name, name), name) for name in cls._fields)
    pad = inner + "  "
    text = "{" + ",".join(f"{pad}{_str_key(key)}: %s" for key, _ in entries) + inner + "}"
    # NamedTuple holds each string annotation as a typing.ForwardRef
    hints = cls.__annotations__
    formats = [_FIELD_FORMATS[getattr(hints[name], "__forward_arg__", hints[name])] for _, name in entries]
    return text, operator.attrgetter(*(name for _, name in entries)), formats


def _row_text(row, inner: str) -> str:
    """The text of an audit row at ``inner``'s depth, through its class's template."""
    text, values, formats = _row_template(type(row), inner)
    return text % tuple([fmt(value) for fmt, value in zip(formats, values(row))])


def _block_text(rows: cf.AuditRows, sep: str, inner: str) -> str:
    """The text of each of ``rows`` at ``inner``'s depth, after ``sep`` for
    the first and "," + inner for the rest, as _render_items writes a list's
    items."""
    return sep + ("," + inner).join([_row_text(row, inner) for row in rows])


def _render_rows(rows: cf.AuditRows, newline: str, write: Callable[[str], object]) -> None:
    """Write an audit's rows as _render writes a list of cf.audit_payload(row).

    The rows are cut into equal blocks of at most _BLOCK_ROWS, an even
    number where the count allows, and each block's text is one job of
    constants._split_jobs: where a fork pays for this many rows
    (constants._fork_pays at _FORK_MIN_ROWS), pi is first certified as far
    as the rows read, and a forked child makes every second block.  Either
    way the rows give the bytes, or the error, they give in one process.
    """
    if not rows:
        write("[]")
        return
    inner = newline + "  "
    fork = constants._fork_pays(len(rows), _FORK_MIN_ROWS)
    if fork:
        rows.warm()
    pairs = -(-len(rows) // (2 * _BLOCK_ROWS))
    size = -(-len(rows) // (2 * pairs))
    jobs = [functools.partial(_block_text, rows[start : start + size], "," + inner if start else "[" + inner, inner)
            for start in range(0, len(rows), size)]
    for text in constants._split_jobs(fork, jobs):
        write(text)
        del text  # not held while the next block is made
    write(newline + "]")


def _render_counts(stats: spectra.BlockStats, newline: str, write: Callable[[str], object]) -> None:
    """Write the nonzero patterns of ``stats`` by name, with their counts, as
    _render writes a dict, 2^16 names at a time from the table array: code
    order is name order, and a name needs no escape."""
    codes = np.flatnonzero(stats.table)
    lead = f',{newline}  "'.encode()
    write("{")
    skip = 1  # the first row's lead comma is the opening brace
    for text in row_texts(len(codes), lambda s: (lead, numerals(codes[s], stats.base, stats.block_len),
                                                 b'": ', numerals(stats.table[codes[s]]))):
        write(text[skip:].decode("ascii"))
        skip = 0
    write(newline + "}")


def _sha256(path: str) -> str:
    import hashlib  # here, not at the top: a command with no input file never loads OpenSSL

    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            h.update(block)
    return "sha256:" + h.hexdigest()


def _write_outputs(args, payload, outputs: Sequence[str] = (), inputs: Sequence[str] = ()) -> None:
    """Write ``payload``'s report to ``--out`` (atomically) or to standard
    output, then a manifest when any file was written.  Everything in the
    payload is computed before the call; only its text is made while writing."""
    out = getattr(args, "out", None)
    if payload is not None and out:
        with open_text_atomic(out) as fh:
            _emit(payload, fh.write)
        outputs = [out, *outputs]
    elif payload is not None:
        _emit(payload, sys.stdout.write)  # looked up now: tests and callers swap sys.stdout
    if outputs:
        manifest = {
            "subcommand": args.command,
            "params": {k: v for k, v in vars(args).items() if k not in _NOT_PARAMS},
            "version": __version__,
            "inputs": {path: _sha256(path) for path in inputs},
            "outputs": list(outputs),
            "generated_at": datetime.now(timezone.utc).isoformat(),
        }
        manifest_path = getattr(args, "manifest", None) or outputs[0] + ".manifest.json"
        with open_text_atomic(manifest_path) as fh:
            fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _write_digits(args, stream, head: str = "") -> int:
    """Write ``--digits`` digits of ``stream`` as a digit file to ``--out``,
    or print them after ``head``."""
    if args.out:
        write_digit_file(args.out, stream, args.digits)
        _write_outputs(args, None, [args.out])
    else:
        sys.stdout.write(f"{head}{stream.prefix_string(args.digits)}\n")
    return 0


def _cmd_constants(args) -> int:
    stream = constants.const_digits(args.name, args.digits)
    return _write_digits(args, stream, f"{constants.integer_part(args.name)}.")


def _cmd_construct(args) -> int:
    if args.family == "stoneham":
        spec = constructors.StonehamSpec(b=args.base, c=args.c, s=args.s)
        stream = constructors.stoneham_digits(spec, args.digits)
    else:
        spec = constructors.ConcatSpec(family=args.family, base=args.base)
        stream = constructors.concat_digits(spec, args.digits)
    return _write_digits(args, stream)


def _cmd_cf(args) -> int:
    if args.depth > cf.CF_DEPTH_MAX:
        raise ValueError(f"depth = {args.depth} exceeds CF_DEPTH_MAX = {cf.CF_DEPTH_MAX}")
    convs = cf.pi_convergents(args.depth)
    rows = ({"k": c.k, "a": str(c.a), "p": str(c.p), "q": str(c.q)} for c in convs)  # one at a time, as written
    _write_outputs(args, {"const": "pi", "depth": args.depth, "convergents": rows})
    return 0


def _cmd_audit(args) -> int:
    cfg = cf.AuditConfig(mu=args.mu, n_max=args.nmax)  # refuses an n_max past AUDIT_NMAX_MAX first
    conv = cf.pi_convergents(args.k)[args.k]
    if args.lemma == "caseI":
        audit = cf.audit_lemma_caseI(conv, cfg)
    elif args.lemma == "caseII":
        audit = cf.audit_lemma_caseII(conv, cfg)
    else:
        audit = cf.audit_lemma_prime_variant(conv, cfg)
    _write_outputs(args, cf.audit_payload(audit))
    return 0


def _cmd_order(args) -> int:
    sys.stdout.write(f"{groups.mult_order(args.g, args.m)}\n")
    return 0


def _cmd_coset(args) -> int:
    convs = cf.pi_convergents(args.k)
    report = groups.coset_structure(convs[args.k], element_cap=args.cap)
    payload = {key: value for key, value in report._asdict().items() if key != "base"}
    base = report.base
    payload.update(k=args.k, p=str(report.p), q=str(report.q),
                   order=base.order if base else None, totient=base.totient if base else None)
    _write_outputs(args, payload)
    return 0


def _cmd_artin(args) -> int:
    outputs = []
    qs, orders = table = groups.artin_orders(args.limit)
    scan = groups.artin_scan(args.limit, table)
    if args.csv:
        with open_text_atomic(args.csv) as fh:
            fh.write("q,ord,is_artin\n")
            for rows in row_texts(len(qs), lambda s: (numerals(qs[s]), b",", numerals(orders[s]), b",",
                                                      _CSV_FLAGS[(orders[s] == qs[s] - 1).astype(np.intp)], b"\n")):
                fh.write(rows.decode("ascii"))
        outputs.append(args.csv)
    _write_outputs(args, scan._asdict(), outputs)
    return 0


def _cmd_weyl(args) -> int:
    values = []
    for line in Path(args.points).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line:
            values.append(float(line))
    pts = spectra.PointSet(points=tuple(values), eps=args.eps, label=Path(args.points).name)
    m_list = [int(tok) for tok in args.m.split(",") if tok]
    report = spectra.weyl_sum(pts, m_list)
    payload = {
        "points": Path(args.points).name,  # the same file by any path gives the same bytes
        "n_points": report.n_points,
        "rows": [row._asdict() for row in report.rows],
    }
    _write_outputs(args, payload, inputs=[args.points])
    return 0


def _cmd_normality(args) -> int:
    stream = read_digit_file(args.infile)
    table = spectra.block_frequency(stream, args.N, args.kmax)
    blocks = {str(stats.block_len): {**stats.row(), "counts": stats} for stats in table.lengths}
    payload = {"input": Path(args.infile).name, "label": stream.label, "base": stream.base,
               "n_digits": args.N, "blocks": blocks}
    _write_outputs(args, payload, inputs=[args.infile])
    return 0


def _cmd_expsum(args) -> int:
    spectra.check_expsum_p(args.p)  # before <g> is built: its order can reach p - 1
    report = groups.subgroup(args.g, args.p, element_cap=args.cap)
    result = spectra.subgroup_expsum(report, c=args.c)
    payload = {_EXPSUM_KEYS.get(key, key): value for key, value in result._asdict().items()}
    payload["method"] = "fft"
    _write_outputs(args, payload)
    return 0


def _cmd_report(args) -> int:
    spectra.check_weyl_terms(args.N, args.mmax)  # before the digits are read or certified
    inputs = []
    if args.infile:
        stream = read_digit_file(args.infile)
        inputs.append(args.infile)
    else:
        if args.N > REPORT_CONST_N_MAX:
            raise ValueError(f"report --const certifies N + {_REPORT_GUARD_DIGITS} digits; "
                             f"N = {args.N} exceeds {REPORT_CONST_N_MAX} (DIGIT_CEILING - {_REPORT_GUARD_DIGITS})")
        stream = constants.const_digits(args.const, args.N + _REPORT_GUARD_DIGITS)
    payload = spectra.wall_criterion_report(stream, args.N, args.kmax, args.mmax)
    _write_outputs(args, payload, inputs=inputs)
    return 0


def _add_out(sub) -> None:
    sub.add_argument("--out", help="write the result to this file (a manifest lands beside it)")
    sub.add_argument("--manifest", help="override the manifest path")


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once a process: its defaults and each
    subcommand's function are bound when it is built."""
    parser = argparse.ArgumentParser(
        prog="pilab",
        description="Digit expansions, continued-fraction interval audits, and equidistribution statistics.",
    )
    parser.add_argument("--version", action="version", version=f"pilab {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("constants", help="certified digits of pi, ln 10, or ln pi",
                        description="Dual-method certified decimal digits; both engines must agree on every released digit.")
    p.add_argument("--name", required=True, choices=["pi", "ln10", "ln_pi"])
    p.add_argument("--digits", required=True, type=int)
    _add_out(p)
    p.set_defaults(func=_cmd_constants)

    p = subs.add_parser("construct", help="digit streams of the concatenation/power-series families",
                        description="Concatenations of integers, primes, or squares, and the coprime power series family.")
    p.add_argument("--family", required=True, choices=["integers", "primes", "squares", "stoneham"])
    p.add_argument("--base", type=int, default=10, help="output base of the digits; b for stoneham")
    p.add_argument("--c", type=int, default=3, help="stoneham parameter c, coprime to b")
    p.add_argument("--s", type=int, default=0, help="stoneham shift s >= 0")
    p.add_argument("--digits", required=True, type=int)
    _add_out(p)
    p.set_defaults(func=_cmd_construct)

    p = subs.add_parser("cf", help="continued-fraction convergents",
                        description="Certified partial quotients and convergents p_k/q_k of pi.")
    p.add_argument("--depth", required=True, type=int)
    _add_out(p)
    p.set_defaults(func=_cmd_cf)

    p = subs.add_parser("audit", help="interval audits of {pi 10^n} against convergent residues",
                        description="Two-sided interval checks of {pi 10^n} built from residue decompositions "
                                    "modulo q_k (or a nearby prime); rows record pass/fail and margins, never raise.")
    p.add_argument("--lemma", required=True, choices=["caseI", "caseII", "prime"])
    p.add_argument("--k", required=True, type=int, help="convergent index")
    p.add_argument("--mu", type=float, default=2.0, help="irrationality-measure parameter, finite and >= 2")
    p.add_argument("--nmax", type=int, default=12)
    _add_out(p)
    p.set_defaults(func=_cmd_audit)

    p = subs.add_parser("order", help="multiplicative order of g modulo m")
    p.add_argument("--g", required=True, type=int)
    p.add_argument("--m", required=True, type=int)
    p.set_defaults(func=_cmd_order)

    p = subs.add_parser("coset", help="subgroup/coset structure of powers of 10 modulo q_k",
                        description="Builds {p 10^n mod q} and {(p q + 1) 10^n mod q} literally and compares them "
                                    "with <10> and its coset.")
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--cap", type=int, default=groups.DEFAULT_ELEMENT_CAP)
    _add_out(p)
    p.set_defaults(func=_cmd_coset)

    p = subs.add_parser("artin", help="scan primes for 10 as a primitive root",
                        description="Counts primes q <= limit (excluding 2 and 5) with ord_q(10) = q - 1 and "
                                    "reports the empirical density.")
    p.add_argument("--limit", required=True, type=int)
    p.add_argument("--csv", help="write per-prime rows q,ord,is_artin to this file")
    _add_out(p)
    p.set_defaults(func=_cmd_artin)

    p = subs.add_parser("weyl", help="normalized Weyl sum magnitudes of a point file",
                        description="Point file: one decimal in [0,1) per line.")
    p.add_argument("--points", required=True)
    p.add_argument("--m", required=True, help="comma-separated nonzero frequencies")
    p.add_argument("--eps", type=float, default=1e-15, help="certified per-point error bound")
    _add_out(p)
    p.set_defaults(func=_cmd_weyl)

    p = subs.add_parser("normality", help="block-frequency statistics of a digit file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--N", required=True, type=int)
    p.add_argument("--kmax", required=True, type=int)
    _add_out(p)
    p.set_defaults(func=_cmd_normality)

    p = subs.add_parser("expsum", help="exponential sums over the subgroup <g> mod p",
                        description="Exhaustive max over a of |sum_{x in <g>} e(2 pi i a x / p)| with the "
                                    "exp(-(log p)^c) #H envelope and their ratio.")
    p.add_argument("--p", required=True, type=int)
    p.add_argument("--g", type=int, default=10)
    p.add_argument("--c", type=float, default=0.5)
    p.add_argument("--cap", type=int, default=groups.DEFAULT_ELEMENT_CAP)
    _add_out(p)
    p.set_defaults(func=_cmd_expsum)

    p = subs.add_parser("report", help="combined equidistribution/normality report for a digit stream",
                        description="Builds the shift point set {x b^n mod 1}, runs Weyl magnitudes and star "
                                    "discrepancy, and tabulates block frequencies: both sides of the "
                                    "shift-equidistribution criterion for base-b normality.")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--in", dest="infile")
    source.add_argument("--const", choices=["pi", "ln10", "ln_pi"])
    p.add_argument("--N", required=True, type=int)
    p.add_argument("--kmax", type=int, default=3)
    p.add_argument("--mmax", type=int, default=5)
    _add_out(p)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, RuntimeError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

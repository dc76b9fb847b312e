import argparse
import json
import os
import shlex
import time
from pathlib import Path

import pytest
from test_spectra import _child_peak_rise, needs_vmhwm

from pilab import cli, groups, spectra
from pilab.cli import main
from pilab.constructors import CONCAT_DIGIT_CEILING, STONEHAM_DIGIT_CEILING
from pilab.primes import next_prime
from pilab.radix import ProducerExhaustedError, read_digit_file
from pilab.spectra import _CHUNK, EXPSUM_P_MAX, WEYL_TERMS_MAX


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_primes_stdout(capsys):
    code, out, _ = run(capsys, "construct", "--family", "primes", "--digits", "30")
    assert code == 0
    assert out.strip() == "235711131719232931374143475359"


def test_construct_stoneham_stdout(capsys):
    code, out, _ = run(capsys, "construct", "--family", "stoneham", "--base", "2", "--c", "3",
                       "--digits", "12")
    assert code == 0
    assert out.strip() == "000010101011"


def test_order_stdout(capsys):
    code, out, _ = run(capsys, "order", "--g", "10", "--m", "7")
    assert code == 0
    assert out.strip() == "6"


def test_constants_stdout(capsys):
    code, out, _ = run(capsys, "constants", "--name", "pi", "--digits", "20")
    assert code == 0
    assert out.strip() == "3.14159265358979323846"


def test_constants_digit_file_and_manifest(tmp_path, capsys):
    out_file = tmp_path / "pi.digits"
    code, _, _ = run(capsys, "constants", "--name", "pi", "--digits", "200",
                     "--out", str(out_file))
    assert code == 0
    stream = read_digit_file(out_file)
    assert stream.prefix_string(200).startswith("14159")
    with pytest.raises(ProducerExhaustedError):  # the file holds 200 digits, no more
        stream.prefix(201)
    assert stream.label == "pi"
    manifest = json.loads((tmp_path / "pi.digits.manifest.json").read_text())
    assert manifest["subcommand"] == "constants"
    assert manifest["params"]["digits"] == 200
    assert manifest["outputs"] == [str(out_file)]
    assert "generated_at" in manifest


def test_cf_json(capsys):
    code, out, _ = run(capsys, "cf", "--depth", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["convergents"][1] == {"k": 1, "a": "7", "p": "22", "q": "7"}
    assert payload["convergents"][4]["q"] == "33102"


def test_audit_case_two_failing_rows_exit_zero(tmp_path, capsys):
    out_file = tmp_path / "audit.json"
    code, _, _ = run(capsys, "audit", "--lemma", "caseII", "--k", "1", "--mu", "2",
                     "--out", str(out_file))
    assert code == 0  # failing rows are findings, not errors
    payload = json.loads(out_file.read_text())
    assert payload["lemma"] == "caseII"
    assert payload["q"] == "7"
    assert any(not row["pass"] for row in payload["rows"])
    assert "/" in payload["rows"][0]["margin_lower"]


def test_audit_reports_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(capsys, "audit", "--lemma", "caseI", "--k", "2", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_audit_prime_report(capsys):
    code, out, _ = run(capsys, "audit", "--lemma", "prime", "--k", "2", "--nmax", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["q"] == "107"
    assert payload["rows"][0]["case"] == "I"
    assert "scaled_lower" in payload["rows"][0]


@pytest.mark.parametrize("flags", [("--window-factor", "2"), ("--scaled",), ("--no-scaled",)])
def test_audit_removed_options_exit_two(capsys, flags):
    code, out, _ = run(capsys, "audit", "--lemma", "prime", "--k", "2", "--nmax", "4", *flags)
    assert code == 2 and out == ""


def test_construct_b_abbreviates_base(capsys):
    argv = ("construct", "--family", "stoneham", "--c", "3", "--digits", "40")
    assert run(capsys, *argv, "--b", "2") == run(capsys, *argv, "--base", "2")


@pytest.mark.parametrize("lemma,mu", [(lemma, mu) for lemma in ("caseI", "caseII", "prime")
                                      for mu in ("nan", "inf")]
                         + [(lemma, mu) for lemma in ("caseII", "prime") for mu in ("1e6", "2.1234567", "2.0000001", "2.0000009")])
def test_audit_mu_fails_loudly(capsys, lemma, mu):
    start = time.perf_counter()
    code, out, err = run(capsys, "audit", "--lemma", lemma, "--k", "2", "--nmax", "3", "--mu", mu)
    assert time.perf_counter() - start < 1
    assert code == 1
    assert out == "" and err.startswith("error: mu")


def test_audit_manifest_records_every_parsed_parameter(tmp_path, capsys):
    out_file = tmp_path / "prime.json"
    code, _, _ = run(capsys, "audit", "--lemma", "prime", "--k", "5", "--nmax", "3",
                     "--out", str(out_file))
    assert code == 0
    params = json.loads((tmp_path / "prime.json.manifest.json").read_text())["params"]
    assert params == {"lemma": "prime", "k": 5, "mu": 2.0, "nmax": 3}


def test_construct_manifest_records_every_parsed_parameter(tmp_path, capsys):
    out_file = tmp_path / "s.digits"
    code, _, _ = run(capsys, "construct", "--family", "stoneham", "--base", "2", "--digits", "30",
                     "--out", str(out_file))
    assert code == 0
    params = json.loads((tmp_path / "s.digits.manifest.json").read_text())["params"]
    assert params == {"family": "stoneham", "base": 2, "c": 3, "s": 0, "digits": 30}


def test_coset_json(capsys):
    code, out, _ = run(capsys, "coset", "--k", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["hypothesis_ok"] is True
    assert payload["h_equals_subgroup"] is True
    assert payload["g_elements"] == [1, 2, 3, 4, 5, 6]


def test_artin_csv(tmp_path, capsys):
    csv_path = tmp_path / "artin.csv"
    code, out, _ = run(capsys, "artin", "--limit", "300", "--csv", str(csv_path))
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "q,ord,is_artin"
    assert lines[1] == "3,1,false"
    assert "7,6,true" in lines
    payload = json.loads(out)
    assert payload["count_artin"] <= payload["count_primes"]
    assert (tmp_path / "artin.csv.manifest.json").exists()


def test_weyl_points_file(tmp_path, capsys):
    pts = tmp_path / "points.txt"
    golden = (1 + 5**0.5) / 2
    pts.write_text("\n".join(str((n * golden) % 1.0) for n in range(1, 2001)) + "\n")
    code, out, _ = run(capsys, "weyl", "--points", str(pts), "--m", "1,2")
    assert code == 0
    payload = json.loads(out)
    assert payload["n_points"] == 2000
    assert float(payload["rows"][0]["magnitude"]) < 0.01


def test_reports_name_inputs_by_file_name(tmp_path, monkeypatch, capsys):
    # the same file reached by another path gives the same report bytes
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.txt").write_text("\n".join(str(n / 1000) for n in range(1000)) + "\n")
    assert run(capsys, "construct", "--family", "integers", "--digits", "500",
               "--out", "g.digits")[0] == 0
    for argv in (("weyl", "--points", "{}.txt", "--m", "1,2"),
                 ("normality", "--in", "{}.digits", "--N", "500", "--kmax", "2")):
        outs = [run(capsys, *(a.format(path) for a in argv)) for path in ("./g", str(tmp_path / "g"))]
        assert outs[0][0] == outs[1][0] == 0
        assert outs[0][1] == outs[1][1]


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    # every documented invocation, in order, exits 0
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert len(lines) >= 10 and all(line[0] == "pilab" for line in lines)
    monkeypatch.chdir(tmp_path)
    golden = (1 + 5**0.5) / 2
    (tmp_path / "points.txt").write_text("\n".join(str((n * golden) % 1.0) for n in range(1, 1001)) + "\n")
    for line in lines:
        assert run(capsys, *line[1:])[0] == 0, line


def test_normality_report(tmp_path, capsys):
    digits_file = tmp_path / "champ.digits"
    code, _, _ = run(capsys, "construct", "--family", "integers", "--digits", "5000",
                     "--out", str(digits_file))
    assert code == 0
    code, out, _ = run(capsys, "normality", "--in", str(digits_file), "--N", "5000",
                       "--kmax", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["blocks"]["1"]["windows"] == 5000
    assert payload["blocks"]["2"]["windows"] == 4999
    assert float(payload["blocks"]["1"]["max_abs_dev"]) < 0.15


def test_expsum_json(capsys):
    code, out, _ = run(capsys, "expsum", "--p", "31", "--g", "10", "--c", "0.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 15
    assert float(payload["max_magnitude"]) == pytest.approx(2.8284271247461903, rel=1e-9)
    assert payload["method"] == "fft"


def test_expsum_has_no_method_option(capsys):
    for method in ("naive", "fft"):
        assert run(capsys, "expsum", "--p", "31", "--method", method)[0] == 2


@pytest.mark.parametrize("c", ["nan", "inf", "1000"])
def test_expsum_rejects_c_without_a_finite_envelope(capsys, c):
    code, out, err = run(capsys, "expsum", "--p", "31", "--c", c)
    assert code == 1
    assert out == "" and err.startswith("error:") and " c " in err


def test_expsum_refuses_p_above_cap_before_allocating(capsys):
    p = next_prime(EXPSUM_P_MAX + 1)
    code, out, err = run(capsys, "expsum", "--p", str(p), "--g", str(p - 1))  # order 2
    assert code == 1
    assert out == "" and f"p = {p} exceeds EXPSUM_P_MAX" in err


@pytest.mark.parametrize("source", [("--in", "never-read.digits"), ("--const", "pi")])
@pytest.mark.parametrize("n, mmax", [(200_000, WEYL_TERMS_MAX // 200_000 + 1), (10**6, 100_000),
                                     (100, WEYL_TERMS_MAX // _CHUNK + 1), (10**6, 10**9)])
def test_report_refuses_weyl_terms_past_the_ceiling_before_reading_digits(capsys, monkeypatch, source, n, mmax):
    def refuse(*args, **kwargs):
        raise AssertionError("digits read or points built past WEYL_TERMS_MAX")

    for module, name in ((cli, "read_digit_file"), (cli.constants, "const_digits"),
                         (spectra, "shifted_points")):
        monkeypatch.setattr(module, name, refuse)
    start = time.perf_counter()
    code, out, err = run(capsys, "report", *source, "--N", str(n), "--mmax", str(mmax))
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err == (f"error: {mmax} frequencies over {n} points make {mmax * max(n, _CHUNK)} Weyl terms, "
                   f"past WEYL_TERMS_MAX = {WEYL_TERMS_MAX} (about 64 ns a term)\n")


def test_weyl_refuses_frequencies_past_the_ceiling(capsys, tmp_path):
    points = tmp_path / "points.txt"
    points.write_text("0.25\n0.5\n")
    m = ",".join(map(str, range(1, WEYL_TERMS_MAX // _CHUNK + 2)))
    code, out, err = run(capsys, "weyl", "--points", str(points), "--m", m)
    assert code == 1 and out == "" and "past WEYL_TERMS_MAX" in err


@pytest.mark.parametrize("p, cap", [(50_000_017, 60_000_000), (10**18 + 3, 10**18)])
def test_expsum_refuses_p_above_cap_before_building_elements(capsys, monkeypatch, p, cap):
    # with the cap raised, <10> mod p would be built before the transform: 5 * 10^7
    # Python ints at the first p, an array that cannot be allocated at the second
    def subgroup(*args, **kwargs):
        raise AssertionError("<g> built for a p above EXPSUM_P_MAX")

    monkeypatch.setattr(groups, "subgroup", subgroup)
    code, out, err = run(capsys, "expsum", "--p", str(p), "--cap", str(cap))
    assert code == 1
    assert out == "" and err.startswith(f"error: p = {p} exceeds EXPSUM_P_MAX")
    assert "Traceback" not in err


@pytest.mark.parametrize("family,name,ceiling", [
    ("integers", "CONCAT_DIGIT_CEILING", CONCAT_DIGIT_CEILING),
    ("primes", "CONCAT_DIGIT_CEILING", CONCAT_DIGIT_CEILING),
    ("squares", "CONCAT_DIGIT_CEILING", CONCAT_DIGIT_CEILING),
    ("stoneham", "STONEHAM_DIGIT_CEILING", STONEHAM_DIGIT_CEILING),
])
def test_construct_refuses_digits_above_the_ceiling(tmp_path, capsys, family, name, ceiling):
    out_file = tmp_path / "digits.txt"
    code, out, err = run(capsys, "construct", "--family", family, "--digits", str(ceiling + 1),
                         "--out", str(out_file))
    assert code == 1
    assert out == "" and err == f"error: {ceiling + 1} digits exceeds {name} = {ceiling}\n"
    assert not out_file.exists()


@pytest.mark.parametrize("eps", ["-1", "nan", "inf"])
def test_weyl_rejects_negative_or_non_finite_eps(tmp_path, capsys, eps):
    pts = tmp_path / "points.txt"
    pts.write_text("0.25\n0.5\n")
    code, out, err = run(capsys, "weyl", "--points", str(pts), "--m", "1", "--eps", eps)
    assert code == 1
    assert out == "" and err.startswith("error: eps must be finite")


def test_report_wall_criterion(tmp_path, capsys):
    digits_file = tmp_path / "champ.digits"
    run(capsys, "construct", "--family", "integers", "--digits", "1100", "--out", str(digits_file))
    out_file = tmp_path / "wall.json"
    code, _, _ = run(capsys, "report", "--in", str(digits_file), "--N", "1000",
                     "--kmax", "2", "--mmax", "3", "--out", str(out_file))
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["n_points"] == 1000
    assert len(payload["weyl"]) == 3
    assert "star_discrepancy" in payload
    manifest = json.loads((tmp_path / "wall.json.manifest.json").read_text())
    assert str(digits_file) in manifest["inputs"]
    assert manifest["inputs"][str(digits_file)].startswith("sha256:")


def test_report_on_window_that_rounds_to_one(tmp_path, capsys):
    digits_file = tmp_path / "nines.digits"
    digits_file.write_text("base=10 count=72 label=nines\n12" + "9" * 30 + "3" * 40 + "\n")
    out_file = tmp_path / "nines.json"
    code, _, err = run(capsys, "report", "--in", str(digits_file), "--N", "40",
                       "--kmax", "1", "--mmax", "2", "--out", str(out_file))
    assert code == 0, err
    assert json.loads(out_file.read_text())["n_points"] == 40


def test_report_on_pi_stream(capsys):
    code, out, _ = run(capsys, "report", "--const", "pi", "--N", "500", "--kmax", "1",
                       "--mmax", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["label"] == "pi"
    assert payload["blocks"]["1"]["windows"] == 500


@pytest.mark.parametrize("source", [("--in", "x.digits", "--const", "pi"), ()], ids=["both", "neither"])
def test_report_needs_exactly_one_of_in_and_const(capsys, source):
    code, out, err = run(capsys, "report", *source, "--N", "100")
    assert code == 2 and out == ""
    assert "--in" in err and "--const" in err


def test_artin_reruns_byte_identical(tmp_path, capsys):
    outs = []
    for name in ("a", "b"):
        csv_path = tmp_path / f"{name}.csv"
        code, out, _ = run(capsys, "artin", "--limit", "2000", "--csv", str(csv_path))
        assert code == 0
        outs.append((out, csv_path.read_bytes()))
    assert outs[0] == outs[1]


def test_failed_report_write_keeps_old_file(tmp_path, capsys, monkeypatch):
    out_file = tmp_path / "cf.json"
    assert run(capsys, "cf", "--depth", "3", "--out", str(out_file))[0] == 0
    old = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    umask = os.umask(0)
    os.umask(umask)
    assert out_file.stat().st_mode & 0o777 == 0o666 & ~umask

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    code, _, err = run(capsys, "cf", "--depth", "5", "--out", str(out_file))
    assert code == 1 and "replace refused" in err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == old


def test_render_error_after_a_flush_keeps_old_file(tmp_path):
    target = tmp_path / "target.json"
    target.write_bytes(b"old report\n")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    written = []

    def rows():
        yield from range(5000)
        # some 40 kB of rows are past the text buffer by now, in the temporary file
        written.extend(p.stat().st_size for p in tmp_path.glob(".target.json.*"))
        yield object()

    args = argparse.Namespace(command="cf", out=str(link), manifest=None)
    with pytest.raises(TypeError, match="not JSON serializable"):
        cli._write_outputs(args, {"rows": rows()})
    assert written and written[0] > 0
    assert target.read_bytes() == b"old report\n" and link.is_symlink()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "target.json"]


def test_report_out_follows_symlink(tmp_path, capsys):
    target = tmp_path / "target.json"
    target.write_bytes(b"old report\n")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    code, stdout, _ = run(capsys, "cf", "--depth", "30")
    assert code == 0
    assert run(capsys, "cf", "--depth", "30", "--out", str(link))[0] == 0
    assert link.is_symlink() and target.read_text() == stdout
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "link.json.manifest.json", "target.json"]


@needs_vmhwm
def test_audit_report_is_written_without_its_whole_text(tmp_path):
    path = tmp_path / "audit.json"
    argv = ["audit", "--lemma", "caseII", "--k", "12", "--out", str(path), "--nmax"]
    rise = _child_peak_rise(f"from pilab.cli import main\nmain({argv + ['40']!r})", f"main({argv + ['1500']!r})")
    size = path.stat().st_size
    assert size > 7_000_000
    # rises ~2 MB with its rows split with a forked child (a block's text), ~0.3 MB in one process;
    # with the rows held it rose ~4 MB, with its parts and joined text ~21 MB
    assert rise < size


def test_report_byte_identical(tmp_path, capsys):
    digits_file = tmp_path / "champ.digits"
    run(capsys, "construct", "--family", "integers", "--digits", "1100", "--out", str(digits_file))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(capsys, "report", "--in", str(digits_file), "--N", "1000",
                         "--kmax", "1", "--mmax", "2", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_domain_error_exit_one(capsys):
    code, _, err = run(capsys, "order", "--g", "10", "--m", "106")
    assert code == 1
    assert "not a unit" in err


def test_artin_limit_past_lanes_exit_one_before_sieving(capsys, monkeypatch):
    from pilab import primes

    def refuse(limit):
        raise AssertionError(f"sieved to {limit}")

    monkeypatch.setattr(primes, "primes_upto", refuse)
    for limit, message in (("4000000000", "int64"), ("50", ">= 100")):
        code, _, err = run(capsys, "artin", "--limit", limit)
        assert code == 1
        assert message in err


def test_stoneham_gcd_error_exit_one(capsys):
    code, _, err = run(capsys, "construct", "--family", "stoneham", "--base", "10", "--c", "2",
                       "--digits", "10")
    assert code == 1
    assert "gcd" in err


def test_construct_base_outside_digit_alphabet_exit_one(capsys):
    code, _, err = run(capsys, "construct", "--family", "integers", "--base", "40",
                       "--digits", "50")
    assert code == 1
    assert err.startswith("error:") and "2..36" in err


@pytest.mark.parametrize("header,body", [("base=36", "0123!"), ("base=10", "012a4")])
def test_normality_rejects_bad_digit_file(tmp_path, capsys, header, body):
    digits_file = tmp_path / "bad.digits"
    digits_file.write_text(f"{header} count=5 label=bad\n{body}\n", encoding="ascii")
    code, out, err = run(capsys, "normality", "--in", str(digits_file), "--N", "5", "--kmax", "1")
    assert code == 1
    assert out == "" and err.startswith("error:")


def test_usage_error_exit_two(capsys):
    code, _, _ = run(capsys, "order", "--g", "10", "--m", "7", "--bogus-flag")
    assert code == 2
    code, _, _ = run(capsys, "no-such-command")
    assert code == 2


def test_help_texts_exist(capsys):
    for sub in ("constants", "construct", "cf", "audit", "order", "coset", "artin",
                "weyl", "normality", "expsum", "report"):
        code, out, _ = run(capsys, sub, "--help")
        assert code == 0
        assert "usage" in out.lower()


def test_report_const_refuses_n_past_its_ceiling_before_certifying(capsys, monkeypatch):
    from pilab import constants
    from pilab.cli import REPORT_CONST_N_MAX

    def refuse(name, n_digits):
        raise AssertionError(f"certified {n_digits} digits of {name}")

    monkeypatch.setattr(constants, "_certify", refuse)
    assert REPORT_CONST_N_MAX == constants.DIGIT_CEILING - 30
    code, out, err = run(capsys, "report", "--const", "pi", "--N", str(REPORT_CONST_N_MAX + 1))
    assert code == 1 and out == ""
    assert err == (f"error: report --const certifies N + 30 digits; N = {REPORT_CONST_N_MAX + 1} "
                   f"exceeds {REPORT_CONST_N_MAX} (DIGIT_CEILING - 30)\n")


def test_artin_limit_past_memory_ceiling_exit_one_before_sieving(capsys, monkeypatch):
    from pilab import primes
    from pilab.groups import ARTIN_LIMIT_MAX

    def refuse(limit):
        raise AssertionError(f"sieved to {limit}")

    monkeypatch.setattr(primes, "primes_upto", refuse)
    for limit in (ARTIN_LIMIT_MAX + 1, 3037000500):
        code, _, err = run(capsys, "artin", "--limit", str(limit))
        assert code == 1
        assert err == (f"error: artin limit {limit} exceeds ARTIN_LIMIT_MAX = {ARTIN_LIMIT_MAX}: "
                       "its in-memory sieve would pass 2 GiB\n")


@pytest.mark.parametrize("lemma", ["caseI", "caseII", "prime"])
def test_audit_refuses_nmax_past_its_ceiling_before_any_row(capsys, monkeypatch, lemma):
    from pilab import cf

    def refuse(depth):
        raise AssertionError(f"expanded pi to depth {depth}")

    monkeypatch.setattr(cf, "pi_convergents", refuse)
    assert cf.AUDIT_NMAX_MAX == 4729
    code, out, err = run(capsys, "audit", "--lemma", lemma, "--k", "12", "--nmax", str(cf.AUDIT_NMAX_MAX + 1))
    assert code == 1 and out == ""
    assert err == f"error: n_max = {cf.AUDIT_NMAX_MAX + 1} exceeds AUDIT_NMAX_MAX = {cf.AUDIT_NMAX_MAX}\n"


def test_cf_refuses_depth_past_its_ceiling_before_expanding(capsys, monkeypatch):
    from pilab import cf

    def refuse(depth):
        raise AssertionError(f"expanded pi to depth {depth}")

    monkeypatch.setattr(cf, "pi_convergents", refuse)
    assert cf.CF_DEPTH_MAX == 15913
    code, out, err = run(capsys, "cf", "--depth", str(cf.CF_DEPTH_MAX + 1))
    assert code == 1 and out == ""
    assert err == f"error: depth = {cf.CF_DEPTH_MAX + 1} exceeds CF_DEPTH_MAX = {cf.CF_DEPTH_MAX}\n"


@pytest.mark.parametrize("limit", [10**4, 10**5])
def test_artin_csv_matches_row_loop(limit, tmp_path, capsys):
    from pilab.groups import artin_orders

    csv_path = tmp_path / "artin.csv"
    assert run(capsys, "artin", "--limit", str(limit), "--csv", str(csv_path))[0] == 0
    qs, orders = artin_orders(limit)
    lines = ["q,ord,is_artin"]
    for q, order in zip(qs.tolist(), orders.tolist()):
        lines.append(f"{q},{order},{str(order == q - 1).lower()}")
    assert csv_path.read_bytes() == ("\n".join(lines) + "\n").encode()

"""Command-line behavior: output shapes and exit codes."""

import codecs
import contextlib
import importlib
import json
import os
import shutil
import signal
import subprocess
import sys
from importlib import metadata
from pathlib import Path

import pytest

from liepencil import corpus
from liepencil.classify import classify, classify_family
from liepencil.cli import RENDER, main
from liepencil.errors import ExclusionViolation, InvalidAlgebra
from liepencil.parser import MAX_DIM, MAX_POWER_SIZE, load_algebra, parse_text
from liepencil.poly import MAX_EXPONENT


@pytest.fixture
def corpus_file(tmp_path):
    def _write(name):
        path = tmp_path / name
        path.write_text(corpus.read_text(name))
        return str(path)
    return _write


def test_classify_text_output(corpus_file, capsys):
    code = main(["classify", corpus_file("example1.lie")])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "name: example1"
    assert "dim: 4" in out
    assert "generic rank: 2" in out
    assert "index: 2" in out
    assert "p0: 1" in out
    assert out[-1] == "G is of Kronecker type."


def test_classify_structured_output(corpus_file, capsys):
    code = main(["classify", corpus_file("heisenberg3.lie"), "--output", "structured"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "mixed"
    assert payload["p0"] == "x3"
    assert payload["p_lambda"] == "a3*lambda + x3"


def test_classify_family_samples(corpus_file, capsys):
    code = main(["classify", corpus_file("L3a.lie"), "--samples", "2", "--seed", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("sample a=") == 2
    assert out.rstrip().endswith("G is of Kronecker type.")


def test_degenerate_sample_is_flagged(corpus_file, capsys):
    """Seed 0 lands L12a on a = -2, where the family degenerates to mixed;
    the symbolic verdict still stands, and the exit code is 0."""
    path = corpus_file("L12a.lie")
    assert main(["classify", path, "--seed", "0"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "sample a=-2: mixed" in out
    assert "warning: sampled verdicts disagree with the symbolic verdict" in out
    assert out[-1] == "G is of Kronecker type."
    assert main(["classify", path, "--seed", "0", "--output", "structured"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert {"values": {"a": "-2"}, "verdict": "mixed"} in payload["samples"]
    assert payload["samples_agree"] is False


def test_library_default_seed_draws_the_cli_samples(corpus_file, capsys):
    """classify_family and the CLI share one default seed, so the library
    call draws the samples `classify` prints; with seed 0 it drew L12a's
    degenerate a = -2."""
    assert main(["classify", corpus_file("L12a.lie"), "--output", "structured"]) == 0
    printed = json.loads(capsys.readouterr().out)["samples"]
    fam = classify_family(corpus.entry("L12a").load())
    assert fam.all_agree
    assert [
        {"values": {k: str(v) for k, v in s.values.items()}, "verdict": s.report.verdict.value}
        for s in fam.samples
    ] == printed


@pytest.mark.parametrize("command", ["classify", "check"])
def test_no_admissible_sample_is_a_domain_error(command, tmp_path, capsys, monkeypatch):
    """A family whose exclusions no draw passes; a zero exclusion, the one
    such input the parsers could once build, is refused where it is written."""
    def excluded(alg, values):
        raise ExclusionViolation("every draw is excluded")

    # the package exports the function classify, which hides the module
    monkeypatch.setattr(importlib.import_module("liepencil.classify"), "substitute_params", excluded)
    path = tmp_path / "empty.lie"
    path.write_text("dim 3\nparam a != 0\n[e1,e2] = a*e3\n")
    assert main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err == (
        "error: could not find parameter values satisfying the exclusions "
        "after 100 draws\n"
    )


ZERO_TEXT = "dim 3\nparam a != a\n[e1,e2] = a*e3\n"
ZERO_JSON = '{"dim": 3, "params": [{"name": "a", "nonzero": "0"}]}'


@pytest.mark.parametrize(
    "name, text, argv, where",
    [
        ("zero.lie", ZERO_TEXT, ["classify"], "zero.lie:2:9"),
        ("zero.lie", ZERO_TEXT, ["classify", "--param", "a=2"], "zero.lie:2:9"),
        ("zero.json", ZERO_JSON, ["validate"], "zero.json: params[0].nonzero"),
    ],
    ids=["classify", "bound", "json"],
)
def test_zero_exclusion_is_a_usage_error(name, text, argv, where, tmp_path, capsys):
    """Once read, it ended in a failed sampling or a violated binding, exit 1."""
    path = tmp_path / name
    path.write_text(text)
    assert main([argv[0], str(path), *argv[1:]]) == 2
    assert capsys.readouterr().err == (
        f"error: {path.parent / where}: the exclusion is the zero polynomial, so no parameter value satisfies it\n"
    )


def test_many_jacobi_violations_are_cut_short(tmp_path, capsys):
    path = tmp_path / "seven.lie"
    path.write_text(
        "dim 4\n[e1,e2] = e3 + e4\n[e1,e3] = e1 + e4\n[e2,e3] = e2 + e1\n"
        "[e1,e4] = e2\n[e2,e4] = e3\n"
    )
    assert main(["classify", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.count("Jacobi identity fails") == 3
    assert err.endswith("(and 4 more)\n")


def test_classify_with_bound_param(corpus_file, capsys):
    code = main(["classify", corpus_file("L3a.lie"), "--param", "a=3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "sample" not in out


def test_excluded_param_value_fails_domain(corpus_file, capsys):
    code = main(["classify", corpus_file("L3a.lie"), "--param", "a=0"])
    assert code == 1
    assert "a != 0" in capsys.readouterr().err


def test_bad_param_syntax_is_usage_error(corpus_file, capsys):
    assert main(["classify", corpus_file("L3a.lie"), "--param", "a"]) == 2
    assert main(["classify", corpus_file("L3a.lie"), "--param", "a=zz"]) == 2
    assert main(["classify", corpus_file("L3a.lie"), "--param", "a=1", "--param", "a=2"]) == 2


@pytest.mark.parametrize("value", ["1e5000", "1e10000000", "1.5e-99999"])
def test_param_value_past_the_digit_limit_is_refused(value, tmp_path, capsys):
    """A value whose numerator or denominator could pass Python's limit on
    the digits of an int is refused before it is built."""
    path = tmp_path / "fam.lie"
    path.write_text("dim 3\nparam a\n[e1,e2] = e3 + a*e1\n")
    with _deadline(1.0):
        code = main(["classify", str(path), "--param", f"a={value}"])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: {value!r} could have more than {LIMIT} digits" in err


@pytest.mark.parametrize(
    "table",
    ["param a\n[e1,e2] = a^2000*e3\n", "param a != a^3000\n[e1,e2] = e3\n"],
    ids=["coefficient", "exclusion"],
)
def test_substitution_past_the_size_limit_is_refused(table, tmp_path, capsys):
    """H(c(v)) <= H(c) * H(v)^deg c bounds each value substitution builds:
    7e-4000 in a^2000 could give 8 million digits, and is refused before
    the power is taken."""
    path = tmp_path / "fam.lie"
    path.write_text("dim 3\n" + table)
    with _deadline(2.0):
        code = main(["classify", str(path), "--param", "a=7e-4000"])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: the value of 'a' is too large to substitute:"
        f" a result could have more than {MAX_POWER_SIZE} digits\n"
    )


def test_substitution_within_the_size_limit_is_accepted(tmp_path, capsys):
    """a^2000 at 7e-40 has 80,000 digits, within the limit."""
    path = tmp_path / "fam.lie"
    path.write_text("dim 3\nparam a\n[e1,e2] = a^2000*e3\n")
    assert main(["classify", str(path), "--param", "a=7e-40"]) == 0
    assert capsys.readouterr().out.endswith("G is of mixed type.\n")


@pytest.mark.parametrize("value", ["3", "-3/4", "0.5", "1e3", "2.5E-2"])
def test_param_value_syntax_is_kept(value, corpus_file, capsys):
    assert main(["index", corpus_file("L3a.lie"), "--param", f"a={value}"]) == 0


def test_missing_file_is_usage_error(capsys):
    assert main(["classify", "/no/such/file.lie"]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "sl2.lie", "--trials", "0"],
        ["check", "sl2.lie", "--trials", "-3"],
        ["classify", "L3a.lie", "--samples", "-2"],
        ["table", "--samples", "-1"],
    ],
    ids=["trials-0", "trials-negative", "classify-samples", "table-samples"],
)
def test_count_out_of_range_is_usage_error(argv, corpus_file, capsys):
    argv = [corpus_file(a) if a.endswith(".lie") else a for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be at least" in captured.err


def test_smallest_counts_accepted(corpus_file, capsys):
    assert main(["check", corpus_file("sl2.lie"), "--trials", "1"]) == 0
    assert "agreement: 1/1" in capsys.readouterr().out
    assert main(["classify", corpus_file("L3a.lie"), "--samples", "0"]) == 0
    assert "sample" not in capsys.readouterr().out


def test_parse_error_reports_position(tmp_path, capsys):
    bad = tmp_path / "bad.lie"
    bad.write_text("dim 3\n[e1,e2] = e9\n")
    assert main(["classify", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "bad.lie" in err and "2" in err


@pytest.mark.parametrize(
    "command, text, where",
    [
        ("validate", "dim 2\n[e1,e2] = 2^99999999999*e1\n", "huge.lie:2:13:"),
        ("classify", "dim 2\nparam a\n[e1,e2] = a^99999999999*e1\n", "huge.lie:3:13:"),
    ],
    ids=["integer-base", "parameter-base"],
)
def test_huge_exponent_is_refused_at_its_token(command, text, where, tmp_path, capsys):
    path = tmp_path / "huge.lie"
    path.write_text(text)
    with _deadline(1.0):
        code = main([command, str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert where in err and "exponent 99999999999 exceeds the limit" in err


HUGE = "9" * (sys.get_int_max_str_digits() + 700)


@pytest.mark.parametrize(
    "filename, text, where",
    [
        ("huge.lie", f"dim 2\n[e1,e2] = {HUGE}*e1\n", "huge.lie:2:11: integer of"),
        ("huge.lie", f"dim 2\n[e1,e2] = 2^{HUGE}*e1\n", "huge.lie:2:13: integer of"),
        ("huge.lie", f"dim {HUGE}\n", "huge.lie:1:5: integer of"),
        ("huge.lie", f"dim 2\n[e1,e{HUGE}] = e1\n", "huge.lie:2:5: integer of"),
        ("huge.lie", f"dim 2\n[e1,e2] = e{HUGE}\n", "huge.lie:2:11: integer of"),
        ("huge.json", f'{{"dim": {HUGE}}}', "huge.json: dim: must be a positive integer"),
    ],
    ids=["coefficient", "exponent", "dim", "bracket-index", "basis-term", "json-dim"],
)
def test_huge_integer_literal_is_a_positioned_error(filename, text, where, tmp_path, capsys):
    """Past Python's limit on the digits of an int, a literal is refused at
    its position, or at its path in a JSON document, with no traceback."""
    path = tmp_path / filename
    path.write_text(text)
    code = main(["validate", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert where in err and "Traceback" not in err


def test_repeated_json_member_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "twice.json"
    path.write_text('{"dim": 3, "dim": 4}')
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: member name 'dim' is repeated\n"


def test_deep_json_nesting_is_a_positioned_error(tmp_path, capsys):
    """json.loads recurses once per level; past the bound the document is
    refused at the bracket that passes it, not with a RecursionError."""
    path = tmp_path / "deep.json"
    path.write_text('{"dim": 3, "name": ' + "[" * 100_000 + "]" * 100_000 + "}")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: invalid JSON: nesting deeper than 100 levels: line 1 column 119 (char 118)\n"
    )


@pytest.mark.parametrize("command", ["validate", "classify", "index", "charpoly", "check"])
def test_undecodable_file_is_a_positioned_error(command, tmp_path, capsys):
    path = tmp_path / "bad.lie"
    path.write_bytes(b"dim 3\n[e1,e2] = e3 # \xff\n")
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}:2:16: byte 0xff is not valid UTF-8\n"


@pytest.mark.parametrize(
    "filename, text, where",
    [
        ("big.lie", "dim 99999999999999\n", "big.lie:1:5: dimension 99999999999999 exceeds"),
        ("big.lie", f"# one past the limit\ndim {MAX_DIM + 1}\n", f"big.lie:2:5: dimension {MAX_DIM + 1} exceeds"),
        ("big.json", '{"dim": 99999999999999}', "big.json: dim: dimension 99999999999999 exceeds"),
        ("big.json", f'{{"dim": {MAX_DIM + 1}}}', f"big.json: dim: dimension {MAX_DIM + 1} exceeds"),
    ],
    ids=["text", "text-one-past", "json", "json-one-past"],
)
def test_large_dimension_is_refused_at_its_token(filename, text, where, tmp_path, capsys):
    path = tmp_path / filename
    path.write_text(text)
    with _deadline(1.0):
        code = main(["validate", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert where in err and f"the limit {MAX_DIM}" in err and "Traceback" not in err


def test_largest_dimension_is_accepted(tmp_path, capsys):
    for name, text in (("top.lie", f"dim {MAX_DIM}\n"), ("top.json", f'{{"dim": {MAX_DIM}}}')):
        path = tmp_path / name
        path.write_text(text)
        assert main(["validate", str(path)]) == 0
        assert f"dim {MAX_DIM}" in capsys.readouterr().out


def test_zero_rows_keep_the_largest_dimension_fast(tmp_path, capsys):
    """All but two rows of A_x are zero, and no Pfaffian over them is tried."""
    path = tmp_path / "wide.lie"
    path.write_text(f"dim {MAX_DIM}\n[e1,e2] = e3\n")
    with _deadline(10.0):
        code = main(["classify", str(path), "--output", "structured"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert (payload["verdict"], payload["p0"], payload["index"]) == ("mixed", "x3", MAX_DIM - 2)


LIMIT = sys.get_int_max_str_digits()


@pytest.mark.parametrize(
    "text, where, what",
    [
        # 2^32767 alone has 9865 digits, so the inner power is refused
        ("[e1,e2] = (2^32767)^1000*e1", "huge.lie:3:13:", "power"),
        # 2^1000 has 302 digits and passes; its 1000th power does not
        ("[e1,e2] = (2^1000)^1000*e1", "huge.lie:3:19:", "power"),
        ("[e1,e2] = ((2^1000)^1000)^1000*e1", "huge.lie:3:20:", "power"),
        ("[e1,e2] = 2^14000*2^14000*e1", "huge.lie:3:18:", "product"),
        ("[e1,e2] = e1/3^5000/3^5000", "huge.lie:3:20:", "product"),
        ("[e1,e2] = (1/3 + a)^10000*e1", "huge.lie:3:20:", "power"),
        # 1/3^4000 and 1/7^4000 pass; their sum has the 5289-digit denominator 21^4000
        ("[e1,e2] = e2/3^4000 + e2/7^4000", "huge.lie:3:21:", "sum"),
    ],
    ids=["nested-power", "outer-power", "triple-power", "product", "quotient", "parameter", "sum"],
)
def test_overlong_coefficient_is_refused_at_its_operator(text, where, what, tmp_path, capsys):
    path = tmp_path / "huge.lie"
    path.write_text(f"dim 2\nparam a\n{text}\n")
    with _deadline(1.0):
        code = main(["validate", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{where} a coefficient of this {what} would exceed the limit of {LIMIT} digits" in err


def test_coefficients_up_to_the_limit_are_accepted():
    # 2^14000 has 4215 digits and 3^9000 has 4295
    alg = parse_text("dim 2\n[e1,e2] = 2^14000*e1 + e2/3^9000\n")
    assert alg.structure_constant(1, 2, 1).constant_value() == 2**14000
    # 2^14001, a sum, has 4215 digits too
    alg = parse_text("dim 2\n[e1,e2] = 2^14000*e1 + 2^14000*e1\n")
    assert alg.structure_constant(1, 2, 1).constant_value() == 2**14001
    # a sum is measured coefficient by coefficient: 1/3^4000 and a/7^4000
    # have 1909 and 3381 digits, though the lcm of their denominators has 5289
    alg = parse_text("dim 3\nparam a\n[e1,e2] = e3/3^4000 + a*e3/7^4000\n")
    assert alg.structure_constant(1, 2, 3).term_count() == 2
    # its coefficient bound, 5289 digits, leaves the default samples room
    assert len(classify_family(alg, samples=3, seed=1).samples) == 3
    # and exactly: 10^4300 - 1 has 4300 digits
    alg = parse_text("dim 2\n[e1,e2] = 9*10^4299*e1 - e1 + 10^4299*e1\n")
    assert alg.structure_constant(1, 2, 1).constant_value() == 10**4300 - 1


def test_dense_power_is_refused_at_its_operator(tmp_path, capsys):
    # (1+a)^4000 has 4001 terms of up to 1205 digits
    path = tmp_path / "dense.lie"
    path.write_text("dim 2\nparam a\n[e1,e2] = (1+a)^4000*e1\n")
    with _deadline(1.0):
        code = main(["validate", str(path)])
    assert code == 2
    assert (
        f"dense.lie:3:16: this power could hold more than {MAX_POWER_SIZE} digits in all"
        in capsys.readouterr().err
    )


def test_moderate_power_is_accepted():
    alg = parse_text("dim 2\nparam a\n[e1,e2] = (1+a)^100*e1\n")
    assert alg.structure_constant(1, 2, 1).term_count() == 101


def test_dense_product_is_refused_at_its_operator(tmp_path, capsys):
    # each (1+a)^575 passes, but a product of two has up to 1151 terms of up
    # to 347 digits: the first '*' refuses it, before anything is multiplied
    path = tmp_path / "dense.lie"
    path.write_text("dim 2\nparam a\n[e1,e2] = (1+a)^575*(1+a)^575*(1+a)^575*(1+a)^575*e1\n")
    with _deadline(0.5):
        code = main(["validate", str(path)])
    assert code == 2
    assert (
        f"dense.lie:3:20: this product could hold more than {MAX_POWER_SIZE} digits in all"
        in capsys.readouterr().err
    )


def test_moderate_product_is_accepted():
    alg = parse_text("dim 2\nparam a\n[e1,e2] = (1+a)^100*(1-a)^100*(2+a)^100*e1\n")
    assert alg.structure_constant(1, 2, 1).term_count() == 301


@pytest.mark.parametrize(
    "filename, text, where, what",
    [
        ("deg.lie", "dim 2\nparam a\n[e1,e2] = a^20000*a^20000*e1\n", "deg.lie:3:18:", "product"),
        ("deg.lie", "dim 2\nparam a\nparam b\n[e1,e2] = (a*b)^20000*e1\n", "deg.lie:4:16:", "power"),
        ("deg.lie", "dim 2\nparam a != a^20000*a^20000\n[e1,e2] = e1\n", "deg.lie:2:19:", "product"),
        ("deg.lie", "dim 2\nparam a\n[e1,e2] = a^16384*a^16384*e1\n", "deg.lie:3:18:", "product"),
        (
            "deg.json",
            '{"dim": 2, "params": [{"name": "a"}],'
            ' "brackets": [{"i": 1, "j": 2, "terms": {"1": "a^20000*a^20000"}}]}',
            "deg.json: brackets[0].terms.1: bad polynomial:",
            "product",
        ),
    ],
    ids=["product", "power", "exclusion", "one-past", "json"],
)
def test_degree_past_the_limit_is_refused_at_its_operator(filename, text, where, what, tmp_path, capsys):
    path = tmp_path / filename
    path.write_text(text)
    with _deadline(1.0):
        code = main(["classify", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    degree = 32768 if "16384" in text else 40000
    assert f"{where} this {what} would have total degree {degree}, past the limit {MAX_EXPONENT}" in err


def test_degree_up_to_the_limit_is_accepted():
    alg = parse_text("dim 2\nparam a\n[e1,e2] = a^16383*a^16384*e1\n")
    assert alg.structure_constant(1, 2, 1).total_degree() == MAX_EXPONENT


def test_long_sum_is_measured_where_it_changed():
    # measuring the whole running sum at every '+' is quadratic: 5.7 s for
    # these 2000 terms on a shared 2-vCPU VM, 0.3 s measuring where it changed
    text = " + ".join(f"{i + 1}/{i + 2}*a^{i}*e1" for i in range(2000))
    with _deadline(2.0):
        alg = parse_text(f"dim 2\nparam a\n[e1,e2] = {text}\n")
    assert alg.structure_constant(1, 2, 1).term_count() == 2000


@pytest.mark.parametrize("output", ["text", "structured"])
def test_violations_past_the_digit_limit_are_printed(output, tmp_path, capsys):
    # both coefficients pass the parser; the Jacobi sum -2^16000 has 4817 digits
    path = tmp_path / "big.lie"
    path.write_text("dim 3\n[e1,e2] = 2^8000*e3\n[e1,e3] = 2^8000*e1\n")
    code = main(["validate", str(path), "--output", output])
    out = capsys.readouterr().out
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        value = str(-2**16000)
    finally:
        sys.set_int_max_str_digits(previous)
    assert code == 1
    assert f"Jacobi identity fails on (e1, e2, e3) in the e3 component: {value}" in out


@contextlib.contextmanager
def _deadline(seconds):
    """Fail the test, instead of hanging, when the body runs past ``seconds``."""
    def expire(signum, frame):
        pytest.fail(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_degree_overflow_is_a_domain_error(tmp_path, capsys):
    path = tmp_path / "deep.lie"
    path.write_text(f"dim 2\nparam a\n[e1,e2] = a^{MAX_EXPONENT}*e1\n")
    assert main(["classify", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: a product of total degree {MAX_EXPONENT + 1} exceeds the limit")


def test_validate_ok_and_failing(corpus_file, capsys):
    assert main(["validate", corpus_file("example1.lie")]) == 0
    assert "OK" in capsys.readouterr().out
    assert main(["validate", corpus_file("L5a.lie")]) == 1
    out = capsys.readouterr().out
    assert "not a Lie algebra" in out
    assert "Jacobi" in out


def test_index_output(corpus_file, capsys):
    assert main(["index", corpus_file("example1.lie")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["dim: 4", "generic rank: 2", "index: 2"]


def _corpus_files():
    files = []
    for e in corpus.manifest():
        files += [e.file] + ([e.variant] if e.variant else [])
    return files


@pytest.mark.parametrize("filename", _corpus_files())
def test_index_matches_classify_on_corpus(filename, corpus_file, capsys):
    path = corpus_file(filename)
    alg = load_algebra(path)
    if filename == "L5a.lie":  # the printed table fails the Jacobi identity
        with pytest.raises(InvalidAlgebra) as exc:
            classify(alg)
        assert main(["index", path]) == 1
        assert capsys.readouterr().err == f"error: {exc.value}\n"
        return
    report = classify(alg)
    assert main(["index", path]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"dim: {report.dim}",
        f"generic rank: {report.generic_rank}",
        f"index: {report.index}",
    ]
    assert main(["index", path, "--output", "structured"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "name": report.name,
        "dim": report.dim,
        "generic_rank": report.generic_rank,
        "index": report.index,
    }


def test_charpoly_output(corpus_file, capsys):
    assert main(["charpoly", corpus_file("heisenberg3.lie")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["p0: x3", "p(lambda): a3*lambda + x3"]


def test_check_agreement(corpus_file, capsys):
    code = main(["check", corpus_file("heisenberg3.lie"), "--trials", "3", "--seed", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "symbolic: mixed" in out
    assert out.count("agree") >= 3
    assert "agreement: 3/3" in out


def test_check_structured(corpus_file, capsys):
    code = main(["check", corpus_file("sl2.lie"), "--trials", "2", "--output", "structured"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["agreeing"] == 2
    assert len(payload["trials"]) == 2


def test_check_structured_writes_a_numeric_p0_past_the_digit_limit(tmp_path, capsys):
    """4000-digit structure constants give the numeric p0 coefficients of
    about 8000 digits, which str() refuses."""
    path = tmp_path / "big.lie"
    path.write_text(
        "dim 6\n[e1,e3] = 10^4000*e5 + e6\n[e1,e4] = e5\n[e2,e4] = 10^4000*e5 + e6\n"
    )
    assert main(["check", str(path), "--trials", "1", "--output", "structured"]) == 0
    trial = json.loads(capsys.readouterr().out)["trials"][0]
    assert trial["verdict"] == "mixed"
    assert max(len(c) for c in trial["p0"].replace("*", " ").split()) > LIMIT


GOLDEN = json.loads(Path(__file__).with_name("golden_reports.json").read_text())


@pytest.mark.parametrize("name", ["heisenberg3", "sl2"])
@pytest.mark.parametrize("command", ["classify", "check"])
def test_structured_payload_is_pinned(command, name, corpus_file, capsys):
    """Every key and value of the structured report, in order; only the
    elapsed time is masked."""
    assert main([command, corpus_file(f"{name}.lie"), "--output", "structured"]) == 0
    payload = json.loads(capsys.readouterr().out)
    report = payload.get("symbolic", payload)
    assert isinstance(report["elapsed"], float)
    report["elapsed"] = None
    assert json.dumps(payload) == json.dumps(GOLDEN[f"{command} {name}"])


def test_table_external_corpus_mismatch(tmp_path, capsys):
    (tmp_path / "h3.lie").write_text(corpus.read_text("heisenberg3.lie"))
    (tmp_path / "manifest.json").write_text(json.dumps({
        "entries": [{
            "name": "h3", "file": "h3.lie",
            "expected": "kronecker", "provenance": "analytic",
        }],
    }))
    code = main(["table", "--corpus", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "MISMATCH" in out
    assert "mismatches: h3" in out
    assert "0 of 1" in out


def test_table_external_corpus_match(tmp_path, capsys):
    (tmp_path / "h3.lie").write_text(corpus.read_text("heisenberg3.lie"))
    (tmp_path / "manifest.json").write_text(json.dumps({
        "entries": [{
            "name": "h3", "file": "h3.lie",
            "expected": "mixed", "provenance": "analytic",
        }],
    }))
    assert main(["table", "--corpus", str(tmp_path)]) == 0
    assert "1 of 1" in capsys.readouterr().out


@pytest.mark.parametrize("variant", [5, ["x.lie"]])
def test_table_refuses_a_variant_that_is_no_file_name(tmp_path, capsys, variant):
    """The variant is read only when the primary table fails Jacobi, as
    L5a does; a bad one is a schema error, not a crash."""
    (tmp_path / "L5a.lie").write_text(corpus.read_text("L5a.lie"))
    (tmp_path / "manifest.json").write_text(json.dumps({
        "entries": [{
            "name": "L5a", "file": "L5a.lie", "expected": "mixed",
            "provenance": "analytic", "variant": variant, "jacobi_ok": False,
        }],
    }))
    assert main(["table", "--corpus", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "entries[0]: 'variant' must be a string or null" in err


def _bad_variant_corpus(tmp_path) -> str:
    """A corpus whose L5a entry names the printed L5a as its variant too, so
    both of its tables fail the Jacobi check, beside a valid h3."""
    for name in ("L5a.lie", "L5a_variant.lie"):
        (tmp_path / name).write_text(corpus.read_text("L5a.lie"))
    (tmp_path / "h3.lie").write_text(corpus.read_text("heisenberg3.lie"))
    (tmp_path / "manifest.json").write_text(json.dumps({
        "entries": [
            {"name": "L5a", "file": "L5a.lie", "expected": "kronecker", "provenance": "analytic",
             "variant": "L5a_variant.lie", "jacobi_ok": False},
            {"name": "h3", "file": "h3.lie", "expected": "mixed", "provenance": "analytic"},
        ],
    }))
    return str(tmp_path)


def test_table_keeps_its_rows_when_a_variant_fails_jacobi(tmp_path, capsys):
    """A variant that is no Lie algebra is one failed attempt, written as the
    primary's failure is: its entry is unmatched and every row prints."""
    directory = _bad_variant_corpus(tmp_path)
    violation = "Jacobi identity fails on (e1, e2, e6) in the e3 component: 4"
    assert main(["table", "--corpus", directory]) == 1
    out = capsys.readouterr()
    assert out.err == ""
    lines = out.out.splitlines()
    assert lines[:2] == [f"L5a   as printed: {violation}", f"L5a*  as printed: {violation}"]
    assert lines[2].startswith("h3    dim 3  index 1  p0 x3")
    assert lines[-3:] == ["", "1 of 2 families match the published types", "mismatches: L5a"]
    assert main(["table", "--corpus", directory, "--output", "structured"]) == 1
    families = json.loads(capsys.readouterr().out)["families"]
    assert families[0]["jacobi_failure"] == violation
    assert families[0]["attempts"] == [{"label": "L5a*", "jacobi_failure": violation}]
    assert [f["matched"] for f in families] == [False, True]


def test_table_checks_jacobi_once_per_table(monkeypatch, capsys):
    """Each loaded table is validated once, by the classification itself;
    a failing primary keeps its report for the output."""
    # the package attribute liepencil.classify is the function, not the module
    classify_module = sys.modules["liepencil.classify"]
    calls = []
    validate = classify_module.validate

    def counting(alg):
        calls.append(alg.name)
        return validate(alg)

    monkeypatch.setattr(classify_module, "validate", counting)
    monkeypatch.setattr(sys.modules["liepencil.cli"], "validate", counting)
    main(["table", "--samples", "0", "--output", "structured"])
    families = json.loads(capsys.readouterr().out)["families"]
    loaded = [a["label"] for f in families for a in f["attempts"]]
    loaded += [f["name"] for f in families if f["jacobi_failure"] is not None]
    assert sorted(calls) == sorted(loaded)
    failed = [f for f in families if f["jacobi_failure"] is not None]
    assert [f["name"] for f in failed] == ["L5a"]
    assert failed[0]["jacobi_failure"].startswith("Jacobi identity fails")


def test_table_empty_corpus(tmp_path, capsys):
    (tmp_path / "manifest.json").write_text(json.dumps({"entries": []}))
    assert main(["table", "--corpus", str(tmp_path)]) == 0
    assert "no corpus entries" in capsys.readouterr().out


H3_ENTRY = '{"name": "h3", "file": "h3.lie", "expected": "mixed", "provenance": "analytic"}'


def _external_corpus(tmp_path, manifest: str) -> str:
    """A corpus directory holding ``manifest`` and the table h3.lie."""
    (tmp_path / "h3.lie").write_text("dim 3\n[e1,e2] = e3\n")
    (tmp_path / "manifest.json").write_text(manifest)
    return str(tmp_path)


@pytest.mark.parametrize(
    "manifest, message",
    [
        (f'{{"entries": [{H3_ENTRY}], "entries": []}}', "member name 'entries' is repeated"),
        (f'{{"entries": [{H3_ENTRY[:-1]}, "name": "x"}}]}}', "member name 'name' is repeated"),
        (
            f'{{"entries": [{H3_ENTRY[:-1]}, "jacobi_ok": {HUGE}}}]}}',
            "entries[0]: 'jacobi_ok' must be true or false",
        ),
        (
            '{"entries": [], "x": ' + "[" * 100_000 + "]" * 100_000 + "}",
            "invalid JSON: nesting deeper than 100 levels: line 1 column 121 (char 120)",
        ),
    ],
    ids=["repeated-entries", "repeated-name", "huge-typed-member", "nesting"],
)
def test_table_corpus_manifest_follows_the_json_rules(manifest, message, tmp_path, capsys):
    """A manifest is read by the same rules as a JSON table: it was once
    read silently with a repeated member, and ended in a traceback on a
    long integer or deep nesting."""
    assert main(["table", "--corpus", _external_corpus(tmp_path, manifest)]) == 2
    assert capsys.readouterr().err == f"error: {tmp_path / 'manifest.json'}: {message}\n"


def test_table_corpus_manifest_takes_a_long_integer_where_unchecked(tmp_path, capsys):
    manifest = f'{{"entries": [{H3_ENTRY}], "version": {HUGE}}}'
    assert main(["table", "--corpus", _external_corpus(tmp_path, manifest)]) == 0
    assert "1 of 1" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["validate", "classify", "index", "charpoly", "check"])
@pytest.mark.parametrize("name", ["h3.lie", "h3.json"])
def test_a_file_may_start_with_a_byte_order_mark(command, name, tmp_path, capsys):
    """Editors on Windows often start a UTF-8 file with EF BB BF; it was
    refused as an unexpected character in text and as invalid JSON."""
    plain = tmp_path / name
    plain.write_text("dim 3\n[e1,e2] = e3\n" if name.endswith(".lie") else json.dumps({
        "dim": 3, "brackets": [{"i": 1, "j": 2, "terms": {"3": "1"}}],
    }))
    (tmp_path / "marked").mkdir()
    marked = tmp_path / "marked" / name
    marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
    assert main([command, str(plain)]) == 0
    want = capsys.readouterr()
    assert main([command, str(marked)]) == 0
    assert capsys.readouterr() == want


def test_table_corpus_reads_files_that_start_with_a_byte_order_mark(tmp_path, capsys):
    _external_corpus(tmp_path, f'{{"entries": [{H3_ENTRY}]}}')
    for name in ("manifest.json", "h3.lie"):
        path = tmp_path / name
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    assert main(["table", "--corpus", str(tmp_path)]) == 0
    assert "1 of 1" in capsys.readouterr().out


@pytest.mark.parametrize(
    "bad, data, where",
    [
        ("manifest.json", b'{"entries": [\xff]}', "1:14"),
        ("h3.lie", b"dim 3\n[e1,e2] = e3 # \xff\n", "2:16"),
    ],
    ids=["manifest", "table"],
)
def test_table_corpus_refuses_an_undecodable_file(bad, data, where, tmp_path, capsys):
    _external_corpus(tmp_path, f'{{"entries": [{H3_ENTRY}]}}')
    (tmp_path / bad).write_bytes(data)
    assert main(["table", "--corpus", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {tmp_path / bad}:{where}: byte 0xff is not valid UTF-8\n"


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
def test_a_closed_stdout_ends_the_command_as_sigpipe_does(corpus_file):
    """Exit code 2 is for bad input; a reader that closes the pipe early
    ends the command as it ends other filters, with nothing on stderr."""
    env = dict(os.environ)
    src = Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "liepencil", "classify", corpus_file("L7a.lie")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == -signal.SIGPIPE
    assert err == b""


CORPUS_DIR = Path(corpus.__file__).parent


def _text_and_payload_runs():
    files = sorted(p.name for p in CORPUS_DIR.glob("*.lie"))
    runs = [[command, name] for command in ("validate", "classify", "index", "charpoly", "check")
            for name in files]
    runs += [
        ["table"],
        ["table", "--samples", "0"],
        ["classify", "L4ab.lie", "--param", "a=1/2", "--param", "b=3"],
        ["classify", "L4ab.lie", "--samples", "0"],
        ["classify", "L12a.lie", "--seed", "7"],
        ["check", "L4ab.lie", "--trials", "2", "--seed", "3"],
    ]
    return runs


@pytest.mark.parametrize("argv", _text_and_payload_runs(), ids=" ".join)
def test_text_report_is_rendered_from_the_payload(argv, capsys, monkeypatch):
    """The text form shows the payload the structured form prints, and no
    other reading, with the same exit code."""
    monkeypatch.chdir(CORPUS_DIR)
    _assert_text_is_rendered(argv, capsys)


def test_table_text_is_rendered_from_the_payload_with_a_failing_variant(tmp_path, capsys):
    _assert_text_is_rendered(["table", "--corpus", _bad_variant_corpus(tmp_path)], capsys)


def _assert_text_is_rendered(argv, capsys):
    code = main(argv)
    text = capsys.readouterr()
    assert main(argv + ["--output", "structured"]) == code
    structured = capsys.readouterr()
    assert text.err == structured.err
    if not structured.out:  # the command failed before it had a payload
        assert text.out == "" and text.err
        return
    assert text.out == "\n".join(RENDER[argv[0]](json.loads(structured.out))) + "\n"


def test_out_of_memory_is_one_line_naming_the_command(corpus_file, capsys, monkeypatch):
    def exhausted(alg):
        raise MemoryError

    monkeypatch.setattr(sys.modules["liepencil.cli"], "classify", exhausted)
    assert main(["classify", corpus_file("heisenberg3.lie")]) == 1
    err = capsys.readouterr().err
    assert err == "error: classify ran out of memory\n"
    assert "Traceback" not in err


def test_console_script_installed(corpus_file, capsys, monkeypatch, request):
    """The `liepencil` command is declared, and it runs as an installed shim runs it.

    The shim calls the declared entry point with `sys.argv` set, and
    `main`'s return code must reach the process exit code. Where the
    distribution is installed, its entry point must match the declaration
    and the shim must be on PATH.
    """
    if hasattr(signal, "SIGPIPE"):  # entry() resets it; the test process keeps its own
        previous = signal.getsignal(signal.SIGPIPE)
        request.addfinalizer(lambda: signal.signal(signal.SIGPIPE, previous))
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    declared = scripts.get("liepencil")
    assert declared == "liepencil.cli:entry"

    entry = metadata.EntryPoint(name="liepencil", value=declared, group="console_scripts").load()
    monkeypatch.setattr(sys, "argv", ["liepencil", "classify", corpus_file("heisenberg3.lie")])
    with pytest.raises(SystemExit) as exc:
        entry()
    assert exc.value.code == 0
    assert capsys.readouterr().out.splitlines()[-1] == "G is of mixed type."
    monkeypatch.setattr(sys, "argv", ["liepencil", "classify", "/no/such/file.lie"])
    with pytest.raises(SystemExit) as exc:
        entry()
    assert exc.value.code == 2

    try:
        dist = metadata.distribution("liepencil")
    except metadata.PackageNotFoundError:
        return
    installed = dist.entry_points.select(group="console_scripts", name="liepencil")
    assert [ep.value for ep in installed] == [declared]
    assert shutil.which("liepencil") is not None

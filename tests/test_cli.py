import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import pytest

from fusedhecke import (
    baxter_coefficients,
    element_from_obj,
    format_rational,
    fused,
    fused_R_matrix,
    hecke,
    reference_data,
    sigma_matrix,
)
from fusedhecke.cli import main
from fusedhecke.fused import VerifyResult
from oracles import mat_equal, matrix_from_obj


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_qnum(capsys):
    code, out, _ = run(capsys, "qnum", "--fn", "int", "--L", "3", "--q", "2")
    assert code == 0 and out.strip() == "21/4"
    code, out, _ = run(capsys, "qnum", "--fn", "binomial", "--L", "4", "--p", "2",
                       "--q", "1")
    assert code == 0 and out.strip() == "6"
    code, out, _ = run(capsys, "qnum", "--fn", "pochhammer", "--a", "1/2",
                       "--q", "1/3", "--p", "2")
    assert code == 0 and out.strip() == "5/12"
    code, out, _ = run(capsys, "qnum", "--fn", "brace", "--L", "3", "--q", "2")
    assert code == 0 and out == "21\n"


def test_output_to_a_text_only_stdout(monkeypatch):
    # a stdout with no .buffer, such as io.StringIO, is written as text
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["qnum", "--fn", "int", "--L", "3", "--q", "2"]) == 0
    assert out.getvalue() == "21/4\n"


@pytest.mark.parametrize("argv, message", [
    (("--fn", "binomial", "--L", "4"), "binomial needs --p"),
    (("--fn", "pochhammer", "--p", "2"), "pochhammer needs --a and --p"),
], ids=["binomial", "pochhammer"])
def test_qnum_missing_argument_exits_2(capsys, argv, message):
    code, out, err = run(capsys, "qnum", *argv, "--q", "2")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_compute_r_algebra_element_as_csv_exits_2(capsys):
    code, out, err = run(capsys, "compute-r", "--k", "2", "--format", "csv")
    assert (code, out, err) == (2, "", "error: algebra elements serialize as json only\n")


def test_compute_r_matrix_json_roundtrip(capsys):
    code, out, _ = run(capsys, "compute-r", "--k", "1", "--N", "2",
                       "--q", "2", "--u", "3/5")
    assert code == 0
    obj = json.loads(out)
    assert obj["dim"] == 4
    assert mat_equal(matrix_from_obj(obj), fused_R_matrix(1, 2, F(3, 5), F(2)))


def test_compute_r_pole_exits_2(capsys):
    code, _, err = run(capsys, "compute-r", "--k", "1", "--N", "2",
                       "--q", "2", "--u", "1")
    assert code == 2
    assert "pole" in err or "error" in err


def test_compute_r_bad_rational_exits_2(capsys):
    code, _, err = run(capsys, "compute-r", "--k", "1", "--N", "2",
                       "--q", "2", "--u", "0.5")
    assert code == 2 and "rational" in err


def test_compute_r_algebra_element(capsys):
    code, out, _ = run(capsys, "compute-r", "--k", "2", "--q", "2", "--u", "3/7")
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "fused" and obj["k"] == 2
    x = element_from_obj(obj)
    assert x.m == 4


def test_compute_r_csv(capsys):
    code, out, _ = run(capsys, "compute-r", "--k", "1", "--N", "2",
                       "--q", "2", "--u", "3/5", "--format", "csv")
    assert code == 0
    assert len(out.strip().splitlines()) == 4


def test_compute_sigma(capsys):
    code, out, _ = run(capsys, "compute-sigma", "--k", "2", "--p", "1",
                       "--N", "2", "--q", "2")
    assert code == 0
    assert json.loads(out)["dim"] == 9
    code, out, _ = run(capsys, "compute-sigma", "--k", "2", "--p", "1", "--q", "2")
    assert code == 0
    assert json.loads(out)["kind"] == "fused"


def test_verify_ybe_ok(capsys):
    code, out, _ = run(capsys, "verify-ybe", "--k", "2", "--n", "3",
                       "--q", "2", "--u", "3/7", "--v", "5/9")
    assert code == 0 and "verified" in out


def test_verify_ybe_classical(capsys):
    code, out, _ = run(capsys, "verify-ybe", "--k", "2", "--n", "3", "--classical",
                       "--mu", "7/2", "--nu", "9/4")
    assert code == 0 and "verified" in out


def test_verify_ybe_pole_exits_2(capsys):
    code, _, err = run(capsys, "verify-ybe", "--k", "1", "--n", "3",
                       "--q", "2", "--u", "1", "--v", "5/9")
    assert code == 2


def test_verify_ybe_failure_exits_1(capsys, monkeypatch):
    import fusedhecke.cli as cli

    fake = VerifyResult(False, ((1, 2), F(1), F(0)))
    monkeypatch.setattr(cli.fused, "verify_braided_ybe",
                        lambda *a, **k: fake)
    code, _, err = run(capsys, "verify-ybe", "--k", "1", "--n", "3",
                       "--q", "2", "--u", "3/5", "--v", "7/11")
    assert code == 1
    assert "first difference" in err


def test_verify_algebra(capsys):
    code, out, _ = run(capsys, "verify-algebra", "--k", "2", "--n", "2",
                       "--q", "2", "--trials", "5")
    assert code == 0
    assert "minimal polynomial: ok" in out
    assert "FAILED" not in out


def test_verify_algebra_reports_a_failing_check(capsys, monkeypatch):
    import fusedhecke.cli as cli

    monkeypatch.setattr(cli.fused, "minimal_polynomial_check", lambda *a, **k: False)
    code, out, _ = run(capsys, "verify-algebra", "--k", "1", "--n", "2", "--trials", "1")
    assert code == 1
    lines = out.splitlines()
    assert "minimal polynomial: FAILED" in lines
    assert [line for line in lines if line.endswith("FAILED")] == ["minimal polynomial: FAILED"]


def _cli_view(monkeypatch, name: str, **attrs):
    """Give the CLI its own view of the module fusedhecke.<name> with attrs
    replaced, so that the library's internal calls stay unchanged."""
    import fusedhecke.cli as cli

    module = getattr(cli, name)
    monkeypatch.setattr(cli, name, SimpleNamespace(**{**vars(module), **attrs}))


class _Trial(hecke.HeckeElement):
    """The elements of the associativity trials, told apart by their type."""

    __slots__ = ()


def _break_unit(monkeypatch):
    _cli_view(monkeypatch, "hecke", unit=lambda m, q: hecke.unit(m, q).scale(2))


def _break_symmetriser(monkeypatch):
    _cli_view(monkeypatch, "hecke",
              symmetriser_sum=lambda i, j, m, q: hecke.symmetriser_sum(i, j, m, q).scale(2))


def _break_idempotence(monkeypatch):
    # 2 - P is not idempotent, but fixes every partial braiding on both sides
    _cli_view(monkeypatch, "fused", projector_P=lambda ctx: (
        hecke.unit(ctx.strands, ctx.q).scale(2) - fused.projector_P(ctx)))


def _break_sandwich(monkeypatch):
    _cli_view(monkeypatch, "fused", partial_braiding=lambda ctx, i, p: (
        fused.partial_braiding(ctx, i, p) + hecke.unit(ctx.strands, ctx.q)))


def _break_symmetriser_product(monkeypatch):
    # the library's own product form, not the CLI's view of it
    product = hecke.symmetriser_product
    monkeypatch.setattr(hecke, "symmetriser_product", lambda i, j, m, q: (
        product(i, j, m, q).scale(2)))


def _break_commutation(monkeypatch):
    grid = fused._grid

    def raised(*args):
        constants = grid(*args)
        return (constants[0] + 1,) + constants[1:]

    monkeypatch.setattr(fused, "_grid", raised)


def _break_associativity(monkeypatch):
    # a product that doubles when its left factor is a trial element:
    # (a b) c comes out 2abc and a (b c) 4abc
    _cli_view(monkeypatch, "hecke", HeckeElement=_Trial, multiply=lambda a, b: (
        hecke.multiply(a, b).scale(2 if type(a) is _Trial else 1)))


@pytest.mark.parametrize("perturb, line", [
    (_break_unit, "defining relations in H_4"),
    (_break_symmetriser, "symmetriser identities in H_4"),
    (_break_symmetriser_product, "symmetriser identities in H_4"),
    (_break_idempotence, "projector idempotent"),
    (_break_sandwich, "partial braidings sandwiched"),
    (_break_commutation, "projector commutation with R(u)"),
    (_break_associativity, "random associativity (3 trials, seed 20240)"),
], ids=["defining relations", "symmetriser identities", "symmetriser product",
        "projector idempotent", "partial braidings sandwiched", "projector commutation",
        "random associativity"])
def test_verify_algebra_line_fails_alone_on_a_perturbed_input(capsys, monkeypatch, perturb, line):
    code, out, _ = run(capsys, "verify-algebra", "--k", "2", "--n", "2", "--trials", "3")
    assert code == 0 and f"{line}: ok" in out.splitlines()
    perturb(monkeypatch)
    code, out, _ = run(capsys, "verify-algebra", "--k", "2", "--n", "2", "--trials", "3")
    assert code == 1
    assert [row for row in out.splitlines() if row.endswith("FAILED")] == [f"{line}: FAILED"]


def test_reproduce_all_examples(capsys):
    for example in ("k1-hecke", "k2-coefficients", "k2N2-matrices", "h22-product"):
        code, out, _ = run(capsys, "reproduce-paper", "--example", example,
                           "--q", "2", "--u", "3/7")
        assert code == 0, example
    # alias accepted
    code, out, _ = run(capsys, "reproduce-paper", "--example", "k2N2", "--q", "3/2")
    assert code == 0
    assert "all 81 entries match" in out


@pytest.mark.parametrize("example, k, reference", [
    ("k1-hecke", 1, "reference_coefficients_k1"),
    ("k2-coefficients", 2, "reference_coefficients_k2"),
])
def test_reproduce_coefficients_reports_each_match(capsys, monkeypatch, example, k, reference):
    argv = ("reproduce-paper", "--example", example, "--q", "2", "--u", "3/7")
    got = [format_rational(a) for a in baxter_coefficients(k, k, F(3, 7), F(2)).values]
    lines = [f"a_{p}: computed {a} reference {a} -> match" for p, a in enumerate(got)]
    assert run(capsys, *argv) == (0, "\n".join(lines) + "\n", "")
    # a_0 of the reference raised by one: its line alone reads MISMATCH
    want = getattr(reference_data, reference)
    monkeypatch.setattr(reference_data, reference, lambda u, q: (
        want(u, q)[0] + 1, *want(u, q)[1:]))
    raised = format_rational(want(F(3, 7), F(2))[0] + 1)
    lines[0] = f"a_0: computed {got[0]} reference {raised} -> MISMATCH"
    assert run(capsys, *argv) == (1, "\n".join(lines) + "\n", "")


def test_reproduce_k2N2_prints_both_matrices_as_json(capsys):
    code, out, err = run(capsys, "reproduce-paper", "--example", "k2N2-matrices", "--q", "3/2")
    assert code == 0 and err == ""
    objects = [json.loads(line) for line in out.splitlines()[2:]]
    assert objects == [
        {"k": 2, "N": 2, "q": "3/2", "dim": 9,
         "matrix": [[format_rational(v) for v in row] for row in sigma_matrix(2, p, 2, F(3, 2))]}
        for p in (1, 2)
    ]


def test_reproduce_h22_product_with_a_perturbed_reference_exits_1(capsys, monkeypatch):
    want = reference_data.reference_h22_product_coefficients
    monkeypatch.setattr(reference_data, "reference_h22_product_coefficients", lambda q: (
        want(q)[0] + 1, *want(q)[1:]))
    assert run(capsys, "reproduce-paper", "--example", "h22-product", "--q", "2") == (
        1, "two-ellipse product matches no crossing interpretation\n", "")


def test_output_file(tmp_path, capsys):
    target = tmp_path / "r.json"
    code, out, _ = run(capsys, "compute-r", "--k", "1", "--N", "2", "--q", "2",
                       "--u", "3/5", "--output", str(target))
    assert code == 0
    assert json.loads(target.read_text())["dim"] == 4


@pytest.mark.parametrize("argv", [
    ("--fn", "int"),
    ("--fn", "factorial"),
    ("--fn", "binomial", "--p", "1"),
    ("--fn", "brace"),
    ("--fn", "factorial", "--L", "-3"),
    ("--fn", "int", "--L", "-1"),
])
def test_qnum_missing_or_negative_L_exits_2(capsys, argv):
    code, out, err = run(capsys, "qnum", *argv, "--q", "2")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--L" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("fn, value", [("int", "0"), ("factorial", "1"), ("brace", "0")])
def test_qnum_at_L_zero(capsys, fn, value):
    assert run(capsys, "qnum", "--fn", fn, "--L", "0", "--q", "2") == (0, f"{value}\n", "")


def test_qnum_negative_pochhammer_p_exits_2(capsys):
    code, out, err = run(capsys, "qnum", "--fn", "pochhammer", "--a", "1/2",
                         "--p", "-2", "--q", "2")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "p >= 0" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv, digits", [
    (("qnum", "--fn", "int", "--L", "8000", "--q", "2"), "about 4817 digits"),
    (("qnum", "--fn", "factorial", "--L", "200", "--q", "2"), "about 12006 digits"),
    (("compute-r", "--k", "1", "--N", "2", "--q", "7" * 5000), "with 5000 digits"),
], ids=["qnum-int", "qnum-factorial", "compute-r-q"])
def test_integer_over_the_conversion_limit_exits_2(capsys, argv, digits):
    # Python refuses to convert integers of more than 4300 digits to or from
    # a string; the error names the digit count instead of a traceback
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: a rational") and digits in err
    assert len(err.splitlines()) == 1


def test_verify_algebra_negative_trials_exits_2(capsys):
    code, out, err = run(capsys, "verify-algebra", "--trials", "-3")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--trials" in err
    assert len(err.splitlines()) == 1


def test_verify_algebra_with_zero_trials(capsys):
    code, out, err = run(capsys, "verify-algebra", "--k", "1", "--n", "2", "--trials", "0")
    assert code == 0 and err == "" and "FAILED" not in out
    assert out.splitlines()[-1] == "random associativity (0 trials, seed 20240): ok"


@pytest.mark.parametrize("argv", [("--k", "2", "--n", "1"), ("--k", "0", "--n", "2")],
                         ids=["n=1", "k=0"])
def test_verify_algebra_bad_k_or_n_exits_2(capsys, argv):
    # rejected before any check runs, so nothing reaches stdout
    code, out, err = run(capsys, "verify-algebra", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--k >= 1 and --n >= 2" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("n", ["1", "0"])
def test_compute_sigma_element_bad_n_exits_2(capsys, n):
    # the element lives on n ellipses; the default --i = 1 needs two of them
    code, out, err = run(capsys, "compute-sigma", "--k", "2", "--p", "1", "--n", n)
    assert code == 2 and out == ""
    assert err == f"error: compute-sigma needs --n >= 2, got n={n}\n"


def test_reproduce_k2N2_reports_a_perturbed_reference_entry(capsys, monkeypatch):
    code, out, _ = run(capsys, "reproduce-paper", "--example", "k2N2", "--q", "2")
    assert code == 0 and out.count("all 81 entries match") == 2
    rows = reference_data._reference_sigma_k2N2_rows

    def perturbed(q):
        partial, full = rows(q)
        full[2][4] += 1
        return partial, full

    monkeypatch.setattr(reference_data, "_reference_sigma_k2N2_rows", perturbed)
    code, out, _ = run(capsys, "reproduce-paper", "--example", "k2N2", "--q", "2")
    computed = sigma_matrix(2, 2, 2, F(2))[2, 4]
    assert code == 1
    assert out.count("all 81 entries match") == 1
    assert f"full crossing matrix: first mismatch {(2, 4, computed, computed + 1)}\n" in out


def _cli_process(*argv, unbuffered=False, **kwargs):
    """`python -m fusedhecke.cli ARGV` in a fresh interpreter, its stderr a
    pipe; use the process in a with block, which closes its pipes."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "fusedhecke.cli", *argv],
                            stderr=subprocess.PIPE, env=env, **kwargs)


CLOSED_STDOUT = "error: standard output closed before all of it was written\n"


def test_stdout_closed_after_the_first_line_exits_2():
    # 113 kB of JSON: more than the pipe holds, so the writer is still
    # writing when the reader closes its end
    with _cli_process("compute-r", "--k", "2", "--N", "4", stdout=subprocess.PIPE) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 2
    assert first == b"{\n"
    assert err == CLOSED_STDOUT


def test_unbuffered_stdout_closed_after_the_first_line_exits_2():
    # unbuffered, the JSON goes to one raw write, which returns a short count
    # when the reader closes mid-write; the rest must still be written
    with _cli_process("compute-r", "--k", "2", "--N", "4", unbuffered=True,
                      stdout=subprocess.PIPE) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 2
    assert first == b"{\n"
    assert err == CLOSED_STDOUT


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_stdout_closed_before_verify_algebra_prints_exits_2(unbuffered):
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _cli_process("verify-algebra", "--k", "2", "--n", "3", "--q", "2", "--trials", "2",
                            unbuffered=unbuffered, stdout=write)
    finally:
        os.close(write)
    with proc:
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 2
    assert err == CLOSED_STDOUT


@pytest.mark.parametrize("value", ["abc", "0", "-2"])
def test_bad_max_strands_exits_2(capsys, monkeypatch, value):
    monkeypatch.setenv("FUSED_HECKE_MAX_STRANDS", value)
    code, _, err = run(capsys, "verify-ybe", "--k", "1")
    assert code == 2
    assert err.startswith("error:") and "FUSED_HECKE_MAX_STRANDS" in err
    assert repr(value) in err


@pytest.mark.parametrize("argv", [("--k", "-1", "--N", "2"), ("--k", "2", "--N", "0")],
                         ids=["k=-1", "N=0"])
def test_compute_r_nonpositive_k_or_N_exits_2(capsys, argv):
    code, out, err = run(capsys, "compute-r", *argv, "--q", "2", "--u", "3/5")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "must be a positive integer" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("q", ["1", "-1"])
def test_verify_algebra_at_q_squared_one_marks_minimality_degenerate(capsys, q):
    # the roots for l and l + 2 coincide, so the check runs over the
    # distinct eigenvalues -1 and 1, minimality included, under the plain label
    code, out, _ = run(capsys, "verify-algebra", "--k", "2", "--n", "2",
                       "--q", q, "--u", "3/5", "--trials", "2")
    assert code == 0 and "FAILED" not in out
    assert "minimal polynomial: ok" in out.splitlines()
    assert "degenerate" not in out


@pytest.mark.parametrize("argv", [
    ("compute-r", "--k", "2", "--N", "2"),
    ("reproduce-paper", "--example", "k2N2"),
    ("reproduce-paper", "--example", "k2N2-matrices"),
    ("reproduce-paper", "--example", "k2-coefficients"),
    ("reproduce-paper", "--example", "k1-hecke"),
], ids=["compute-r", "k2N2", "k2N2-matrices", "k2-coefficients", "k1-hecke"])
def test_q_zero_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv, "--q", "0")
    assert code == 2 and out == ""
    assert err == "error: q must be nonzero\n"


def test_verify_ybe_over_strand_bound_exits_2(capsys, monkeypatch):
    # the relation lives in H_{3k}, above the default bound of 9 strands; the
    # error names it, not the H_{2k} of the first chain
    monkeypatch.delenv("FUSED_HECKE_MAX_STRANDS", raising=False)
    for k in (4, 5):
        for form in ((), ("--classical",)):
            code, out, err = run(capsys, "verify-ybe", "--k", str(k), "--n", "3", *form)
            assert code == 2 and out == ""
            assert err.startswith(f"error: {3 * k} strands exceeds the bound 9")
            assert len(err.splitlines()) == 1


def test_compute_r_element_checks_the_strand_bound_before_any_coefficient(capsys, monkeypatch):
    monkeypatch.delenv("FUSED_HECKE_MAX_STRANDS", raising=False)

    def no_coefficients(*args):
        raise AssertionError("a coefficient was computed")

    monkeypatch.setattr(hecke._Baxterisation, "numerators", no_coefficients)
    code, out, err = run(capsys, "compute-r", "--k", "100")
    assert code == 2 and out == ""
    assert err.startswith("error: 200 strands exceeds the bound 9")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ("compute-r", "--k", "2", "--N", "2", "--output", "{missing}/x.json"),
    ("compute-sigma", "--k", "2", "--p", "1", "--output", "{dir}"),
], ids=["missing-directory", "is-a-directory"])
def test_unwritable_output_exits_2(capsys, tmp_path, argv):
    argv = [a.format(missing=tmp_path / "missing", dir=tmp_path) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write --output")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ("verify-algebra", "--k", "2", "--n", "3", "--trials", "2", "--q", "-5/7"),
    ("verify-ybe", "--k", "1", "--n", "3", "--q", "-5/7", "--u", "-2/3", "--v", "2/7"),
    ("verify-ybe", "--k", "1", "--classical", "--mu", "-5/7", "--nu", "-2/3"),
    ("compute-r", "--k", "1", "--N", "2", "--q", "3", "--u", "-5/7"),
    ("qnum", "--fn", "pochhammer", "--a", "-5/7", "--p", "2", "--q", "-2/3"),
], ids=["q", "u", "mu-nu", "compute-r-u", "a"])
def test_negative_rational_after_an_option(capsys, argv):
    # argparse alone reads a separate -5/7 as an option string
    joined = []
    for a in argv:
        if a.startswith("-") and "/" in a:
            joined[-1] += "=" + a
        else:
            joined.append(a)
    code, out, err = run(capsys, *argv)
    assert code == 0 and out and err == ""
    assert run(capsys, *joined) == (code, out, err)

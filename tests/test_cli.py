import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from fusedhecke import element_from_obj, fused_R_matrix, reference_data, sigma_matrix
from fusedhecke.cli import main
from fusedhecke.fused import VerifyResult
from fusedhecke.tensorrep import matrix_from_obj
from oracles import mat_equal


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


def test_reproduce_all_examples(capsys):
    for example in ("k1-hecke", "k2-coefficients", "k2N2-matrices", "h22-product"):
        code, out, _ = run(capsys, "reproduce-paper", "--example", example,
                           "--q", "2", "--u", "3/7")
        assert code == 0, example
    # alias accepted
    code, out, _ = run(capsys, "reproduce-paper", "--example", "k2N2", "--q", "3/2")
    assert code == 0
    assert "all 81 entries match" in out


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


def test_qnum_negative_pochhammer_p_exits_2(capsys):
    code, out, err = run(capsys, "qnum", "--fn", "pochhammer", "--a", "1/2",
                         "--p", "-2", "--q", "2")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "p >= 0" in err
    assert len(err.splitlines()) == 1


def test_verify_algebra_negative_trials_exits_2(capsys):
    code, out, err = run(capsys, "verify-algebra", "--trials", "-3")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--trials" in err
    assert len(err.splitlines()) == 1


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
    # the degree-(k+1) product vanishes, but the roots for l and l + 2
    # coincide, so no drop-one subproduct can be nonzero for k >= 2
    code, out, _ = run(capsys, "verify-algebra", "--k", "2", "--n", "2",
                       "--q", q, "--u", "3/5", "--trials", "2")
    assert code == 0 and "FAILED" not in out
    assert "minimal polynomial (minimality degenerate at q^2 = 1): ok" in out


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

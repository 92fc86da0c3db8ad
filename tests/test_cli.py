import json
from fractions import Fraction as F

import pytest

from fusedhecke import element_from_obj, fused_R_matrix, linalg
from fusedhecke.cli import main
from fusedhecke.fused import VerifyResult
from fusedhecke.tensorrep import matrix_from_obj


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
    assert linalg.mat_equal(matrix_from_obj(obj), fused_R_matrix(1, 2, F(3, 5), F(2)))


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

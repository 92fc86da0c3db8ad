"""The benchmark's three workloads: seeded request streams, the set-up that
fills the library's caches, and the check of every request's output.

Every workload is a closed loop with one client: a request goes out when the
previous one has returned.  A run is a fixed list of requests built from the
seed: the workload's ``once`` requests, then whole cycles of its request
classes.  Parameters rotate through the q pool by class and cycle, so every
cycle mixes all q values.
"""

from __future__ import annotations

import functools
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction as F
from math import comb
from pathlib import Path
from typing import Callable

import numpy as np

import fusedhecke as fh
from fusedhecke import reference_data

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

Q_GENERIC = (F(2), F(3, 2), F(5, 3), F(7, 5))
Q_MATRIX = (F(2), F(3, 2))
CHILD_TIMEOUT_S = 120


@dataclass
class Request:
    cls: str
    run: Callable[[], object] | None
    check: Callable[[object], str | None]  # None when the output is right
    argv: list[str] | None = None  # the CLI arguments of a cli_cold request


# -- seeded parameters --------------------------------------------------------


def _rational(rng, num: tuple[int, int], den: tuple[int, int]) -> F:
    """a/b in lowest terms with a and b drawn from the closed ranges."""
    while True:
        a, b = rng.randint(*num), rng.randint(*den)
        if math.gcd(a, b) == 1:
            return F(a, b)


# The cost of exact arithmetic grows with the size of the numbers, so every
# seed draws its parameters from numerators and denominators of one size:
# seeds then differ in their inputs, not in how much work a run holds.


def spectral_pair(rng, q: F) -> tuple[F, F]:
    """Non-integer u, v with u, v and uv away from every q^(2j), |j| <= 4,
    which covers the poles of all coefficients and grids up to H_8."""
    poles = {q ** (2 * j) for j in range(-4, 5)}
    while True:
        u, v = _rational(rng, (6, 13), (6, 13)), _rational(rng, (6, 13), (6, 13))
        if not {u, v, u * v} & poles:
            return u, v


def additive_pair(rng) -> tuple[F, F]:
    """Non-integer mu, nu with mu + nu not an integer either, so none of
    them meets the poles {-(k-1), ..., k-1} of the q = 1 factors."""
    while True:
        mu, nu = _rational(rng, (6, 15), (3, 5)), _rational(rng, (6, 15), (3, 5))
        if (mu + nu).denominator != 1:
            return mu, nu


# q = a/b in lowest terms with 5/4 <= q <= 3 and 3 <= b <= 5: 15 values
FRESH_Q = tuple(sorted({F(a, b) for b in (3, 4, 5) for a in range(b + 1, 3 * b)
                        if math.gcd(a, b) == 1 and F(a, b) >= F(5, 4)}))


def fresh_qs(rng, count: int) -> list[F]:
    """``count`` values of q, each drawn afresh from FRESH_Q."""
    return [rng.choice(FRESH_Q) for _ in range(count)]


# -- checks ---------------------------------------------------------------------


def _holds(out) -> str | None:
    return None if out else f"verdict is false: {out!r}"


def _no_diff(out) -> str | None:
    return None if out is None else f"forms differ: {out!r}"


def _diff_at(expected) -> Callable[[object], str | None]:
    """The Diff must sit in the support of the perturbation ``expected``
    (right minus left) and report exactly its coefficient there."""

    def check(diff) -> str | None:
        if diff is None:
            return "perturbed identity reported no Diff"
        if diff.perm not in expected.terms:
            return f"Diff at {diff.perm} outside the perturbed term's support"
        if diff.right - diff.left != expected.terms[diff.perm]:
            return f"Diff {diff!r} does not match the perturbation"
        return None

    return check


def _expand(coeffs, term) -> fh.HeckeElement:
    """sum_p coeffs[p] * term(p)."""
    out = None
    for p, a in enumerate(coeffs):
        t = term(p).scale(a)
        out = t if out is None else out + t
    return out


def _spread(*groups) -> tuple:
    """One cycle holding every class of every group, each group's members
    spaced evenly over the cycle: the machine's speed changes within
    seconds, and samples of one class taken back to back would all catch
    the same spell of it."""
    keyed = [((j + 0.5) / len(g), i, make) for i, g in enumerate(groups)
             for j, make in enumerate(g)]
    return tuple(make for *_, make in sorted(keyed, key=lambda t: t[:2]))


# -- algebra: q-generic classes -------------------------------------------------------


def _ybe(k, n, i, method):
    def make(rng, q, _turn):
        u, v = spectral_pair(rng, q)
        ctx = fh.FusedContext(k, n, q)
        return Request(f"ybe_{method}_{k}{n}_i{i}",
                       lambda: fh.verify_braided_ybe(ctx, u, v, i, method), _holds)
    return make


def _mixed_ybe(k, l, m):
    def make(rng, q, _turn):
        u, v = spectral_pair(rng, q)
        return Request(f"mixed_ybe_{k}{l}{m}",
                       lambda: fh.verify_mixed_ybe(k, l, m, u, v, q), _holds)
    return make


def _comm_pr(rng, q, _turn):
    u, _ = spectral_pair(rng, q)
    return Request("comm_pr_33", lambda: fh.verify_commPR(3, 3, u, q), _holds)


def _min_poly(rng, q, _turn):
    ctx = fh.FusedContext(3, 2, q)
    return Request("min_poly_3", lambda: fh.minimal_polynomial_check(ctx), _holds)


def _fac_exp(k, ell):
    def make(rng, q, _turn):
        u, _ = spectral_pair(rng, q)

        def run():
            coeffs = fh.baxter_coefficients(k, ell, u, q).values
            exp = _expand(coeffs, lambda p: fh.partial_braiding_mixed(k, ell, p, q))
            return fh.element_diff(fh.baxter_R_factorized(k, ell, u, q), exp)

        return Request(f"fac_exp_{k}{ell}", run, _no_diff)
    return make


def _neg_coeff(rng, q, _turn):
    """Factorised against expanded (3, 3) with a_p raised by one."""
    u, _ = spectral_pair(rng, q)
    p_bad = rng.randrange(4)

    def run():
        coeffs = list(fh.baxter_coefficients(3, 3, u, q).values)
        coeffs[p_bad] += 1
        exp = _expand(coeffs, lambda p: fh.partial_braiding_mixed(3, 3, p, q))
        return fh.element_diff(fh.baxter_R_factorized(3, 3, u, q), exp)

    def check(diff):
        return _diff_at(fh.partial_braiding_mixed(3, 3, p_bad, q))(diff)

    return Request("neg_coeff_33", run, check)


def _neg_printed(rng, q, _turn):
    """The printed YBE variant with R_2(v) as the last right-hand factor,
    which is not an identity, at k = 2 in H_6, unless u = v."""
    u, v = spectral_pair(rng, q)
    while u == v:
        u, v = spectral_pair(rng, q)
    ctx = fh.FusedContext(2, 3, q)

    def r(i, w):
        return fh.baxter_R_expansion(ctx, i, w)

    def run():
        lhs = fh.multiply(fh.multiply(r(1, u), r(2, u * v)), r(1, v))
        bad = fh.multiply(fh.multiply(r(2, v), r(1, u * v)), r(2, v))
        return fh.element_diff(lhs, bad)

    def check(diff):
        # lhs equals the correct right-hand side, so bad - lhs is the prefix
        # times the perturbed last factor R_2(v) - R_2(u)
        prefix = fh.multiply(r(2, v), r(1, u * v))
        return _diff_at(fh.multiply(prefix, r(2, v) - r(2, u)))(diff)

    return Request("neg_printed_23", run, check)


GENERIC_ONCE = (_mixed_ybe(2, 2, 3), _comm_pr)
GENERIC_CLASSES = (
    _ybe(2, 3, 1, "direct"), _ybe(2, 4, 1, "fast"), _ybe(2, 4, 2, "fast"),
    _mixed_ybe(1, 2, 3), _min_poly, _fac_exp(2, 4), _neg_printed,
)
GENERIC_MEDIAN = 3 * (_fac_exp(3, 3), _neg_coeff)


def _warm_generic():
    for q in Q_GENERIC:
        for k, n in ((2, 3), (2, 4), (3, 2)):
            ctx = fh.FusedContext(k, n, q)
            fh.projector_P(ctx)
            for i in range(1, n):
                for p in range(k + 1):
                    fh.partial_braiding(ctx, i, p)
        for k, ell in ((2, 2), (3, 3), (2, 4)):
            for p in range(k + 1):
                fh.partial_braiding_mixed(k, ell, p, q)
        _warm_symmetrisers(q)


def _warm_symmetrisers(q):
    for m in range(2, 9):
        for i in range(1, m):
            for j in range(i + 1, min(i + 4, m) + 1):
                fh.symmetriser_sum(i, j, m, q)


# -- algebra: q = 1 classes ------------------------------------------------------------


ONE = F(1)


def _cl_ybe(n, i):
    def make(rng, _q, _turn):
        mu, nu = additive_pair(rng)
        return Request(f"cl_ybe_2{n}_i{i}",
                       lambda: fh.verify_classical_ybe(2, n, mu, nu, i), _holds)
    return make


def _cl_fac_exp(k):
    def make(rng, _q, _turn):
        mu, _ = additive_pair(rng)

        def run():
            return fh.element_diff(fh.classical_baxter_R_factorized(k, mu),
                                   fh.classical_baxter_R(k, 2, 1, mu))

        return Request(f"cl_fac_exp_{k}", run, _no_diff)
    return make


def _cl_neg_coeff(rng, _q, _turn):
    """Classical factorised against expanded at k = 3 with c_p raised by one."""
    mu, _ = additive_pair(rng)
    p_bad = rng.randrange(4)
    ctx = fh.FusedContext(3, 2, ONE)

    def run():
        coeffs = list(fh.classical_coefficients(3, mu))
        coeffs[p_bad] += 1
        exp = _expand(coeffs, lambda p: fh.partial_braiding(ctx, 1, p))
        return fh.element_diff(fh.classical_baxter_R_factorized(3, mu), exp)

    def check(diff):
        return _diff_at(fh.partial_braiding(ctx, 1, p_bad))(diff)

    return Request("cl_neg_coeff_3", run, check)


CLASSICAL_ONCE = (_cl_fac_exp(4),)
CLASSICAL_CLASSES = (_cl_ybe(3, 1), _cl_ybe(4, 1), _cl_ybe(4, 2))
CLASSICAL_CHEAP = 6 * (_cl_fac_exp(3), _cl_neg_coeff)


def _warm_classical():
    for k, n in ((2, 3), (2, 4), (3, 2), (4, 2)):
        ctx = fh.FusedContext(k, n, ONE)
        fh.projector_P(ctx)
        for i in range(1, n):
            for p in range(k + 1):
                fh.partial_braiding(ctx, i, p)
    _warm_symmetrisers(ONE)


# -- matrix_warm --------------------------------------------------------------------


MATRIX_YBE = ((1, 3), (2, 2), (1, 4), (3, 2))
MATRIX_R = ((2, 4), (3, 3))


def _weights(k, N, q):
    """The letter multiset of each basis vector w_a (x) w_b of W (x) W."""
    idx = fh.w_basis(k, N, q).indices
    return [tuple(sorted(a + b)) for a in idx for b in idx]


def _mat_ybe(k, N):
    def make(rng, q, _turn):
        u, v = spectral_pair(rng, q)
        return Request(f"mat_ybe_{k}{N}", lambda: fh.verify_matrix_ybe(k, N, u, v, q), _holds)
    return make


@functools.cache
def _sigma_support(k, N, q):
    """Where some sigma_matrix(k, p, N, q) is nonzero: the mask, the
    entries with their sigma_p values, and whether any entry joins two
    weight spaces."""
    sigmas = [fh.sigma_matrix(k, p, N, q) for p in range(k + 1)]
    mask = np.any([s != 0 for s in sigmas], axis=0)
    rows, cols = mask.nonzero()
    wt = _weights(k, N, q)
    entries = [(r, c, [s[r, c] for s in sigmas]) for r, c in zip(rows, cols)]
    return mask, entries, any(wt[r] != wt[c] for r, c in zip(rows, cols))


def _fused_R(k, N):
    def make(rng, q, _turn):
        u, _ = spectral_pair(rng, q)

        def check(mat):
            """R = sum_p a_p(u) sigma_p entry by entry, taking the zeros of
            every sigma_p at once."""
            d2 = comb(k + N - 1, k) ** 2
            if mat.shape != (d2, d2):
                return f"R has shape {mat.shape}, expected {(d2, d2)}"
            mask, entries, mixes = _sigma_support(k, N, q)
            if (mat[~mask] != 0).any():
                return "R is nonzero where every sigma_p is zero"
            coeffs = fh.baxter_coefficients(k, k, u, q).values
            for r, c, sigma in entries:
                if mat[r, c] != sum(a * s for a, s in zip(coeffs, sigma)):
                    return f"R[{r}, {c}] differs from sum_p a_p(u) sigma_p"
            return "R mixes weight spaces" if mixes else None

        return Request(f"fused_R_{k}{N}", lambda: fh.fused_R_matrix(k, N, u, q), check)
    return make


# The 216 x 216 (2, 3) check costs as much as a whole cycle of the rest, so it
# runs once per run; the R-matrix builds sweep three fresh u per cycle each,
# which puts the median among them.  The dearest cycled check, (3, 2), goes
# twice a cycle, so that the tail (ten samples beyond it) falls among its
# samples rather than on the gap below them.
MATRIX_ONCE = (_mat_ybe(2, 3),)
MATRIX_CLASSES = _spread(tuple(_mat_ybe(k, N) for k, N in MATRIX_YBE + ((3, 2),)),
                         3 * tuple(_fused_R(k, N) for k, N in MATRIX_R))


def _warm_matrix():
    for q in Q_MATRIX:
        for k, N in MATRIX_YBE + ((2, 3),) + MATRIX_R:
            for p in range(k + 1):
                fh.sigma_matrix(k, p, N, q)


def check_matrix_reference() -> str | None:
    """sigma_matrix(2, p, 2, q) against the hand-entered k = 2, N = 2
    matrices at every q of the pool."""
    for q in Q_MATRIX:
        for p, want in zip((1, 2), reference_data.reference_sigma_k2N2(q)):
            if not (fh.sigma_matrix(2, p, 2, q) == want).all():
                return f"sigma_matrix(2, {p}, 2, {q}) differs from the reference"
    return None


# -- cli_cold -------------------------------------------------------------------------


def _parse_matrix(text: str, fmt: str):
    if fmt == "json":
        rows = json.loads(text)["matrix"]
    else:
        rows = [line.split(",") for line in text.splitlines() if line]
    return [[F(x) for x in row] for row in rows]


def _same_matrix(got, want, d2) -> str | None:
    if len(got) != d2 or any(len(row) != d2 for row in got):
        return f"output is not {d2}x{d2}"
    if any(g != w for grow, wrow in zip(got, want) for g, w in zip(grow, wrow)):
        return "output differs from the in-process result"
    return None


def _cli_check(inner):
    """Exit status 0, then the command-specific check of stdout."""

    def check(out):
        code, stdout, stderr = out
        if code != 0:
            return f"exit {code}: {stderr.strip()[-200:]}"
        try:
            return inner(stdout)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unparsable output: {exc!r}"

    return check


def _cli_compute_r_matrix(k, N):
    d2 = comb(k + N - 1, k) ** 2

    def make(rng, q, turn):
        u, _ = spectral_pair(rng, q)
        fmt = ("json", "csv")[turn % 2]

        def inner(stdout):
            return _same_matrix(_parse_matrix(stdout, fmt), fh.fused_R_matrix(k, N, u, q), d2)

        argv = ["compute-r", "--k", str(k), "--N", str(N), "--q", str(q), "--u", str(u),
                "--format", fmt]
        return Request(f"cli_compute_r_{k}{N}", None, _cli_check(inner), argv)
    return make


def _cli_compute_sigma_matrix(rng, q, turn):
    k, p, N = 2, rng.randint(1, 2), 3

    def inner(stdout):
        want = fh.sigma_matrix(k, p, N, q)
        return _same_matrix(_parse_matrix(stdout, "json"), want, comb(k + N - 1, k) ** 2)

    argv = ["compute-sigma", "--k", str(k), "--p", str(p), "--N", str(N), "--q", str(q)]
    return Request("cli_compute_sigma_matrix", None, _cli_check(inner), argv)


def _cli_element(cls, argv, want):
    def inner(stdout):
        got = fh.element_from_obj(json.loads(stdout))
        return None if got == want() else "element differs from the in-process result"

    return Request(cls, None, _cli_check(inner), argv)


def _cli_compute_sigma_element(rng, q, turn):
    p = rng.randint(0, 2)
    return _cli_element("cli_compute_sigma_element",
                        ["compute-sigma", "--k", "2", "--p", str(p), "--q", str(q)],
                        lambda: fh.partial_braiding(fh.FusedContext(2, 2, q), 1, p))


def _cli_compute_r_element(rng, q, turn):
    u, _ = spectral_pair(rng, q)
    return _cli_element("cli_compute_r_element",
                        ["compute-r", "--k", "2", "--q", str(q), "--u", str(u)],
                        lambda: fh.baxter_R_expansion(fh.FusedContext(2, 2, q), 1, u))


def _cli_lines(cls, argv, ok_line):
    def inner(stdout):
        lines = stdout.splitlines()
        if not lines:
            return "no output"
        bad = [line for line in lines if not ok_line(line)]
        return f"unexpected output line {bad[0]!r}" if bad else None

    return Request(cls, None, _cli_check(inner), argv)


def _verified(line):
    return line.endswith(": verified")


def _cli_verify_ybe(n):
    def make(rng, q, turn):
        u, v = spectral_pair(rng, q)
        i = 1 if n == 3 else rng.randint(1, 2)
        return _cli_lines(f"cli_verify_ybe_2{n}", [
            "verify-ybe", "--k", "2", "--n", str(n), "--i", str(i), "--q", str(q),
            "--u", str(u), "--v", str(v)], _verified)
    return make


def _cli_verify_ybe_classical(rng, q, turn):
    mu, nu = additive_pair(rng)
    return _cli_lines("cli_verify_ybe_classical", [
        "verify-ybe", "--k", "2", "--classical", "--mu", str(mu), "--nu", str(nu)], _verified)


def _cli_verify_algebra(k, n):
    def make(rng, q, turn):
        u, _ = spectral_pair(rng, q)
        return _cli_lines(f"cli_verify_algebra_{k}{n}", [
            "verify-algebra", "--k", str(k), "--n", str(n), "--q", str(q), "--u", str(u),
            "--seed", str(rng.randrange(10**6))], lambda line: line.endswith(": ok"))
    return make


def _cli_reproduce_coefficients(example):
    def make(rng, q, turn):
        u, _ = spectral_pair(rng, q)
        return _cli_lines(f"cli_reproduce_{example}", [
            "reproduce-paper", "--example", example, "--q", str(q), "--u", str(u)],
            lambda line: line.endswith("-> match"))
    return make


def _cli_reproduce_k2N2(example):
    def make(rng, q, turn):
        def inner(stdout):
            lines = stdout.splitlines()
            if len(lines) != 4 or not all("all 81 entries match" in s for s in lines[:2]):
                return "reference matrices reported as mismatching"
            for line, want in zip(lines[2:], reference_data.reference_sigma_k2N2(q)):
                err = _same_matrix(_parse_matrix(line, "json"), want, 9)
                if err:
                    return err
            return None

        argv = ["reproduce-paper", "--example", example, "--q", str(q)]
        return Request(f"cli_reproduce_{example}", None, _cli_check(inner), argv)
    return make


def _cli_reproduce_h22(rng, q, turn):
    return _cli_lines("cli_reproduce_h22-product", [
        "reproduce-paper", "--example", "h22-product", "--q", str(q)],
        lambda line: line.startswith("two-ellipse product matches with all-"))


def _cli_qnum(fn):
    def make(rng, q, turn):
        L = rng.randint(2, 6)
        p, a = rng.randint(0, L), _rational(rng, (1, 9), (2, 13))
        args = {"int": ["--L", str(L)], "factorial": ["--L", str(L)],
                "binomial": ["--L", str(L), "--p", str(p)],
                "pochhammer": ["--a", str(a), "--p", str(p)], "brace": ["--L", str(L)]}[fn]
        want = {"int": lambda: fh.q_int(L, q), "factorial": lambda: fh.q_factorial(L, q),
                "binomial": lambda: fh.q_binomial(L, p, q),
                "pochhammer": lambda: fh.q_pochhammer(a, q, p),
                "brace": lambda: fh.brace_int(L, q)}[fn]

        def inner(stdout):
            return None if stdout.strip() == fh.format_rational(want()) else f"qnum {fn} is wrong"

        return Request(f"cli_qnum_{fn}", None, _cli_check(inner),
                       ["qnum", "--fn", fn, "--q", str(q), *args])
    return make


# The three dearest commands (about 6, 3 and 1.4 s) run once per run, so
# that a run holds two cycles of the rest: its median then falls among the
# many import-bound commands and its tail among the 0.5 - 0.7 s ones, not on
# the gap between the two groups.
CLI_ONCE = (_cli_compute_r_matrix(3, 3), _cli_compute_r_matrix(2, 4), _cli_verify_algebra(3, 2))
CLI_CLASSES = _spread((
    *(_cli_compute_r_matrix(k, N) for k, N in ((2, 3), (3, 2))),
    _cli_verify_ybe(3), _cli_verify_ybe(4), _cli_verify_ybe_classical,
    *(_cli_verify_algebra(k, n) for k, n in ((2, 2), (2, 3))),
), (
    _cli_compute_r_matrix(2, 2),
    _cli_compute_sigma_matrix, _cli_compute_sigma_element, _cli_compute_r_element,
    *(_cli_reproduce_coefficients(e) for e in ("k1-hecke", "k2-coefficients")),
    *(_cli_reproduce_k2N2(e) for e in ("k2N2-matrices", "k2N2")), _cli_reproduce_h22,
    *(_cli_qnum(fn) for fn in ("int", "factorial", "binomial", "pochhammer", "brace")),
))


def child_env() -> dict:
    """The environment of every child: the checkout's sources and no
    fusedhecke overrides."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("FUSED_HECKE_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(argv: list[str], trace_prefix: Path | None, request: int):
    """One fresh interpreter per request; traced children start through
    ``cli_child.py``, which installs the span wrappers first."""
    if trace_prefix is None:
        cmd = [sys.executable, "-m", "fusedhecke.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "cli_child.py"), str(trace_prefix), str(request), *argv]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr


def child_seconds(code: str) -> float:
    """Run ``code`` in a fresh interpreter, which prints one float."""
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(proc.stdout)


def import_seconds() -> float:
    """Time for a fresh interpreter to import fusedhecke."""
    return child_seconds("import time; t = time.perf_counter(); import fusedhecke; "
                         "print(time.perf_counter() - t)")


def interpreter_seconds() -> float:
    """Wall time of a bare ``python -c pass``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=child_env(), check=True,
                   timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0


# -- the workload table -----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    once: tuple  # request makers run once per run, before the cycles
    classes: tuple  # request makers of one cycle
    q_pool: tuple
    warm: Callable[[], None]
    setup_reps: int
    setup_check: Callable[[], str | None] = lambda: None
    in_process: bool = True

    def requests(self, rng, cycles: int) -> list[Request]:
        """The ``once`` requests, then ``cycles`` cycles of the classes.
        Each request gets a turn number that rotates the q pool (and the
        CLI output format) the same way for every seed, so that each class
        meets the same q values in every run; a workload without a pool
        draws a fresh q for every request of a cycle."""
        once_qs = self.q_pool[:1] or fresh_qs(rng, len(self.once))
        reqs = [make(rng, once_qs[j % len(once_qs)], j) for j, make in enumerate(self.once)]
        for c in range(cycles):
            qs = self.q_pool or fresh_qs(rng, len(self.classes))
            for j, make in enumerate(self.classes):
                turn = j + c
                reqs.append(make(rng, qs[turn % len(qs)], turn))
        return reqs


# A median or tail of a mix of classes is steady only where many requests of
# like cost surround it.  In a run of two algebra cycles the six q-generic
# (3, 3) expansion checks per cycle (about 0.16 s) hold the median: the twelve
# cheap q = 1 k = 3 checks (about 0.06 s, each at a fresh mu) below them
# balance the ten dearer classes and the once requests above.  The tail
# falls among the eight 0.4 - 0.5 s requests, below the once requests and the
# two 0.6 - 0.7 s classes; the two dearest q-generic classes (mixed_ybe_223
# and comm_pr_33, about 1.9 and 0.9 s) run once per run for that.
ALGEBRA_ONCE = CLASSICAL_ONCE + GENERIC_ONCE
ALGEBRA_CLASSES = _spread(GENERIC_CLASSES, GENERIC_MEDIAN, CLASSICAL_CLASSES, CLASSICAL_CHEAP)


def _warm_algebra():
    _warm_generic()
    _warm_classical()


# The q-generic and the q = 1 classes share one cycle, which keeps both
# paths in one end-to-end figure at the cost of one workload's run time.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("algebra", ALGEBRA_ONCE, ALGEBRA_CLASSES, Q_GENERIC,
                 _warm_algebra, 3),
        Workload("matrix_warm", MATRIX_ONCE, MATRIX_CLASSES, Q_MATRIX, _warm_matrix, 1,
                 check_matrix_reference),
        Workload("cli_cold", CLI_ONCE, CLI_CLASSES, (), lambda: None, 4, in_process=False),
    )
}

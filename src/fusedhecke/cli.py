"""Command-line front end.

Exit codes: 0 on success / verified, 1 on a verification failure (with a
structured diff on stderr), 2 on parameter, pole, parse or resource errors.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
from fractions import Fraction

from . import fused, hecke, linalg, reference_data, tensorrep
from .errors import FusedHeckeError
from .fused import FusedContext
from .permutations import all_permutations
from .qnumbers import (
    brace_int,
    format_rational,
    parse_rational,
    q_binomial,
    q_factorial,
    q_int,
    q_pochhammer,
)

DEFAULT_Q = "2"
DEFAULT_U = "3/7"
DEFAULT_V = "5/9"

# argparse reads a value such as -5/7 as an option string (it takes only
# -5 and -1.5 for negative numbers), so main() glues it to the option before;
# no option is named like it, and none but the rational ones takes it as value
_NEGATIVE_RATIONAL = re.compile(r"-\d+/\d+")


def _join_negative_rationals(argv: list[str]) -> list[str]:
    """["--q", "-5/7"] -> ["--q=-5/7"]."""
    out = []
    for arg in argv:
        if out and out[-1].startswith("--") and _NEGATIVE_RATIONAL.fullmatch(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _emit(text: str, output: str | None):
    if output in (None, "-"):
        text = text if text.endswith("\n") else text + "\n"
        buffer = getattr(sys.stdout, "buffer", None)
        if buffer is None:  # a text-only stream, such as io.StringIO
            sys.stdout.write(text)
            return
        # an unbuffered stdout hands the bytes to one raw write, which may
        # write fewer of them when the reader closes mid-write; write the
        # rest until done, so that a closed pipe raises BrokenPipeError
        sys.stdout.flush()
        data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
        while data:
            data = data[buffer.write(data):]
        return
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise FusedHeckeError(f"cannot write --output {output}: {exc.strerror or exc}") from None


def _fail_diff(diff):
    sys.stderr.write(f"verification failed; first difference: {diff}\n")


def _emit_element(obj: dict, args) -> int:
    """A fused element in its JSON form, the only --format it has."""
    if args.fmt != "json":
        raise FusedHeckeError("algebra elements serialize as json only")
    _emit(json.dumps(obj, indent=2), args.output)
    return 0


def _emit_rows(rows, args, q, u=None) -> int:
    """A matrix on W tensor W, given as rows, in the --format asked for."""
    if args.fmt == "csv":
        _emit(tensorrep.matrix_to_csv(rows), args.output)
    else:
        obj = tensorrep.matrix_to_obj(rows, args.k, args.N, q, u)
        _emit(json.dumps(obj, indent=2), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fused-hecke",
        description="Exact computations in fused Hecke algebras and their "
        "baxterised R-matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("qnum", help="evaluate a q-combinatorial scalar")
    p.add_argument("--fn", required=True,
                   choices=["int", "factorial", "binomial", "pochhammer", "brace"])
    p.add_argument("--L", type=int, default=None)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--a", default=None, help="rational, for pochhammer")
    p.add_argument("--q", default=DEFAULT_Q)

    p = sub.add_parser("compute-r", help="compute a baxterised R-matrix")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--N", type=int, default=None,
                   help="matrix output on W tensor W; omit for the algebra element")
    p.add_argument("--q", default=DEFAULT_Q)
    p.add_argument("--u", default=DEFAULT_U)
    p.add_argument("--output", default=None)
    p.add_argument("--format", dest="fmt", choices=["json", "csv"], default="json")

    p = sub.add_parser("compute-sigma", help="compute a partial braiding")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--i", type=int, default=1)
    p.add_argument("--q", default=DEFAULT_Q)
    p.add_argument("--output", default=None)
    p.add_argument("--format", dest="fmt", choices=["json", "csv"], default="json")

    p = sub.add_parser("verify-ybe", help="verify a braided Yang-Baxter identity")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--i", type=int, default=1)
    p.add_argument("--q", default=DEFAULT_Q)
    p.add_argument("--u", default=DEFAULT_U)
    p.add_argument("--v", default=DEFAULT_V)
    p.add_argument("--classical", action="store_true",
                   help="additive check at q = 1 with --mu/--nu")
    p.add_argument("--mu", default="7/2")
    p.add_argument("--nu", default="9/4")

    p = sub.add_parser("verify-algebra", help="run the structural identity suite")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--q", default=DEFAULT_Q)
    p.add_argument("--u", default=DEFAULT_U)
    p.add_argument("--seed", type=int, default=20240,
                   help="seed for the randomized associativity trials")
    p.add_argument("--trials", type=int, default=25)

    p = sub.add_parser("reproduce-paper",
                       help="recompute bundled reference examples exactly")
    p.add_argument("--example", required=True,
                   choices=["k1-hecke", "k2-coefficients", "k2N2-matrices",
                            "k2N2", "h22-product"])
    p.add_argument("--q", default=DEFAULT_Q)
    p.add_argument("--u", default=DEFAULT_U)
    return parser


# -- command handlers ----------------------------------------------------------


def _cmd_qnum(args) -> int:
    q = parse_rational(args.q)
    fn = args.fn
    if fn != "pochhammer" and (args.L is None or args.L < 0):
        raise FusedHeckeError(f"{fn} needs --L >= 0")
    if fn == "int":
        val = q_int(args.L, q)
    elif fn == "factorial":
        val = q_factorial(args.L, q)
    elif fn == "binomial":
        if args.p is None:
            raise FusedHeckeError("binomial needs --p")
        val = q_binomial(args.L, args.p, q)
    elif fn == "pochhammer":
        if args.a is None or args.p is None:
            raise FusedHeckeError("pochhammer needs --a and --p")
        val = q_pochhammer(parse_rational(args.a), q, args.p)
    else:
        val = brace_int(args.L, q)
    print(format_rational(val))
    return 0


def _cmd_compute_r(args) -> int:
    q = parse_rational(args.q)
    u = parse_rational(args.u)
    if args.N is None:
        x = fused.baxter_R_expansion(FusedContext(args.k, 2, q), 1, u)
        obj = fused.fused_element_to_obj(x, args.k, 2)
        obj["u"] = format_rational(u)
        return _emit_element(obj, args)
    # the rows of fused_R_matrix(k, N, u, q), built without numpy
    r = tensorrep._R_columns(args.k, args.N, u, fused._multiplicative(q))
    rows = tensorrep._rows(r, args.k, args.N)
    return _emit_rows(rows, args, q, u)


def _cmd_compute_sigma(args) -> int:
    q = parse_rational(args.q)
    if args.N is None:
        if args.n < 2:
            raise FusedHeckeError(f"compute-sigma needs --n >= 2, got n={args.n}")
        x = fused.partial_braiding(FusedContext(args.k, args.n, q), args.i, args.p)
        return _emit_element(fused.fused_element_to_obj(x, args.k, args.n), args)
    # the rows of sigma_matrix(k, p, N, q), built without numpy
    sigma = tensorrep._sigma_columns(args.k, args.p, args.N, q)
    return _emit_rows(tensorrep._rows(sigma, args.k, args.N), args, q)


def _cmd_verify_ybe(args) -> int:
    q = parse_rational(args.q)
    if args.classical:
        res = fused.verify_classical_ybe(
            args.k, args.n, parse_rational(args.mu), parse_rational(args.nu), args.i
        )
        label = f"additive YBE k={args.k} n={args.n} mu={args.mu} nu={args.nu}"
    else:
        ctx = FusedContext(args.k, args.n, q)
        res = fused.verify_braided_ybe(
            ctx, parse_rational(args.u), parse_rational(args.v), args.i
        )
        label = (f"braided YBE k={args.k} n={args.n} q={args.q} "
                 f"u={args.u} v={args.v}")
    if res.ok:
        print(f"{label}: verified")
        return 0
    _fail_diff(res.diff)
    return 1


def _cmd_verify_algebra(args) -> int:
    q = parse_rational(args.q)
    u = parse_rational(args.u)
    if args.trials < 0:
        raise FusedHeckeError("verify-algebra needs --trials >= 0")
    k, n = args.k, args.n
    if k < 1 or n < 2:
        raise FusedHeckeError(f"verify-algebra needs --k >= 1 and --n >= 2, got k={k}, n={n}")
    m = k * n
    rng = random.Random(args.seed)
    failures = 0

    def report(name, ok):
        nonlocal failures
        print(f"{name}: {'ok' if ok else 'FAILED'}")
        if not ok:
            failures += 1

    # defining relations
    ok = True
    for i in range(1, m):
        g = hecke.generator(i, m, q)
        lhs = hecke.multiply(g, g)
        rhs = g.scale(q - 1 / q) + hecke.unit(m, q)
        ok = ok and lhs == rhs
    for i in range(1, m - 1):
        a, b = hecke.generator(i, m, q), hecke.generator(i + 1, m, q)
        ok = ok and hecke.multiply(hecke.multiply(a, b), a) == hecke.multiply(
            hecke.multiply(b, a), b
        )
    for i in range(1, m):
        for j in range(i + 2, m):
            a, b = hecke.generator(i, m, q), hecke.generator(j, m, q)
            ok = ok and hecke.multiply(a, b) == hecke.multiply(b, a)
    report(f"defining relations in H_{m}", ok)

    # symmetriser identities on a small interval
    top = min(m, 4)
    ok = True
    for i in range(1, top):
        for j in range(i + 1, top + 1):
            s = hecke.symmetriser_sum(i, j, m, q)
            ok = ok and hecke.multiply(s, s) == s
            for a in range(i, j):
                g = hecke.generator(a, m, q)
                ok = ok and hecke.multiply(g, s) == s.scale(q)
                ok = ok and hecke.multiply(s, g) == s.scale(q)
            if q * q != 1:
                ok = ok and hecke.symmetriser_product(i, j, m, q) == s
    report(f"symmetriser identities in H_{m}", ok)

    ctx = FusedContext(k, n, q)
    p = fused.projector_P(ctx)
    report("projector idempotent", hecke.multiply(p, p) == p)

    ok = True
    for pp in range(k + 1):
        sig = fused.partial_braiding(ctx, 1, pp)
        ok = ok and hecke.multiply(p, sig) == sig and hecke.multiply(sig, p) == sig
    report("partial braidings sandwiched", ok)

    report("minimal polynomial", fused.minimal_polynomial_check(ctx))
    report("projector commutation with R(u)", bool(fused.verify_commPR(k, k, u, q)))

    ok = True
    pool = all_permutations(min(m, 4))
    for _ in range(args.trials):
        xs = []
        for _ in range(3):
            terms = {}
            for _ in range(3):
                w = rng.choice(pool)
                full = tuple(list(w) + list(range(len(w) + 1, m + 1)))
                terms[full] = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
            xs.append(hecke.HeckeElement(m, q, terms))
        a, b, c = xs
        ok = ok and hecke.multiply(hecke.multiply(a, b), c) == hecke.multiply(
            a, hecke.multiply(b, c)
        )
    report(f"random associativity ({args.trials} trials, seed {args.seed})", ok)

    return 0 if failures == 0 else 1


def _cmd_reproduce(args) -> int:
    q = parse_rational(args.q)
    u = parse_rational(args.u)
    example = "k2N2-matrices" if args.example == "k2N2" else args.example
    coefficient_examples = {
        "k1-hecke": (1, reference_data.reference_coefficients_k1),
        "k2-coefficients": (2, reference_data.reference_coefficients_k2),
    }
    if example in coefficient_examples:
        k, reference = coefficient_examples[example]
        got = fused.baxter_coefficients(k, k, u, q).values
        want = reference(u, q)
        for p, (g, w) in enumerate(zip(got, want)):
            print(f"a_{p}: computed {format_rational(g)} reference "
                  f"{format_rational(w)} -> {'match' if g == w else 'MISMATCH'}")
        return 0 if got == want else 1
    if example == "k2N2-matrices":
        # the library call goes first: it rejects a bad q with a message
        got1, got2 = (tensorrep._rows(tensorrep._sigma_columns(2, p, 2, q), 2, 2) for p in (1, 2))
        want1, want2 = reference_data._reference_sigma_k2N2_rows(q)
        ok = True
        for label, got, want in (("partial", got1, want1), ("full", got2, want2)):
            diff = linalg.first_matrix_diff(got, want)
            if diff is None:
                print(f"{label} crossing matrix (9x9): all 81 entries match")
            else:
                ok = False
                print(f"{label} crossing matrix: first mismatch {diff}")
        print(json.dumps(tensorrep.matrix_to_obj(got1, 2, 2, q)))
        print(json.dumps(tensorrep.matrix_to_obj(got2, 2, 2, q)))
        return 0 if ok else 1
    # h22-product
    res = fused.fused_product_example_check(q)
    if res.ok:
        print(f"two-ellipse product matches with all-{res.interpretation} crossings")
        return 0
    print("two-ellipse product matches no crossing interpretation")
    return 1


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_join_negative_rationals(argv))
    handlers = {
        "qnum": _cmd_qnum,
        "compute-r": _cmd_compute_r,
        "compute-sigma": _cmd_compute_sigma,
        "verify-ybe": _cmd_verify_ybe,
        "verify-algebra": _cmd_verify_algebra,
        "reproduce-paper": _cmd_reproduce,
    }
    try:
        return handlers[args.command](args)
    except FusedHeckeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def app():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: send what is still buffered to devnull,
        # so that the interpreter's last flush at exit reports nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.stderr.write("error: standard output closed before all of it was written\n")
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    app()

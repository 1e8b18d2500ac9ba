"""Command line front end.

Poset arguments use the text grammar of textio; combination-valued
results print one term per line, key-sorted, so reruns are
byte-identical.  Exit status: 0 success, 1 a check or rank verdict
failed, 2 unusable input (the message names the grammar production or
constraint that was violated).
"""

from __future__ import annotations

import argparse
import sys

from .checks import SUITES, run_suite
from .core import (
    PosetError,
    RangeError,
    crown_poset,
    is_connected,
    is_forest,
    is_plane,
    is_wn,
    plane_completions,
    wn_completions,
)
from .enumeration import enumerate_family
from .hopf import coproduct, deconcat_coproduct_g, reduced_coproduct
from .pairing import nondegeneracy_check, pairing_matrix, pictures_count, xy_order
from .products import compose_g, compose_h, factorize
from .textio import (
    MAX_VERTICES,
    ParseError,
    format_double_poset,
    format_lincomb,
    format_single_poset,
    format_tensorcomb,
    parse_double_poset,
    parse_indexed_poset,
    parse_single_poset,
    to_dot,
    to_json,
)
from .twoas import binfty_bracket, operad_compose, phi, star


def _flag(value):
    return "true" if value else "false"


def _split_list(text, production):
    parts = [seg for seg in (s.strip() for s in text.split(";")) if seg]
    if not parts:
        raise ParseError(f"empty poset list in {production}")
    return parts


def _cmd_enumerate(args):
    posets = enumerate_family(args.family, args.n)
    if args.count_only:
        print(len(posets))
        return 0
    for p in posets:
        print(format_double_poset(p))
    return 0


def _cmd_classify(args):
    p = parse_double_poset(args.poset)
    print(
        f"plane={_flag(is_plane(p))}"
        f" wn={_flag(is_wn(p))}"
        f" forest={_flag(is_forest(p))}"
        f" h-connected={_flag(is_connected(p, 1))}"
    )
    return 0


def _cmd_product(args):
    op = compose_g if args.op == "g" else compose_h
    p = parse_double_poset(args.left)
    q = parse_double_poset(args.right)
    print(format_double_poset(op(p, q)))
    return 0


def _cmd_factor(args):
    result = factorize(parse_double_poset(args.poset), args.op)
    for f in result.factors:
        print(format_double_poset(f))
    return 0


def _cmd_coproduct(args):
    p = parse_double_poset(args.poset)
    print(format_tensorcomb(reduced_coproduct(p) if args.reduced else coproduct(p)))
    return 0


def _cmd_deconcat(args):
    print(format_tensorcomb(deconcat_coproduct_g(parse_double_poset(args.poset))))
    return 0


def _cmd_pairing(args):
    print(pictures_count(parse_double_poset(args.left), parse_double_poset(args.right)))
    return 0


def _cmd_pairing_matrix(args):
    basis = enumerate_family(args.family, args.n)
    if args.xy_order:
        basis = xy_order(basis)
    mat = pairing_matrix(basis)
    for p in mat.basis:
        print(format_double_poset(p))
    for row in mat.entries:
        print(" ".join(str(v) for v in row))
    return 0


def _cmd_nondegenerate(args):
    report = nondegeneracy_check(enumerate_family(args.family, args.n))
    print(
        f"full-rank={_flag(report.full_rank)} rank={report.rank}"
        f" size={report.size} method={report.method}"
    )
    return 0 if report.full_rank else 1


def _cmd_star(args):
    print(format_lincomb(star(parse_double_poset(args.left), parse_double_poset(args.right))))
    return 0


def _cmd_phi(args):
    print(format_lincomb(phi(parse_double_poset(args.poset))))
    return 0


def _cmd_binfty(args):
    left = [parse_double_poset(t) for t in _split_list(args.left, "--left")]
    right = [parse_double_poset(t) for t in _split_list(args.right, "--right")]
    print(format_lincomb(binfty_bracket(left, right)))
    return 0


def _cmd_operad_compose(args):
    pattern = parse_indexed_poset(args.pattern)
    plugged = [parse_indexed_poset(t) for t in _split_list(args.args, "--args")]
    print(format_lincomb(operad_compose(pattern, plugged)))
    return 0


def _cmd_complete(args):
    q = parse_single_poset(args.poset)
    found = plane_completions(q) if args.target == "plane" else wn_completions(q)
    for p in found:
        print(format_double_poset(p))
    return 0


def _cmd_crown(args):
    if 2 * args.n > MAX_VERTICES:
        raise RangeError(
            f"crown has 2N vertices, at most {MAX_VERTICES}; got N={args.n}"
        )
    print(format_single_poset(crown_poset(args.n)))
    return 0


def _cmd_check(args):
    rows = run_suite(args.suite, args.max_n)
    failed = 0
    for row in rows:
        if row.ok:
            print(f"PASS {row.name}")
        else:
            failed += 1
            print(f"FAIL {row.name}: {row.detail}")
    print(f"{len(rows) - failed} passed, {failed} failed")
    return 1 if failed else 0


def _cmd_export(args):
    p = parse_double_poset(args.poset)
    print(to_json(p) if args.format == "json" else to_dot(p))
    return 0


_HANDLERS = {
    "enumerate": _cmd_enumerate,
    "classify": _cmd_classify,
    "product": _cmd_product,
    "factor": _cmd_factor,
    "coproduct": _cmd_coproduct,
    "deconcat": _cmd_deconcat,
    "pairing": _cmd_pairing,
    "pairing-matrix": _cmd_pairing_matrix,
    "nondegenerate": _cmd_nondegenerate,
    "star": _cmd_star,
    "phi": _cmd_phi,
    "binfty": _cmd_binfty,
    "operad-compose": _cmd_operad_compose,
    "complete": _cmd_complete,
    "crown": _cmd_crown,
    "check": _cmd_check,
    "export": _cmd_export,
}


def build_parser():
    ap = argparse.ArgumentParser(
        prog="doubleposets",
        description="Exact algebra of double posets: products, coproducts, "
        "the picture pairing, and the wn operad.",
    )
    sub = ap.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("enumerate", help="isoclasses of one family at one size")
    p.add_argument(
        "--class",
        dest="family",
        required=True,
        choices=["dp", "pp", "wn", "wnh", "wnr", "pf"],
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count-only", action="store_true")

    p = sub.add_parser("classify", help="plane / wn / forest / h-connected flags")
    p.add_argument("poset")

    p = sub.add_parser("product", help="compose two posets")
    p.add_argument("--op", required=True, choices=["g", "h"])
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("factor", help="maximal factorization under one product")
    p.add_argument("--op", required=True, choices=["g", "h"])
    p.add_argument("poset")

    p = sub.add_parser("coproduct", help="ideal coproduct as a tensor combination")
    p.add_argument("--reduced", action="store_true")
    p.add_argument("poset")

    p = sub.add_parser("deconcat", help="deconcatenation coproduct of the g product")
    p.add_argument("poset")

    p = sub.add_parser("pairing", help="number of pictures between two posets")
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("pairing-matrix", help="pairing Gram matrix of a family basis")
    p.add_argument("--class", dest="family", required=True, choices=["pp", "wn"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--xy-order", action="store_true")

    p = sub.add_parser("nondegenerate", help="exact rank verdict for a family basis")
    p.add_argument("--class", dest="family", required=True, choices=["pp", "wn", "dp"])
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("star", help="product transposed from the ideal coproduct")
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("phi", help="pairing image inside the wn span")
    p.add_argument("poset")

    p = sub.add_parser("binfty", help="bracket of two lists of wn building blocks")
    p.add_argument("--left", required=True, help="semicolon-separated posets")
    p.add_argument("--right", required=True, help="semicolon-separated posets")

    p = sub.add_parser("operad-compose", help="plug indexed posets into a pattern")
    p.add_argument("pattern")
    p.add_argument("--args", required=True, help="semicolon-separated indexed posets")

    p = sub.add_parser("complete", help="double posets extending a single order")
    p.add_argument("--target", required=True, choices=["plane", "wn"])
    p.add_argument("poset")

    p = sub.add_parser("crown", help="crown single poset on 2N vertices")
    p.add_argument("n", type=int)

    p = sub.add_parser("check", help="run one verification suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--max-n", type=int, required=True)

    p = sub.add_parser("export", help="emit DOT or JSON for one poset")
    p.add_argument("--format", required=True, choices=["dot", "json"])
    p.add_argument("poset")

    return ap


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits on usage errors and --help; keep main returning.
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _HANDLERS[args.command](args)
    except PosetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

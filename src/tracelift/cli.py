"""Command-line front end: enumeration, descriptor export, verification runs.

Exit codes: 0 pass, 1 a verification check failed, 2 usage error,
3 I/O error.  Reports are JSON by default and byte-identical for
identical arguments (timing is excluded).
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .cochains import (
    build_Psi0,
    build_Psi_n1,
    build_Psi_nl,
    build_S_even,
    descriptor_to_dict,
)
from .cohomology import (
    check_axioms,
    verify_cocycle,
    verify_even_sum_vanishes,
    verify_inner_tilde_cocycle,
    verify_oracle_agreement,
    verify_shortening_sign,
)
from .combinatorics import enumerate_a_even, reduce_sequence
from .context import random_matrix_context
from .freetrace import certify_leibniz_sum_identity
from .psido import InsufficientWindowError, bracket_series_check, make_psido_context

CHECKS = (
    "axioms",
    "lemma11",
    "lemma12",
    "thm11",
    "thm21",
    "thm23",
    "key-lemma",
    "lemma111",
    "bracket-series",
)


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"cannot write {out}: {exc}", file=sys.stderr)
        raise SystemExit(3)


def _emit_report(report_dict: dict, fmt: str, out: str | None) -> None:
    if fmt == "json":
        _write_out(json.dumps(report_dict, indent=2, sort_keys=False) + "\n", out)
        return
    lines = [f"check: {report_dict.get('check', '?')}"]
    for k, v in report_dict.get("params", {}).items():
        lines.append(f"  {k}: {v}")
    trials = report_dict.get("trials", [])
    n_ok = sum(1 for t in trials if t.get("zero"))
    lines.append(f"  trials passed: {n_ok}/{len(trials)}")
    for t in trials:
        if not t.get("zero"):
            lines.append(f"  FAIL at seed offset {t.get('seed_offset')}: {t}")
    lines.append(f"  result: {'PASS' if report_dict.get('pass') else 'FAIL'}")
    _write_out("\n".join(lines) + "\n", out)


def _make_context(args, parser):
    if args.backend == "matrix":
        rng = random.Random(f"{args.seed}:ctx")
        N = max(3, args.n) if args.N is None else args.N
        return random_matrix_context(rng, args.n, N, commuting=args.commuting)
    if args.backend == "psido":
        if args.n % 2:
            parser.error("psido backend pairs ln x_v with ln d_v; --n must be even")
        return make_psido_context(args.n // 2, depth=args.window)
    parser.error(f"backend {args.backend!r} has no sampling context")


def cmd_sequences(args, parser):
    if args.n < 1 or args.l < 1:
        parser.error("sequences requires --n >= 1 and --l >= 1")
    rows = []
    for a in enumerate_a_even(args.n, args.l):
        red = reduce_sequence(a)
        rows.append({
            "bits": "".join(map(str, a.bits)),
            "s1": red.s1,
            "reduced": "".join(map(str, red.tilde_bits)),
        })
    if args.format == "json":
        _write_out(json.dumps(rows, indent=2) + "\n", args.out)
    else:
        lines = [f"{r['bits']}  s1={r['s1']}  reduced={r['reduced']}" for r in rows]
        _write_out("\n".join(lines) + "\n", args.out)
    return 0


def cmd_build(args, parser):
    builders = {
        "psi0": lambda: build_Psi0(args.n, args.l),
        "psi-n1": lambda: build_Psi_n1(args.n),
        "psi-nl": lambda: build_Psi_nl(args.n, args.l),
        "s-even": lambda: build_S_even(args.n, args.l),
    }
    try:
        desc = builders[args.target]()
    except ValueError as exc:
        parser.error(str(exc))
    payload = json.dumps(descriptor_to_dict(desc), indent=2, sort_keys=False) + "\n"
    _write_out(payload, args.out)
    return 0


def _sampled(verify):
    return lambda desc, ctx, a: verify(a.n, a.l, ctx, trials=a.trials, seed=a.seed)


def _cocycle(check, *params):
    return lambda desc, ctx, a: verify_cocycle(
        desc, ctx, a.trials, a.seed, check=check,
        params={p: getattr(a, p) for p in params})


# check -> (builder of the descriptor it evaluates, runner).  The descriptor
# is built before the check runs, so parameters the check cannot take are
# usage errors.
SAMPLED_CHECKS = {
    "axioms": (lambda n, l: None,
               lambda desc, ctx, a: check_axioms(ctx, trials=a.trials, seed=a.seed)),
    "lemma11": (build_S_even, _sampled(verify_even_sum_vanishes)),
    "lemma12": (build_S_even, _sampled(verify_shortening_sign)),
    "thm11": (build_Psi0, _cocycle("psi0_cocycle", "n", "l")),
    "thm21": (lambda n, l: build_Psi_n1(n), _cocycle("psi_n1_cocycle", "n")),
    "thm23": (build_Psi_nl, _cocycle("psi_nl_cocycle", "n", "l")),
    "key-lemma": (build_Psi0, _sampled(verify_inner_tilde_cocycle)),
    "oracle": (build_Psi0, _sampled(verify_oracle_agreement)),
}


def _run_check(check, args, parser) -> int:
    """Run a sampled check and emit its report.  Bad parameters, a window
    too shallow for an exact coefficient and a context the check does not
    apply to are usage errors, not failures."""
    if args.trials < 1:
        parser.error("--trials must be >= 1")
    build, run = SAMPLED_CHECKS[check]
    try:
        ctx = _make_context(args, parser)
        desc = build(args.n, args.l)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        rep = run(desc, ctx, args)
    except InsufficientWindowError as exc:
        parser.error(str(exc))
    if "inapplicable" in rep.params:
        parser.error(f"{check} is inapplicable: {rep.params['inapplicable']}; "
                     "pass --commuting")
    _emit_report(rep.to_dict(), args.format, args.out)
    return 0 if rep.passed else 1


def cmd_verify(args, parser):
    check = args.check
    if check == "lemma111":
        try:
            res = certify_leibniz_sum_identity(args.n, args.l)
        except ValueError as exc:
            parser.error(str(exc))
        ok = res["identity_holds"] and res["second_order_cancelled"]
        _emit_report({"check": "leibniz_sum_identity", "params": res,
                      "trials": [], "pass": ok}, args.format, args.out)
        return 0 if ok else 1
    if check == "bracket-series":
        try:
            rep = bracket_series_check(cutoff=args.cutoff, depth=args.window,
                                       trials=args.trials, seed=args.seed)
        except (InsufficientWindowError, ValueError) as exc:
            parser.error(str(exc))
        _emit_report(rep.to_dict(), args.format, args.out)
        return 0 if rep.passed else 1
    return _run_check(check, args, parser)


def cmd_oracle(args, parser):
    if args.n + 2 * args.l > 8:
        parser.error("oracle comparison limited to n + 2l <= 8")
    return _run_check("oracle", args, parser)


def _add_common(p):
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "pretty"), default="json")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracelift",
        description="construct and exactly verify lifted trace cocycles",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_seq = sub.add_parser("sequences", help="enumerate even-run sequences")
    _add_common(p_seq)

    p_build = sub.add_parser("build", help="serialize a cochain descriptor")
    p_build.add_argument("target", choices=("psi0", "psi-n1", "psi-nl", "s-even"))
    _add_common(p_build)

    p_ver = sub.add_parser("verify", help="run a named verification")
    p_ver.add_argument("check", choices=CHECKS)
    _add_common(p_ver)
    p_ver.add_argument("--backend", choices=("matrix", "psido"), default="matrix")
    p_ver.add_argument("--N", type=int, default=None)
    p_ver.add_argument("--window", type=int, default=12)
    p_ver.add_argument("--trials", type=int, default=10)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--cutoff", type=int, default=4)
    p_ver.add_argument("--commuting", action="store_true")

    p_or = sub.add_parser("oracle", help="optimized vs naive evaluator")
    _add_common(p_or)
    p_or.add_argument("--backend", choices=("matrix", "psido"), default="matrix")
    p_or.add_argument("--N", type=int, default=None)
    p_or.add_argument("--window", type=int, default=12)
    p_or.add_argument("--trials", type=int, default=10)
    p_or.add_argument("--seed", type=int, default=0)
    p_or.add_argument("--commuting", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    handlers = {
        "sequences": cmd_sequences,
        "build": cmd_build,
        "verify": cmd_verify,
        "oracle": cmd_oracle,
    }
    return handlers[args.subcommand](args, parser)


if __name__ == "__main__":
    sys.exit(main())

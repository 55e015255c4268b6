"""Command-line front end: enumeration, descriptor export, verification runs.

Exit codes: 0 pass, 1 a verification check failed, 2 usage error,
3 I/O error, 4 internal error (any other exception; its traceback goes to
stderr).  Reports are JSON by default and byte-identical for identical
arguments (timing is excluded).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import traceback

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

# psido window depth when --window is absent
WINDOW = 12


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


def _window(args) -> int:
    return WINDOW if args.window is None else args.window


def _make_context(args):
    """The sampling context of ``--backend``; an option the backend does
    not read is an error, not silently dropped."""
    if args.backend == "matrix":
        if args.window is not None:
            raise ValueError("--window applies to the psido backend only")
        rng = random.Random(f"{args.seed}:ctx")
        N = max(3, args.n) if args.N is None else args.N
        return random_matrix_context(rng, args.n, N, commuting=args.commuting)
    if args.N is not None or args.commuting:
        raise ValueError("--N and --commuting apply to the matrix backend only")
    if args.n % 2:
        raise ValueError("psido backend pairs ln x_v with ln d_v; --n must be even")
    return make_psido_context(args.n // 2, depth=_window(args))


def cmd_sequences(args):
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


def cmd_build(args):
    builders = {
        "psi0": lambda: build_Psi0(args.n, args.l),
        "psi-n1": lambda: build_Psi_n1(args.n),
        "psi-nl": lambda: build_Psi_nl(args.n, args.l),
        "s-even": lambda: build_S_even(args.n, args.l),
    }
    desc = builders[args.target]()
    payload = json.dumps(descriptor_to_dict(desc), indent=2, sort_keys=False) + "\n"
    _write_out(payload, args.out)
    return 0


def _on_context(run):
    """A runner that samples on the ``--backend`` context."""
    return lambda a: run(_make_context(a), a).to_dict()


def _sampled(verify):
    return _on_context(lambda ctx, a: verify(a.n, a.l, ctx, trials=a.trials, seed=a.seed))


def _cocycle(check, build, *params):
    return _on_context(lambda ctx, a: verify_cocycle(
        build(a), ctx, a.trials, a.seed, check=check,
        params={p: getattr(a, p) for p in params}))


def _leibniz(a):
    res = certify_leibniz_sum_identity(a.n, a.l)
    return {"check": "leibniz_sum_identity", "params": res, "trials": [],
            "pass": res["identity_holds"] and res["second_order_cancelled"]}


def _oracle(a):
    if a.n + 2 * a.l > 8:
        raise ValueError("oracle comparison limited to n + 2l <= 8")
    return _sampled(verify_oracle_agreement)(a)


# check -> runner(args) returning the report dict.
RUNNERS = {
    "axioms": _on_context(lambda ctx, a: check_axioms(ctx, trials=a.trials, seed=a.seed)),
    "lemma11": _sampled(verify_even_sum_vanishes),
    "lemma12": _sampled(verify_shortening_sign),
    "thm11": _cocycle("psi0_cocycle", lambda a: build_Psi0(a.n, a.l), "n", "l"),
    "thm21": _cocycle("psi_n1_cocycle", lambda a: build_Psi_n1(a.n), "n"),
    "thm23": _cocycle("psi_nl_cocycle", lambda a: build_Psi_nl(a.n, a.l), "n", "l"),
    "key-lemma": _sampled(verify_inner_tilde_cocycle),
    "lemma111": _leibniz,
    "bracket-series": lambda a: bracket_series_check(
        cutoff=a.cutoff, depth=_window(a), trials=a.trials, seed=a.seed).to_dict(),
    "oracle": _oracle,
}


def cmd_verify(args):
    report = RUNNERS[args.check](args)
    if "inapplicable" in report["params"]:
        hint = "; pass --commuting" if args.backend == "matrix" else ""
        raise ValueError(f"{args.check} is inapplicable: "
                         f"{report['params']['inapplicable']}{hint}")
    _emit_report(report, args.format, args.out)
    return 0 if report["pass"] else 1


def _add_common(p):
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "pretty"), default="json")


def _add_sampling(p):
    p.add_argument("--backend", choices=("matrix", "psido"), default="matrix")
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--commuting", action="store_true")


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
    p_ver.add_argument("check", choices=[c for c in RUNNERS if c != "oracle"])
    _add_common(p_ver)
    _add_sampling(p_ver)
    p_ver.add_argument("--cutoff", type=int, default=4)

    p_or = sub.add_parser("oracle", help="optimized vs naive evaluator")
    _add_common(p_or)
    _add_sampling(p_or)
    p_or.set_defaults(check="oracle")
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    handlers = {
        "sequences": cmd_sequences,
        "build": cmd_build,
        "verify": cmd_verify,
        "oracle": cmd_verify,
    }
    # bad parameters, a window too shallow for an exact coefficient and a
    # context a check does not apply to are usage errors, not failures
    try:
        return handlers[args.subcommand](args)
    except (ValueError, InsufficientWindowError) as exc:
        parser.error(str(exc))
    # anything else is a crash, which must not read as a failed check
    except Exception:
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())

"""tracelift benchmark: exact-verification workloads with end-to-end and
per-layer metrics.

    python3 perfbench/run.py --workload matrix-interval --seed 1 --seconds 20 --trace 0

Run from the repository root; the library is imported from ``src/``.  One
process, no extra threads, standard library only.  Each run

1. sets up SETUP_REPS times (fresh import, descriptors, contexts, operation
   seeds) and reports the median as ``setup_s``;
2. runs the correctness gates outside the timed region: the optimized
   evaluator against ``naive.naive_evaluate`` and a negative control that
   must fail, so a kernel returning 0 cannot pass;
3. runs operations (a trial, or a round of calls) for up to ``--seconds``
   seconds, each checked exactly; a wrong result counts as failed;
4. with ``--trace 1``, spends the first half of the time untraced, then
   repeats the same operations under the span tracer, and reports the
   per-layer metrics and the tracing overhead instead of the end-to-end ones.

End-to-end times are scaled to a nominal host speed by ``speed.SpeedProbe``
(see there why); the record keeps the raw times too.  Per-layer times are
raw.

Every metric is printed by name with its unit; the last stdout line is the
JSON result.  A record with the environment, the replay commands, the gate
results and the determinism digest is written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"
SETUP_REPS = 9

# name -> (unit, better); measured with tracing off
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "op_s_p50": ("s", "lower"),
    "terms_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

NUMERIC = "matrix-interval, matrix-circle, psido-interval"
MATRIX = "matrix-interval, matrix-circle"
# Per-layer metrics, per operation unless named a set-up metric:
# (name, unit, better, end-to-end metric it should move, on which workloads,
#  in the result line).  Times that read 0 on workloads that never enter the
# layer are printed and recorded but kept out of the result line.
LAYERS = (
    ("cohomology.ce_differential.calls", "count", "lower", "wall_s", NUMERIC, True),
    ("cohomology.ce_differential.s", "s", "lower", "wall_s", NUMERIC, False),
    ("cochains.evaluate.calls", "count", "lower", "terms_per_s", NUMERIC, True),
    ("cochains.evaluate.self_s", "s", "lower", "terms_per_s",
     "matrix-interval most, matrix-circle less, psido-interval not at all", False),
    ("cochains.mul_per_term", "mul/term", "lower", "terms_per_s",
     "matrix-interval most, matrix-circle less, psido-interval not at all", True),
    ("cochains.evaluate_expanded.calls", "count", "lower", "wall_s", "matrix-circle", True),
    ("cochains.evaluate_expanded.self_s", "s", "lower", "wall_s", "matrix-circle", False),
    ("kernel.self_s", "s", "lower", "wall_s",
     "all: evaluate and evaluate_expanded, or symbolic_expand and symbolic_differential, self time", True),
    ("algebra.s", "s", "lower", "wall_s",
     "all: top-level time in context calls, psido symbol calls or canonicalize_cyclic", True),
    ("matrices.mat_mul.calls", "count", "lower", "wall_s", MATRIX, True),
    ("matrices.mat_mul.s", "s", "lower", "wall_s", MATRIX, False),
    ("matrices.trace.calls", "count", "lower", "wall_s", MATRIX, True),
    ("matrices.trace.s", "s", "lower", "wall_s", MATRIX, False),
    ("matrices.deriv.calls", "count", "lower", "wall_s", MATRIX, True),
    ("matrices.q.calls", "count", "lower", "wall_s", MATRIX, True),
    ("matrices.bracket.calls", "count", "lower", "wall_s", MATRIX, True),
    ("psido.compose.calls", "count", "lower", "wall_s", "psido-interval", True),
    ("psido.compose.s", "s", "lower", "wall_s", "psido-interval", False),
    ("psido.compose.term_pairs", "count", "lower", "wall_s", "psido-interval", True),
    ("psido.apply_log_derivation.calls", "count", "lower", "wall_s", "psido-interval", True),
    ("psido.apply_log_derivation.s", "s", "lower", "wall_s", "psido-interval", False),
    ("psido.residue_trace.calls", "count", "lower", "wall_s", "psido-interval", True),
    ("words.canonicalize_cyclic.calls", "count", "lower", "wall_s", "free-certify", True),
    ("words.canonicalize_cyclic.s", "s", "lower", "wall_s", "free-certify", False),
    ("freetrace.kept_ratio", "ratio", "higher", "wall_s", "free-certify", True),
    ("freetrace.symbolic_expand.s", "s", "lower", "wall_s", "free-certify", False),
    ("freetrace.symbolic_differential.s", "s", "lower", "wall_s", "free-certify", False),
    ("freetrace.relation_basis.s", "s", "lower", "wall_s", "free-certify", False),
    ("freetrace.solve_rational.s", "s", "lower", "wall_s", "free-certify", False),
    ("freetrace.solve_rational.cells", "count", "lower", "wall_s", "free-certify", True),
    ("cochains.build.s", "s", "lower", "setup_s", "all (set-up, median repetition)", True),
    ("context.build.s", "s", "lower", "setup_s",
     "numeric workloads (set-up, median repetition)", False),
    ("trace.overhead_s", "s", "lower", "none (traced minus untraced wall_s)", "all", True),
)
# proxy context calls are published under the matrix layer's names
MATRIX_NAMES = {"ctx.mul": "matrices.mat_mul", "ctx.trace": "matrices.trace",
                "ctx.deriv": "matrices.deriv", "ctx.q": "matrices.q",
                "ctx.bracket": "matrices.bracket"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, wl):
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "seed": args.seed,
        "replay": wl.replay(args.seed),
        "replay_rule": f"operation i uses --seed (seed + i) % {workloads.POOL}",
    }


def report_json(reports) -> str:
    dicts = [r if isinstance(r, dict) else r.to_dict() for r in reports]
    return json.dumps(dicts, sort_keys=True)


def run_ops(wl, st, probe, budget, count=None, wrap=lambda c: c, on_op=nullcontext):
    """Run exactly ``count`` operations, or as many as fit in ``budget``
    seconds (at least one): an operation whose predicted end, at the mean
    time so far, lies past the budget is not started.  Garbage from the
    previous operation is collected before each one, outside its time.
    Returns (raw times, scaled times, oks, reports)."""
    raw, scaled, oks, reports = [], [], [], []
    while count is None or len(raw) < count:
        if count is None and raw and sum(raw) * (1 + 1 / len(raw)) > budget:
            break
        gc.collect()
        with on_op():
            r, t, (ok, reps) = probe.time(guarded, wl.op, st, len(raw), wrap)
        raw.append(r)
        scaled.append(t)
        oks.append(bool(ok))
        reports.append(reps)
    return raw, scaled, oks, [report_json(r) for r in reports]


def guarded(op, *args):
    """An operation that raises has failed; record why and keep running."""
    try:
        return op(*args)
    except Exception:
        return False, [{"error": traceback.format_exc()}]


def run_gates(wl, st):
    try:
        return wl.gates(st)
    except Exception:
        return {"gates": {"ok": False, "error": traceback.format_exc()}}


def setup_once(wl, seed):
    lib = workloads.load_library()
    clock = workloads.SetupClock(perf_counter)
    return lib, wl.setup(lib, seed, clock), clock.seconds


def layer_values(per_op, setup_layers, st, overhead, backend):
    """Mean per traced operation of every LAYERS metric."""
    k = len(per_op)
    raw = {}
    for op in per_op:
        for key, v in op.items():
            raw[key] = raw.get(key, 0) + v / k
    if backend == "matrix":
        for key in list(raw):
            src, _, field = key.rpartition(".")
            if src in MATRIX_NAMES:
                raw[f"{MATRIX_NAMES[src]}.{field}"] = raw[key]
    vals = {name: raw.get(name, 0) for name, *_ in LAYERS}
    vals["kernel.self_s"] = sum(
        raw.get(f"{n}.self_s", 0)
        for n in ("cochains.evaluate", "cochains.evaluate_expanded",
                  "freetrace.symbolic_expand", "freetrace.symbolic_differential"))
    vals["cochains.mul_per_term"] = raw.get("ctx.mul.calls", 0) / st.terms
    calls = raw.get("words.canonicalize_cyclic.calls", 0)
    vals["freetrace.kept_ratio"] = raw.get("words.distinct", 0) / calls if calls else 0.0
    vals["cochains.build.s"] = setup_layers["cochains.build"]
    vals["context.build.s"] = setup_layers["context.build"]
    vals["trace.overhead_s"] = overhead
    return vals


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "tracelift" / "__init__.py").is_file():
        print(f"benchmark: no tracelift sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    wl = workloads.WORKLOADS[args.workload]

    with speed.SpeedProbe() as probe:
        setups = [probe.time(setup_once, wl, args.seed) for _ in range(SETUP_REPS)]
        lib, st, _ = setups[-1][2]
        if not Path(lib.cochains.__file__).resolve().is_relative_to(src.resolve()):
            print(f"benchmark: tracelift imported from outside {src}", file=sys.stderr)
            return 2
        gates = run_gates(wl, st)
        gates_ok = all(g["ok"] for g in gates.values())
        budget = args.seconds / 2 if args.trace else args.seconds
        raw, times, oks, reports = run_ops(wl, st, probe, budget)
        if args.trace:
            tracer = tracing.Tracer()
            with tracing.instrument(lib, tracer), tracer.span("workload"):
                t_raw, t_times, t_oks, t_reports = run_ops(
                    wl, st, probe, None, count=len(raw), wrap=tracer.context,
                    on_op=lambda: tracer.span("operation"))
    setup_scaled = [t for _, t, _ in setups]
    setup_s = statistics.median(setup_scaled)
    # set-up layer times of the repetition whose scaled time is the median
    setup_layers = setups[setup_scaled.index(sorted(setup_scaled)[SETUP_REPS // 2])][2][2]
    k = len(times)
    attempted, failed = k, oks.count(False)
    env = environment(args, wl)
    record = {"workload": wl.name, "seconds": args.seconds, "trace": args.trace,
              "environment": env, "gates": gates, "terms_per_op": st.terms,
              "setup_raw_s": [r for r, _, _ in setups], "setup_scaled_s": setup_scaled,
              "op_raw_s": raw, "op_scaled_s": times, "ops": k,
              "reference_slices": {"count": len(probe.slices),
                                   "mean_s": statistics.fmean(probe.slices),
                                   "nominal_s": speed.NOMINAL_SLICE_S}}

    lines = [f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
             f"ops {k}  nproc {env['nproc']}  python {env['python']}"]
    lines += [f"  replay: {c}" for c in env["replay"][:3]]
    if len(env["replay"]) > 3:
        lines.append(f"  replay: ... {len(env['replay']) - 3} more in the record")
    lines += [f"  gate {name}: {'ok' if g['ok'] else 'FAILED'}" for name, g in gates.items()]
    lines.append(f"  host speed: reference slice {statistics.fmean(probe.slices) * 1e6:.1f} us "
                 f"(nominal {speed.NOMINAL_SLICE_S * 1e6:.0f} us); times below are scaled")

    if not args.trace:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.fmean(times),
            "op_s_p50": statistics.median(times),
            "terms_per_s": st.terms / statistics.fmean(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        result = {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in metrics.items()}
        record["determinism"] = {"report_sha256": hashlib.sha256(reports[0].encode()).hexdigest()}
        lines += [f"  {k:<16} {v:>14.6g} {END_TO_END[k][0]}" for k, v in metrics.items()]
        lines.append(f"  {'op samples':<16} {k:>14d}")
        lines.append(f"  {'raw wall_s':<16} {statistics.fmean(raw):>14.6g} s (unscaled)")
        lines.append(f"  {'failed_ratio':<16} {failed / attempted:>14.6g} ({failed}/{attempted})")
    else:
        attempted += len(t_oks)
        failed += t_oks.count(False)
        # tracing must not change any result
        same = t_reports == reports
        gates_ok = gates_ok and same
        per_op = tracing.per_operation(tracer)
        overhead = statistics.fmean(t_times) - statistics.fmean(times)
        vals = layer_values(per_op, setup_layers, st, overhead, wl.backend)
        op0 = layer_values(per_op[:1], setup_layers, st, overhead, wl.backend)
        record["determinism"] = {
            "report_sha256": hashlib.sha256(reports[0].encode()).hexdigest(),
            "traced_reports_identical": same,
            "op0_counts": {n: op0[n] for n, u, *_ in LAYERS if u != "s"},
        }
        record["trace_overhead"] = {
            "untraced_wall_s": statistics.fmean(times), "traced_wall_s": statistics.fmean(t_times),
            "overhead_s": overhead, "overhead_share": overhead / statistics.fmean(times),
            "untraced_raw_s": raw, "traced_raw_s": t_raw}
        record["layers"] = [{"name": n, "unit": u, "better": b, "value": vals[n],
                             "moves": m, "on": on, "in_result": r}
                            for n, u, b, m, on, r in LAYERS]
        result = {n: {"value": vals[n], "unit": u} for n, u, _, _, _, r in LAYERS if r}
        lines += [f"  {n:<36} {vals[n]:>14.6g} {u:<8} -> {m} on {on}"
                  for n, u, b, m, on, r in LAYERS]
        lines.append(f"  tracing overhead: {overhead:.6g} s per operation "
                     f"({100 * overhead / statistics.fmean(times):.1f}% of untraced wall_s)")
        lines.append(f"  {'failed_ratio':<36} {failed / attempted:>14.6g} ({failed}/{attempted})")
        spans_path = RESULTS / f"{wl.name}-seed{args.seed}-spans.json"
        RESULTS.mkdir(exist_ok=True)
        spans_path.write_text(json.dumps(tracing.span_dump(tracer)))
        record["spans_file"] = str(spans_path.relative_to(ROOT))

    correct = gates_ok and failed == 0
    record.update({"correct": correct, "attempted": attempted, "failed": failed,
                   "failed_ratio": failed / attempted, "metrics": result})
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

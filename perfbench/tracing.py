"""In-memory spans around tracelift's layers, recorded from outside the library.

Spans are opened by wrappers that replace module attributes for the length
of a traced pass (``instrument``) and by a proxy around the algebra context
(``Tracer.context``); no library source is edited.  The span tree is

    workload -> operation -> ce_differential -> evaluate -> context call

Leaf calls (context methods, psido symbol operations, cyclic
canonicalization) run hundreds of thousands of times per operation, so they
are aggregated per parent span as [calls, total seconds, top-level seconds]
instead of being kept one by one.  A leaf called inside another leaf (psido
``compose`` inside ``ctx.mul``) adds to its own total but not to the
top-level time that is subtracted from the parent's duration.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

# Span names; each is installed as a wrapper over (module, attribute).
SPANS = (
    ("cohomology", "ce_differential", "cohomology.ce_differential"),
    ("cochains", "evaluate", "cochains.evaluate"),
    ("cochains", "evaluate_expanded", "cochains.evaluate_expanded"),
    ("freetrace", "symbolic_expand", "freetrace.symbolic_expand"),
    ("freetrace", "symbolic_differential", "freetrace.symbolic_differential"),
    ("freetrace", "relation_basis", "freetrace.relation_basis"),
    ("freetrace", "solve_rational", "freetrace.solve_rational"),
)
# Leaf names; (module, attribute, name).
LEAVES = (
    ("psido", "compose", "psido.compose"),
    ("psido", "apply_log_derivation", "psido.apply_log_derivation"),
    ("psido", "residue_trace", "psido.residue_trace"),
    ("freetrace", "canonicalize_cyclic", "words.canonicalize_cyclic"),
)
CONTEXT_METHODS = ("mul", "trace", "deriv", "q", "bracket", "generator")


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index]
        self.stack = [-1]
        self.leaves = {}       # (parent index, name) -> [calls, total_s, top_s]
        self.leaf_depth = 0
        self.op_counts = {}    # (operation index, counter) -> value
        self.op_words = {}     # operation index -> distinct canonical words
        self.current_op = -1

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        rec = [name, perf_counter(), 0.0, self.stack[-1]]
        self.spans.append(rec)
        self.stack.append(idx)
        if name == "operation":
            self.current_op = idx
        try:
            yield idx
        finally:
            rec[2] = perf_counter()
            self.stack.pop()

    def spanned(self, name, fn, note=None):
        def wrapper(*args, **kwargs):
            if note is not None:
                note(self, *args)
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def leaf(self, name, fn, note=None):
        leaves = self.leaves

        def wrapper(*args, **kwargs):
            key = (self.stack[-1], name)
            nested = self.leaf_depth
            self.leaf_depth += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self.leaf_depth -= 1
                rec = leaves.get(key)
                if rec is None:
                    rec = leaves[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                if not nested:
                    rec[2] += dt
            if note is not None:
                note(self, out, *args)
            return out
        return wrapper

    def count(self, counter, amount):
        key = (self.current_op, counter)
        self.op_counts[key] = self.op_counts.get(key, 0) + amount

    def context(self, ctx):
        return TracedContext(ctx, self)


class TracedContext:
    """Forwards everything to ``ctx``; the algebra calls become leaves."""

    def __init__(self, ctx, tracer):
        self._ctx = ctx
        for m in CONTEXT_METHODS:
            if hasattr(ctx, m):
                setattr(self, m, tracer.leaf(f"ctx.{m}", getattr(ctx, m)))

    def __getattr__(self, attr):
        return getattr(self._ctx, attr)


def _note_compose(tracer, out, a, b):
    tracer.count("psido.compose.term_pairs", len(a.terms) * len(b.terms))


def _note_canonical(tracer, out, word):
    tracer.op_words.setdefault(tracer.current_op, set()).add(out)


def _note_solve(tracer, matrix, rhs):
    tracer.count("freetrace.solve_rational.cells",
                 len(matrix) * (len(matrix[0]) if matrix else 0))


NOTES = {"psido.compose": _note_compose,
         "words.canonicalize_cyclic": _note_canonical,
         "freetrace.solve_rational": _note_solve}


@contextmanager
def instrument(lib, tracer):
    """Replace the traced module attributes for the duration of the block."""
    saved = []
    try:
        for mod_name, attr, name in SPANS + LEAVES:
            mod = getattr(lib, mod_name)
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            wrap = tracer.spanned if (mod_name, attr, name) in SPANS else tracer.leaf
            setattr(mod, attr, wrap(name, fn, NOTES.get(name)))
        yield
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


def per_operation(tracer):
    """Per operation span: {name: value} of calls, times and counters.

    ``<span>.calls``, ``<span>.s`` (total) and ``<span>.self_s`` for spans;
    ``<leaf>.calls`` and ``<leaf>.s`` for leaves; plus ``algebra.s`` (all
    top-level leaf time) and the note counters.
    """
    spans = tracer.spans
    op_of = []
    child_s = [0.0] * len(spans)
    for idx, (name, start, end, parent) in enumerate(spans):
        op_of.append(idx if name == "operation" else (op_of[parent] if parent >= 0 else -1))
        if parent >= 0:
            child_s[parent] += end - start
    for (parent, _), (_, _, top) in tracer.leaves.items():
        if parent >= 0:
            child_s[parent] += top
    ops = {idx: {} for idx, s in enumerate(spans) if s[0] == "operation"}

    def add(op, key, v):
        if op in ops:
            ops[op][key] = ops[op].get(key, 0) + v

    for idx, (name, start, end, parent) in enumerate(spans):
        if name in ("workload", "operation"):
            continue
        op = op_of[idx]
        add(op, f"{name}.calls", 1)
        add(op, f"{name}.s", end - start)
        add(op, f"{name}.self_s", end - start - child_s[idx])
    for (parent, name), (calls, total, top) in tracer.leaves.items():
        op = op_of[parent] if parent >= 0 else -1
        add(op, f"{name}.calls", calls)
        add(op, f"{name}.s", total)
        add(op, "algebra.s", top)
    for (op, counter), v in tracer.op_counts.items():
        add(op, counter, v)
    for op, words in tracer.op_words.items():
        add(op, "words.distinct", len(words))
    return [ops[k] for k in sorted(ops)]


def span_dump(tracer):
    """JSON-ready spans (times relative to the first span) and leaf totals."""
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    return {
        "spans": [{"id": i, "name": n, "start": s - t0, "end": e - t0, "parent": p}
                  for i, (n, s, e, p) in enumerate(tracer.spans)],
        "leaves": [{"parent": p, "name": n, "calls": c, "total_s": t, "top_s": top}
                   for (p, n), (c, t, top) in sorted(tracer.leaves.items())],
    }

"""The four benchmark workloads: set-up, timed operation, correctness gates.

Inputs are generated the way the ``tracelift`` CLI generates them. Operation
``i`` of a numeric workload is exactly the CLI run ``tracelift verify ...
--trials 1 --seed S_i`` with ``S_i = (seed + i) % POOL``: its matrix context
comes from ``random.Random(f"{S_i}:ctx")`` with ``N = max(3, n)``, and its
arguments from the verifier's own seeded trial 0.  The report dictionaries
an operation returns are the ones the CLI prints.

The seed rotates a fixed pool of POOL CLI seeds rather than drawing new
ones.  The cost of a psido trial depends on how many monomials the sampled
symbols have (up to 10x between seeds), so runs drawing fresh inputs would
differ by their input mix rather than by the code; a psido operation covers
the whole pool.

The free-trace certificates take no random input, so ``free-certify`` runs
the same five certificates whatever the seed.
"""

from __future__ import annotations

import importlib
import math
import random
import sys
from fractions import Fraction
from types import SimpleNamespace

# Operation i of a run uses CLI seed (seed + i) % POOL; the POOL contexts
# are built during set-up.
POOL = 12

MODULES = ("cochains", "cohomology", "combinatorics", "context", "psido",
           "freetrace", "naive", "words")


def load_library():
    """Import tracelift afresh (dropping any earlier import) and return its
    modules, so that every set-up repetition pays the import cost."""
    for name in [m for m in sys.modules if m.split(".")[0] == "tracelift"]:
        del sys.modules[name]
    importlib.import_module("tracelift")
    return SimpleNamespace(**{
        m: importlib.import_module(f"tracelift.{m}") for m in MODULES
    })


def op_seed(seed: int, i: int) -> int:
    return (seed + i) % POOL


def alternation_terms(desc, diff_args: int | None = None) -> int:
    """words x arity! x n!, times C(arity+1, 2) for a differential."""
    terms = len(desc.words) * math.factorial(desc.arity) * math.factorial(desc.n)
    if diff_args is not None:
        terms *= math.comb(diff_args, 2)
    return terms


class SetupClock:
    """Accumulates set-up time spent building descriptors and contexts."""

    def __init__(self, perf_counter):
        self.now = perf_counter
        self.seconds = {"cochains.build": 0.0, "context.build": 0.0}

    def run(self, kind, fn, *args):
        t0 = self.now()
        out = fn(*args)
        self.seconds[kind] += self.now() - t0
        return out


def negative_control(lib, seed: int) -> dict:
    """Criterion 6's control: Psi_n1(2) without its Q words is not a
    cocycle, so at least one trial must leave a nonzero residual."""
    full = lib.cochains.build_Psi_n1(2)
    stripped = lib.cochains.CochainDescriptor(
        arity=full.arity, n=full.n,
        words=tuple(w for w in full.words if all(s[0] != "q" for s in w.slots)),
    )
    ctx = lib.context.random_matrix_context(random.Random(f"{seed}:ctx"), 2, 3)
    rep = lib.cohomology.verify_cocycle(stripped, ctx, 5, seed)
    nonzero = sum(1 for t in rep.trials if not t["zero"])
    return {"ok": nonzero > 0, "nonzero_trials": nonzero, "trials": 5}


class CocycleWorkload:
    """Numeric workloads: every operation verifies d(cochain) = 0 exactly."""

    backend = "matrix"

    def descriptors(self, lib):
        """(descriptor of the timed operation, [(label, oracle descriptor)])."""
        raise NotImplementedError

    def make_contexts(self, lib, seeds):
        n = self.n
        return [lib.context.random_matrix_context(random.Random(f"{s}:ctx"), n, max(3, n))
                for s in seeds]

    def setup(self, lib, seed: int, clock: SetupClock):
        st = SimpleNamespace(lib=lib, seed=seed)
        st.desc, st.oracle_descs = clock.run("cochains.build", self.descriptors, lib)
        st.seeds = [op_seed(seed, i) for i in range(POOL)]
        st.ctxs = clock.run("context.build", self.make_contexts, lib, st.seeds)
        st.terms = clock.run("cochains.build", self.terms_per_op, lib, st.desc)
        return st

    def terms_per_op(self, lib, desc) -> int:
        return alternation_terms(desc, desc.arity + 1)

    def gates(self, st) -> dict:
        """Oracle agreement and the negative control.

        The value at a trial's first ``arity`` arguments must equal
        ``naive.naive_evaluate``.  Trials of the pool are taken in run order
        until one has a nonzero reference value, since psido values often
        vanish and 0 = 0 would not catch an evaluator that returns 0.
        """
        lib = st.lib
        out = {}
        for label, desc in st.oracle_descs:
            gate = {"ok": False, "trials": 0}
            for j, s in enumerate(st.seeds):
                ctx = st.ctxs[j % len(st.ctxs)]
                # the verifier's trial 0 draws its arguments from "{seed}:0"
                args = lib.cohomology.sample_args(ctx, desc.arity, random.Random(f"{s}:0"))
                fast = lib.cochains.evaluate(desc, ctx, args)
                ref = lib.naive.naive_evaluate(desc, ctx, args)
                gate["trials"] = j + 1
                if fast != ref:
                    gate["mismatch_seed"] = s
                    break
                if ref != 0:
                    ref = Fraction(ref)
                    gate.update(ok=True, seed=s, value=[ref.numerator, ref.denominator])
                    break
            out[f"oracle:{label}"] = gate
        out["negative_control"] = negative_control(lib, st.seed)
        return out

    def context_for(self, st, i: int, wrap):
        return wrap(st.ctxs[i % len(st.ctxs)])


class MatrixInterval(CocycleWorkload):
    name = "matrix-interval"
    n = 4

    def descriptors(self, lib):
        d = lib.cochains.build_Psi_n1(self.n)
        return d, [(f"Psi_n1({self.n})", d)]

    def op(self, st, i, wrap):
        rep = st.lib.cohomology.verify_cocycle(
            st.desc, self.context_for(st, i, wrap), 1, st.seeds[i % POOL],
            check="psi_n1_cocycle", params={"n": self.n})
        return rep.passed, [rep]

    def replay(self, seed):
        return [f"tracelift verify thm21 --n {self.n} --trials 1 --seed {op_seed(seed, 0)}"]


class PsidoInterval(MatrixInterval):
    """One operation is a pass over the whole seed pool: per-trial cost
    varies up to 10x with the sampled symbols, so a pass keeps the work of
    an operation the same whatever the seed."""

    name = "psido-interval"
    backend = "psido"
    n = 2
    window = 12

    def make_contexts(self, lib, seeds):
        # the symbol context does not depend on the seed
        return [lib.psido.make_psido_context(self.n // 2, depth=self.window)]

    def terms_per_op(self, lib, desc):
        return POOL * super().terms_per_op(lib, desc)

    def op(self, st, i, wrap):
        ok, reports = True, []
        for j in range(POOL):
            trial_ok, reps = super().op(st, i + j, wrap)
            ok = ok and trial_ok
            reports += reps
        return ok, reports

    def replay(self, seed):
        return [f"tracelift verify thm21 --backend psido --n {self.n} "
                f"--window {self.window} --trials 1 --seed {op_seed(seed, j)}"
                for j in range(POOL)]


class MatrixCircle(CocycleWorkload):
    """One operation is a Psi_nl(2,2) trial plus an inner-split trial."""

    name = "matrix-circle"
    n, l = 2, 2

    def descriptors(self, lib):
        c = lib.cochains
        d = c.build_Psi_nl(self.n, self.l)
        return d, [(f"Psi_nl({self.n},{self.l})", d),
                   (f"Psi0({self.n},{self.l})", c.build_Psi0(self.n, self.l))]

    def terms_per_op(self, lib, desc):
        c = lib.cochains
        psi0 = c.build_Psi0(self.n, self.l)
        inner = c.expand_inner(psi0)
        tilde, rem = c.split_adjacency(inner)
        # verify_inner_tilde_cocycle differentiates these four cochains
        split = sum(alternation_terms(x, psi0.arity + 1)
                    for x in (tilde, rem, inner, psi0))
        return alternation_terms(desc, desc.arity + 1) + split

    def op(self, st, i, wrap):
        ctx = self.context_for(st, i, wrap)
        s = st.seeds[i % POOL]
        coh = st.lib.cohomology
        r1 = coh.verify_cocycle(st.desc, ctx, 1, s, check="psi_nl_cocycle",
                                params={"n": self.n, "l": self.l})
        r2 = coh.verify_inner_tilde_cocycle(self.n, self.l, ctx, trials=1, seed=s)
        return r1.passed and r2.passed, [r1, r2]

    def replay(self, seed):
        s = op_seed(seed, 0)
        return [f"tracelift verify thm23 --n {self.n} --l {self.l} --trials 1 --seed {s}",
                f"tracelift verify key-lemma --n {self.n} --l {self.l} --trials 1 --seed {s}"]


class FreeCertify:
    """Symbolic certificates in the free trace algebra; no algebra products."""

    name = "free-certify"
    backend = "free"
    LEIBNIZ = ((2, 2), (3, 1), (1, 3))
    SPAN = ((2, 1), (1, 2))

    def setup(self, lib, seed, clock):
        st = SimpleNamespace(lib=lib, seed=seed)
        c = lib.cochains
        st.span_descs = clock.run(
            "cochains.build",
            lambda: [(n, l, c.build_Psi0(n, l)) for n, l in self.SPAN])
        st.terms = clock.run("cochains.build", self.terms_per_op, lib, st.span_descs)
        return st

    def terms_per_op(self, lib, span_descs):
        c = lib.cochains
        terms = 0
        for n, l in self.LEIBNIZ:
            # certify_leibniz_sum_identity expands every wrapped S_tilde(a)
            # and the even sum S_even(n, l)
            descs = [c.build_S_tilde(a) for a in lib.combinatorics.enumerate_a_even(n, l)]
            descs.append(c.build_S_even(n, l))
            terms += sum(alternation_terms(d) for d in descs)
        terms += sum(alternation_terms(d, d.arity + 1) for _, _, d in span_descs)
        return terms

    @staticmethod
    def span_basis(ft, desc):
        return [g for k in range(desc.n + 1)
                for g in ft.relation_basis(desc.arity + 1, desc.n, k)]

    def op(self, st, i, wrap):
        ft = st.lib.freetrace
        ok = True
        reports = []
        for n, l in self.LEIBNIZ:
            res = ft.certify_leibniz_sum_identity(n, l)
            # criterion 3's factor n + l (identity_holds) is documented as
            # not holding; the observed factor is n + 2l
            ok = ok and (res["proportional"]
                         and res["observed_factor"] == [n + 2 * l, 1]
                         and res["second_order_cancelled"])
            reports.append({"check": "leibniz_sum_identity", "params": res,
                            "trials": [],
                            "pass": res["identity_holds"] and res["second_order_cancelled"]})
        for n, l, desc in st.span_descs:
            expr = ft.symbolic_differential(desc)
            basis = self.span_basis(ft, desc)
            in_span, coeffs = ft.certify_in_relation_span(expr, basis)
            ok = ok and in_span and bool(expr)
            reports.append({
                "check": "relation_span", "params": {"n": n, "l": l},
                "words": len(expr), "generators": len(basis),
                "certificate": [[c.numerator, c.denominator] for c in coeffs or []],
                "pass": in_span,
            })
        return ok, reports

    def gates(self, st):
        """Negative control: perturbing one word of d(Psi0(2,1)) must take
        it out of the relation span."""
        ft = st.lib.freetrace
        _, _, desc = st.span_descs[0]
        expr = dict(ft.symbolic_differential(desc))
        if not expr:
            return {"negative_control": {"ok": False, "reason": "empty differential"}}
        first = min(expr)
        expr[first] += 1
        in_span, _ = ft.certify_in_relation_span(expr, self.span_basis(ft, desc))
        return {"negative_control": {"ok": not in_span, "perturbed_word": repr(first)}}

    def replay(self, seed):
        return [f"tracelift verify lemma111 --n {n} --l {l}" for n, l in self.LEIBNIZ] + [
            f"(library only) certify_in_relation_span(symbolic_differential("
            f"build_Psi0({n}, {l})), relation_basis(...))" for n, l in self.SPAN]


WORKLOADS = {w.name: w for w in (MatrixInterval(), MatrixCircle(),
                                  PsidoInterval(), FreeCertify())}

"""Exact truncated symbol calculus for formal pseudodifferential operators
on the n-torus.

A symbol is a finite set of monomials x^a d^b (a, b integer exponent
vectors, d the derivative) with rational coefficients, normal ordered (all
d-powers to the right).  Truncation is tracked by an explicit validity
window: per-variable lower bounds on d-exponents below which coefficients
are not claimed, plus per-variable upper bounds valid for the whole
operator.  Every operation computes the window of its result so that each
reported coefficient is exact; a coefficient is exact or unavailable,
never approximate.

The trace is the noncommutative residue (coefficient of x^-1 d^-1 in every
variable); the outer derivations are the adjoint actions of ln x_i and
ln d_i, realized as exact series truncated to the window.

Coefficients are stored as ``Fraction``s, but products and log derivations
compute with integers: each operand is scaled once to integer numerators
over the lcm of its denominators, the per-variable reordering and series
coefficients come from cached integer tables, contributions are summed as
integers per output term, and each surviving term builds one ``Fraction``.
Sums and scalings touch only the coefficients they change.  A result's
keys come out unique and inside its window, so none of these re-normalize
through ``PsiDOSymbol.make``.

The alternation kernel reads only residues, so its sums of products
(``compose_sum`` with a demand floor ``rest``) skip every coefficient that
the remaining factors, of orders summing to at most ``rest``, cannot carry
to d^-1; such a partial symbol never leaves the kernel.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .cohomology import VerificationReport, residual_entry, run_trials
from .context import InsufficientWindowError


def _falling(c: int, k: int) -> int:
    out = 1
    for t in range(k):
        out *= c - t
    return out


def _gbinom(b: int, k: int) -> int:
    """C(b, k) for any integer b; k! divides every product of k consecutive
    integers, so this is an integer."""
    return _falling(b, k) // math.factorial(k)


def _nonzero_prefix(values) -> tuple:
    """The values before the first zero.  C(b, k) vanishes exactly when
    0 <= b < k and c^(k) exactly when 0 <= c < k, so once a coefficient
    below is zero every later one is too."""
    out = []
    for v in values:
        if not v:
            break
        out.append(v)
    return tuple(out)


@functools.lru_cache(maxsize=1 << 14)
def _shift_coeffs(b: int, c: int, kmax: int) -> tuple:
    """C(b, k) c^(k) for k = 0, 1, .. up to kmax, ending before the first
    zero: the terms of d^b x^c = sum_k C(b, k) c^(k) x^(c-k) d^(b-k) in one
    variable, indexed by k."""
    return _nonzero_prefix(_gbinom(b, k) * _falling(c, k) for k in range(kmax + 1))


@functools.lru_cache(maxsize=1 << 14)
def _log_coeffs(e: int, kmax: int, top: int) -> tuple:
    """(-1)^(k-1) e^(k) lcm(1..top) / k for k = 1, 2, .. up to kmax, ending
    before the first zero: the adjoint-log series coefficients over the
    common denominator lcm(1..top), indexed by k - 1."""
    den = math.lcm(*range(1, top + 1))
    return _nonzero_prefix(
        (-1) ** (k - 1) * (den // k) * _falling(e, k) for k in range(1, kmax + 1)
    )


@dataclass(frozen=True)
class PsiDOSymbol:
    nvars: int
    terms: tuple  # sorted tuple of ((xexp, dexp), Fraction)
    dmin: tuple   # exactness lower bounds on d-exponents, per variable
    dtop: tuple   # global upper bounds on d-exponents, per variable

    @staticmethod
    def make(nvars, terms, dmin, dtop=None):
        """Normalize: drop zero coefficients and terms below the window."""
        kept = {}
        for (x, d), c in (terms.items() if isinstance(terms, dict) else terms):
            if c == 0:
                continue
            if any(d[i] < dmin[i] for i in range(nvars)):
                continue
            key = (tuple(x), tuple(d))
            c2 = kept.get(key, 0) + c
            if c2 == 0:
                kept.pop(key, None)
            else:
                kept[key] = c2
        if dtop is None:
            if kept:
                dtop = tuple(
                    max(d[i] for (_, d) in kept) for i in range(nvars)
                )
            else:
                dtop = tuple(dmin)
        return PsiDOSymbol(
            nvars=nvars,
            terms=tuple(sorted(kept.items())),
            dmin=tuple(dmin),
            dtop=tuple(dtop),
        )

    def coeff(self, xexp, dexp) -> Fraction:
        if any(dexp[i] < self.dmin[i] for i in range(self.nvars)):
            raise InsufficientWindowError(
                f"d-exponent {dexp} below window {self.dmin}"
            )
        key = (tuple(xexp), tuple(dexp))
        for k, c in self.terms:
            if k == key:
                return c
        return Fraction(0)

    def is_zero_on_window(self) -> bool:
        return not self.terms


def laurent_symbol(nvars: int, entries, depth: int) -> PsiDOSymbol:
    """Fully known finite symbol: entries {(xexp, dexp): coeff}; the window
    is set to the working depth (coefficients below it are discarded and no
    longer claimed)."""
    dmin = tuple(-depth for _ in range(nvars))
    return PsiDOSymbol.make(nvars, dict(entries), dmin)


def monomial(nvars: int, xexp, dexp, coeff=1, depth: int = 16) -> PsiDOSymbol:
    return laurent_symbol(nvars, {(tuple(xexp), tuple(dexp)): Fraction(coeff)}, depth)


def zero_symbol(nvars: int, depth: int = 16) -> PsiDOSymbol:
    return laurent_symbol(nvars, {}, depth)


# ---------------------------------------------------------------------------
# ring operations
# ---------------------------------------------------------------------------

def _integer_terms(a: PsiDOSymbol):
    """a's coefficients as integer numerators over the lcm of their
    denominators: (den, [(key, numerator), ...])."""
    den = math.lcm(*(c.denominator for _, c in a.terms))
    return den, [(key, c.numerator * (den // c.denominator)) for key, c in a.terms]


def _from_integers(nvars, acc: dict, den: int, dmin, dtop) -> PsiDOSymbol:
    """Symbol from integer numerators over ``den`` whose keys are unique and
    inside the window, as ``compose`` and ``apply_log_derivation`` produce
    them; zero sums are dropped and each surviving term builds one Fraction."""
    return PsiDOSymbol(
        nvars=nvars,
        terms=tuple((key, Fraction(v, den)) for key, v in sorted(acc.items()) if v),
        dmin=tuple(dmin),
        dtop=tuple(dtop),
    )


def _merge(a: PsiDOSymbol, b: PsiDOSymbol, sign: int) -> PsiDOSymbol:
    """a + sign * b on the shallower of the two windows."""
    _check_compat(a, b)
    dmin = tuple(max(x, y) for x, y in zip(a.dmin, b.dmin))
    dtop = tuple(max(x, y) for x, y in zip(a.dtop, b.dtop))
    terms = dict(a.terms)
    for k, c in b.terms:
        t = terms.get(k)
        if t is None:
            terms[k] = c if sign > 0 else -c
        else:
            t = t + c if sign > 0 else t - c
            if t:
                terms[k] = t
            else:
                del terms[k]
    if dmin != a.dmin or dmin != b.dmin:
        terms = {k: c for k, c in terms.items()
                 if all(e >= m for e, m in zip(k[1], dmin))}
    return PsiDOSymbol(a.nvars, tuple(sorted(terms.items())), dmin, dtop)


def sym_add(a: PsiDOSymbol, b: PsiDOSymbol) -> PsiDOSymbol:
    return _merge(a, b, 1)


def sym_sub(a: PsiDOSymbol, b: PsiDOSymbol) -> PsiDOSymbol:
    return _merge(a, b, -1)


def sym_scale(c, a: PsiDOSymbol) -> PsiDOSymbol:
    terms = tuple((k, c * v) for k, v in a.terms) if c else ()
    return PsiDOSymbol(a.nvars, terms, a.dmin, a.dtop)


def _check_compat(a, b):
    if a.nvars != b.nvars:
        raise ValueError("variable count mismatch")


def _product_window(a: PsiDOSymbol, b: PsiDOSymbol) -> tuple:
    return tuple(
        max(a.dmin[i] + b.dtop[i], b.dmin[i] + a.dtop[i]) for i in range(a.nvars)
    )


def compose(a: PsiDOSymbol, b: PsiDOSymbol) -> PsiDOSymbol:
    """Normal-ordered operator product: the one-term ``compose_sum``."""
    return compose_sum([(False, a, b)])


def compose_sum(terms, rest=None) -> PsiDOSymbol:
    """Sum of the normal-ordered products a * b, each negated where asked,
    over at least one (negate, a, b) term.

    Per variable, d^b x^c = sum_k C(b,k) c^(k) x^{c-k} d^{b-k}.  The sum's
    window is the shallowest of the products' windows, each of which
    shrinks by the top order of the other operand on each side: this is
    the window and the value the sequential fold of ``compose``,
    ``sym_add`` and ``sym_sub`` gives.  Terms that share their right
    operand (the alternation kernel's folded first-slot sums) first sum
    their left operands, so each such product is formed once.  Everything
    is summed as integers over the lcm of the products' common
    denominators, and each output term builds one ``Fraction``.

    ``rest``, per variable, is the most the d-order can still grow through
    the factors that will multiply the sum from the right before its
    residue is read.  A product of two terms has d-exponents at most the
    sum of theirs, so a term below d-exponent -1 - rest cannot reach
    x^-1 d^-1.  The k-sum is therefore cut at the larger of the window and
    -1 - rest, and the result holds fewer coefficients than its window
    (``dmin`` and ``dtop``, unchanged) claims: it is fit only to be
    multiplied by factors whose orders sum to at most ``rest``, and traced.
    Pairs of terms whose d-orders sum below the cut in some variable
    contribute nothing and are skipped, as are left terms below the cut
    minus the right operand's top order; without ``rest`` the cut is the
    window, and the skipped pairs are the same ones the k-sum leaves empty.
    """
    first = terms[0][1]
    nv = first.nvars
    for _, a, b in terms:
        _check_compat(first, a)
        _check_compat(first, b)
    windows = [_product_window(a, b) for _, a, b in terms]
    dmin = tuple(max(w[i] for w in windows) for i in range(nv))
    dtop = tuple(max(a.dtop[i] + b.dtop[i] for _, a, b in terms) for i in range(nv))
    cut = dmin if rest is None else tuple(max(m, -1 - r) for m, r in zip(dmin, rest))
    lefts: dict = {}
    for neg, a, b in terms:
        lefts.setdefault(id(b), (b, []))[1].append((neg, _integer_terms(a)))
    products = []  # (den, left numerators, right numerators)
    for b, signed in lefts.values():
        if not b.terms:
            continue
        den_l = math.lcm(*(den for _, (den, _) in signed))
        left: dict = {}
        for neg, (den, ta) in signed:
            m = -(den_l // den) if neg else den_l // den
            for key, c in ta:
                left[key] = left.get(key, 0) + m * c
        den_b, tb = _integer_terms(b)
        floor = [c - max(bd[i] for (_, bd), _ in tb) for i, c in enumerate(cut)]
        ta = [t for t in left.items()
              if t[1] and all(e >= f for e, f in zip(t[0][1], floor))]
        products.append((den_l * den_b, ta, tb))
    den = math.lcm(*(d for d, _, _ in products))
    out: dict = {}
    get = out.get
    for d, ta, tb in products:
        m = den // d
        for (ax, ad), ca in ta:
            ca *= m
            for (bx, bd), cb in tb:
                # the d-order of the pair, less the cut: what k can reach
                reach = [x + y - c for x, y, c in zip(ad, bd, cut)]
                if min(reach) < 0:
                    continue
                # (x-exponents, d-exponents, coefficient) after each variable
                parts = [((), (), ca * cb)]
                for i in range(nv):
                    sx, sd = ax[i] + bx[i], ad[i] + bd[i]
                    opts = _shift_coeffs(ad[i], bx[i], reach[i])
                    parts = [(xs + (sx - k,), ds + (sd - k,), c * ck)
                             for xs, ds, c in parts for k, ck in enumerate(opts)]
                for xs, ds, c in parts:
                    key = (xs, ds)
                    out[key] = get(key, 0) + c
    return _from_integers(nv, out, den, dmin, dtop)


def residue_trace(a: PsiDOSymbol) -> Fraction:
    """Coefficient of x^-1 d^-1 in every variable; exact, else a fault."""
    mono = tuple(-1 for _ in range(a.nvars))
    return a.coeff(mono, mono)


def residue_trace_compose(a: PsiDOSymbol, b: PsiDOSymbol) -> Fraction:
    """``residue_trace(compose(a, b))`` without the other coefficients.

    Per variable only k = ad + bd + 1 reaches d^-1, and the term reaches
    x^-1 only when ax + bx = ad + bd.  The window is the one ``compose``
    gives, so this raises exactly when the composed residue would.
    """
    _check_compat(a, b)
    nv = a.nvars
    dmin = _product_window(a, b)
    mono = tuple(-1 for _ in range(nv))
    if any(m > -1 for m in dmin):
        raise InsufficientWindowError(f"d-exponent {mono} below window {dmin}")
    den_a, ta = _integer_terms(a)
    den_b, tb = _integer_terms(b)
    total = 0
    for (ax, ad), ca in ta:
        for (bx, bd), cb in tb:
            coef = ca * cb
            for i in range(nv):
                k = ad[i] + bd[i] + 1
                if k < 0 or ax[i] + bx[i] != k - 1:
                    coef = 0
                    break
                coef *= _gbinom(ad[i], k) * _falling(bx[i], k)
            total += coef
    return Fraction(total, den_a * den_b)


# ---------------------------------------------------------------------------
# log derivations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LogDerivationTag:
    kind: str  # "ln_x" or "ln_partial"
    var: int   # 0-based variable index


def apply_log_derivation(tag: LogDerivationTag, a: PsiDOSymbol) -> PsiDOSymbol:
    """Adjoint action of ln x_v or ln d_v, exact on the (deepened) window.

    Both actions shift (xexp, dexp) by (-k, -k) in the tagged variable, with
    coefficient c_k x^(k) (ln d) or -c_k d^(k) (ln x) of the series
    c_k = (-1)^(k-1) / k; the window gains one unit of depth since every
    contribution has k >= 1.  Sums are integers over the common
    denominator of the input and of c_1 .. c_kmax.
    """
    if tag.kind not in ("ln_partial", "ln_x"):
        raise ValueError(f"unknown derivation kind {tag.kind!r}")
    on_x = tag.kind == "ln_partial"
    v = tag.var
    nv = a.nvars
    dmin = tuple(m - (1 if i == v else 0) for i, m in enumerate(a.dmin))
    dtop = tuple(t - (1 if i == v else 0) for i, t in enumerate(a.dtop))
    den_a, ta = _integer_terms(a)
    top = max((d[v] - dmin[v] for (_, d), _ in ta), default=1)
    out: dict = {}
    get = out.get
    for (x, d), c in ta:
        if not on_x:
            c = -c
        coeffs = _log_coeffs(x[v] if on_x else d[v], d[v] - dmin[v], top)
        for k, coef in enumerate(coeffs, 1):
            key = (x[:v] + (x[v] - k,) + x[v + 1:], d[:v] + (d[v] - k,) + d[v + 1:])
            out[key] = get(key, 0) + c * coef
    return _from_integers(nv, out, den_a * math.lcm(*range(1, top + 1)), dmin, dtop)


def bracket_series_symbol(nvars: int, var: int, cutoff: int, depth: int) -> PsiDOSymbol:
    """Truncation of the commutator series: sum_m ((m-1)!/m) x^-m d^-m in
    the given variable, exact down to exponent -cutoff."""
    terms = {}
    for m in range(1, cutoff + 1):
        x = tuple(-m if i == var else 0 for i in range(nvars))
        terms[(x, x)] = Fraction(math.factorial(m - 1), m)
    dmin = tuple(-cutoff if i == var else -depth for i in range(nvars))
    dtop = tuple(-1 if i == var else 0 for i in range(nvars))
    return PsiDOSymbol.make(nvars, terms, dmin, dtop)


# ---------------------------------------------------------------------------
# context
# ---------------------------------------------------------------------------

class PsiDOContext:
    """Traced-algebra context over symbols with the 2n log derivations.

    Derivations are ordered (ln x_1 .. ln x_n, ln d_1 .. ln d_n); Q is the
    truncated commutator series between ln d_i and ln x_i (zero between
    disjoint variables and between two derivations of the same kind).
    """

    backend = "psido"

    def __init__(self, nvars: int, depth: int = 16, q_cutoff: int | None = None):
        if depth < 0:
            raise ValueError("window depth >= 0 required")
        self.nvars = nvars
        self.n = 2 * nvars
        self.depth = depth
        self.q_cutoff = q_cutoff if q_cutoff is not None else depth
        self._zero = zero_symbol(nvars, depth)
        self._tags = [LogDerivationTag("ln_x", v) for v in range(nvars)] + [
            LogDerivationTag("ln_partial", v) for v in range(nvars)
        ]

    def mul(self, a, b):
        return compose(a, b)

    def mul_sum(self, terms, rest=None):
        return compose_sum(terms, rest)

    def operand(self, b):
        return b

    def order(self, a):
        return a.dtop

    def add(self, a, b):
        return sym_add(a, b)

    def sub(self, a, b):
        return sym_sub(a, b)

    def scale(self, c, a):
        return sym_scale(c, a)

    def bracket(self, a, b):
        return sym_sub(compose(a, b), compose(b, a))

    def trace(self, a):
        return residue_trace(a)

    def trace_mul(self, a, b):
        return residue_trace_compose(a, b)

    def elem_is_zero(self, a) -> bool:
        return a.is_zero_on_window()

    def deriv(self, d: int, a):
        return apply_log_derivation(self._tags[d], a)

    def q(self, i: int, j: int):
        nv = self.nvars
        if i == j:
            return self._zero
        lo, hi, sign = (i, j, 1) if i < j else (j, i, -1)
        # nonzero only for the (ln x_v, ln d_v) pair of one variable
        if lo < nv <= hi and hi - nv == lo:
            t = bracket_series_symbol(nv, lo, self.q_cutoff, self.depth)
            return sym_scale(-sign, t)
        return self._zero

    def is_commuting(self) -> bool:
        return all(self.q(i, j).is_zero_on_window()
                   for i in range(self.n) for j in range(i + 1, self.n))

    def sample(self, rng):
        """Random finite symbol: few monomials with small exponents and
        integer coefficients in [-3, 3]."""
        nv = self.nvars
        terms = {}
        for _ in range(rng.randint(2, 3)):
            x = tuple(rng.randint(-1, 2) for _ in range(nv))
            d = tuple(rng.randint(-1, 1) for _ in range(nv))
            c = rng.randint(-3, 3)
            if c:
                terms[(x, d)] = terms.get((x, d), 0) + Fraction(c)
        return laurent_symbol(nv, terms, self.depth)


def make_psido_context(nvars: int, depth: int = 16, q_cutoff: int | None = None) -> PsiDOContext:
    return PsiDOContext(nvars, depth, q_cutoff)


# ---------------------------------------------------------------------------
# series verification
# ---------------------------------------------------------------------------

def bracket_series_check(cutoff: int, depth: int | None = None, trials: int = 5,
                         seed: int = 0) -> VerificationReport:
    """Verify exactly (within windows) that the commutator of the two log
    derivations is the adjoint of the truncated series, on random symbols.

    The series coefficients up to the cutoff are recorded in the report
    parameters.
    """
    if cutoff < 1:
        raise ValueError("cutoff >= 1 required")
    if depth is None:
        depth = cutoff + 8
    ctx = make_psido_context(1, depth=depth, q_cutoff=cutoff)
    tee = bracket_series_symbol(1, 0, cutoff, depth)
    lnx = LogDerivationTag("ln_x", 0)
    lnp = LogDerivationTag("ln_partial", 0)

    def entries(rngs):
        for t, rng in rngs():
            a = ctx.sample(rng)
            lhs = sym_sub(
                apply_log_derivation(lnp, apply_log_derivation(lnx, a)),
                apply_log_derivation(lnx, apply_log_derivation(lnp, a)),
            )
            rhs = sym_sub(compose(tee, a), compose(a, tee))
            diff = sym_sub(lhs, rhs)
            if any(m > -1 for m in diff.dmin):
                raise InsufficientWindowError(
                    f"window {diff.dmin} too shallow for cutoff {cutoff}"
                )
            yield residual_entry(t, diff.terms[0][1] if diff.terms else 0), 0

    params = {
        "cutoff": cutoff,
        "depth": depth,
        "trials": trials,
        "seed": seed,
        "coefficients": [
            [Fraction(math.factorial(m - 1), m).numerator,
             Fraction(math.factorial(m - 1), m).denominator]
            for m in range(1, cutoff + 1)
        ],
    }
    return run_trials("bracket_series", params, trials, seed, entries)

import random

import pytest

from tracelift import cohomology
from tracelift.cochains import build_Psi0, build_Psi_n1, build_Psi_nl, build_Sigma_interval
from tracelift.cohomology import (
    ce_differential,
    check_axioms,
    sample_args,
    verify_cocycle,
    verify_even_sum_vanishes,
    verify_inner_tilde_cocycle,
    verify_oracle_agreement,
    verify_shortening_sign,
)
from tracelift.context import random_matrix_context
from tracelift.psido import bracket_series_check, make_psido_context


def ctx_for(n, seed=3, commuting=False, N=3):
    return random_matrix_context(random.Random(seed), n, N, commuting=commuting)


def test_axioms_matrix_contexts():
    for seed in range(5):
        rep = check_axioms(ctx_for(3, seed=seed), trials=2, seed=seed)
        assert rep.passed


def test_even_sum_vanishes_commuting():
    rep = verify_even_sum_vanishes(2, 1, ctx_for(2, commuting=True), trials=5, seed=1)
    assert rep.passed


def test_even_sum_inapplicable_without_commuting():
    # the psido log derivations ln x and ln d do not commute either
    for ctx in (ctx_for(2), make_psido_context(1, depth=12)):
        assert not ctx.is_commuting()
        rep = verify_even_sum_vanishes(2, 1, ctx, trials=2, seed=1)
        assert not rep.passed
        assert "inapplicable" in rep.params


def test_even_sum_negative_control():
    rep = verify_even_sum_vanishes(
        2, 1, ctx_for(2), trials=5, seed=1, require_commuting=False
    )
    assert not rep.passed


def test_shortening_sign_pinned_on_noncommuting_context():
    rep = verify_shortening_sign(2, 1, ctx_for(2, seed=7), trials=3, seed=42)
    assert rep.passed
    signs = rep.params["signs"]
    assert signs["1001"]["matched"] == signs["1001"]["expected"] == 1
    assert signs["1100"]["matched"] == signs["1100"]["expected"] == -1


def test_shortening_sign_fails_when_the_differential_vanishes(monkeypatch):
    # d(R_a) = 0 against a nonzero S_a matches neither sign
    monkeypatch.setattr(cohomology, "ce_differential", lambda *args: 0)
    rep = verify_shortening_sign(2, 1, ctx_for(2, seed=7), trials=3, seed=42)
    assert not rep.passed


def test_shortening_sign_degenerate_on_commuting_context():
    rep = verify_shortening_sign(2, 1, ctx_for(2, commuting=True), trials=3, seed=42)
    assert rep.passed
    assert all(v["matched"] is None for v in rep.params["signs"].values())


def test_shortening_sign_2_2():
    rep = verify_shortening_sign(2, 2, ctx_for(2, seed=7), trials=2, seed=42)
    assert rep.passed
    for v in rep.params["signs"].values():
        assert v["matched"] == v["expected"]


def test_psi0_cocycle_commuting():
    rep = verify_cocycle(build_Psi0(2, 1), ctx_for(2, commuting=True), 5, 0)
    assert rep.passed


def test_psi0_not_cocycle_noncommuting():
    rep = verify_cocycle(build_Psi0(2, 1), ctx_for(2), 5, 0)
    assert not rep.passed


def test_psi_n1_cocycle_noncommuting():
    rep = verify_cocycle(build_Psi_n1(2), ctx_for(2), 5, 0)
    assert rep.passed


def test_psi_n1_corrections_matter():
    ctx = ctx_for(2)
    lead_only = build_Psi_n1(2)
    stripped = type(lead_only)(
        arity=lead_only.arity, n=lead_only.n, words=lead_only.words[:1]
    )
    rep = verify_cocycle(stripped, ctx, 5, 0)
    assert not rep.passed


def test_psi_nl_cocycle_2_2():
    rep = verify_cocycle(build_Psi_nl(2, 2), ctx_for(2), 2, 0)
    assert rep.passed


def test_inner_tilde_cocycle():
    rep = verify_inner_tilde_cocycle(2, 1, ctx_for(2), trials=3, seed=0)
    assert rep.passed
    assert rep.params["expanded_words"] == 8


def test_oracle_agreement_small():
    rep = verify_oracle_agreement(2, 1, ctx_for(2), trials=3, seed=0)
    assert rep.passed


def test_differential_arity_check():
    ctx = ctx_for(2)
    desc = build_Psi0(2, 1)
    args = sample_args(ctx, 3, random.Random(0))
    with pytest.raises(ValueError):
        ce_differential(desc, ctx, args)


def test_report_dict_is_timing_free_by_default():
    rep = verify_cocycle(build_Psi0(2, 1), ctx_for(2, commuting=True), 2, 0)
    d = rep.to_dict()
    assert "ms" not in d
    assert "ms" in rep.to_dict(include_timing=True)


def test_reports_are_deterministic():
    a = verify_cocycle(build_Psi0(2, 1), ctx_for(2, commuting=True), 3, 5).to_dict()
    b = verify_cocycle(build_Psi0(2, 1), ctx_for(2, commuting=True), 3, 5).to_dict()
    assert a == b


@pytest.mark.parametrize("run", [
    lambda ctx: verify_cocycle(build_Psi_n1(2), ctx, trials=0, seed=0),
    lambda ctx: check_axioms(ctx, trials=0, seed=0),
    lambda ctx: verify_even_sum_vanishes(2, 1, ctx, trials=0, seed=0),
    lambda ctx: verify_shortening_sign(2, 1, ctx, trials=0, seed=0),
    lambda ctx: verify_inner_tilde_cocycle(2, 1, ctx, trials=0, seed=0),
    lambda ctx: verify_oracle_agreement(2, 1, ctx, trials=0, seed=0),
    lambda ctx: bracket_series_check(cutoff=2, trials=0),
], ids=["cocycle", "axioms", "even-sum", "shortening", "inner-tilde", "oracle",
        "bracket-series"])
def test_checks_refuse_zero_trials(run):
    """With no trials every check would report a vacuous pass."""
    with pytest.raises(ValueError, match="trials >= 1 required"):
        run(ctx_for(2, commuting=True))

"""Exact construction and verification of lifted trace cocycles."""

from .cochains import (
    CochainDescriptor,
    ExpandedCochain,
    ExpandedWord,
    TermWord,
    build_O_circle,
    build_O_interval,
    build_Psi0,
    build_Psi_n1,
    build_Psi_nl,
    build_R,
    build_S,
    build_S_even,
    build_S_tilde,
    build_Sigma_interval,
    descriptor_from_dict,
    descriptor_to_dict,
    evaluate,
    expand_inner,
    split_adjacency,
)
from .cohomology import (
    VerificationReport,
    ce_differential,
    check_axioms,
    verify_cocycle,
    verify_even_sum_vanishes,
    verify_inner_tilde_cocycle,
    verify_oracle_agreement,
    verify_shortening_sign,
)
from .combinatorics import (
    EvenSequence,
    MarkedCircle,
    MarkedInterval,
    ReducedSequence,
    derivation_assignment,
    enumerate_a_even,
    enumerate_circles,
    enumerate_intervals,
    reduce_sequence,
)
from .context import MatrixContext, random_matrix_context
from .freetrace import (
    certify_in_relation_span,
    certify_leibniz_sum_identity,
    free_trace_combine,
    relation_basis,
    symbolic_differential,
    symbolic_expand,
)
from .psido import (
    InsufficientWindowError,
    LogDerivationTag,
    PsiDOContext,
    PsiDOSymbol,
    apply_log_derivation,
    bracket_series_check,
    compose,
    laurent_symbol,
    make_psido_context,
    monomial,
    residue_trace,
)
from .words import canonicalize_cyclic

__all__ = [name for name in dir() if not name.startswith("_")]

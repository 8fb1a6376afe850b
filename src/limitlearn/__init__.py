"""Learning in the limit over eventually periodic binary words.

Equivalence relations on the Cantor space, cut down to the eventually
periodic fragment where every question has an exact answer: two-level
formula codes, oracle deciders, learners synthesized from codes, session
simulation with convergence certificates, and adversaries that defeat
learners and falsify candidate codes.
"""

from .adversary import (
    AdversaryRun,
    Condition,
    EXHAUSTED,
    MembershipRun,
    bc_class_membership_procedure,
    candidate_codes,
    diagonalize_inf,
    enumerate_words,
    falsify_inf_classifier,
    force_mind_change,
    inf_family_informant,
    shipped_sim0_candidates,
)
from .errors import (
    ConfigError,
    ContractViolation,
    CrosscheckDisagreement,
    LimitlearnError,
    UnsupportedAtomError,
    UseViolation,
)
from .formulas import (
    And,
    BitEq,
    BitOf,
    CountLe,
    ExistsForall,
    FAnd,
    FOr,
    ForallExists,
    IndexTerm,
    Le,
    Not,
    Or,
    TERM_M,
    TERM_N,
    ThreeValued,
    const_term,
    eval_bounded,
    eval_exact_ep,
    eval_pred,
    format_formula,
    formula_size,
    parse_formula,
    parse_formulas,
    use_bound,
)
from .learners import (
    ClassIndexSets,
    Informant,
    Learner,
    SynthLearner,
    cantor_pair,
    cantor_unpair,
    class_index_sets,
    embed_reduction,
    identity_reduction,
    learner_from_string,
    prefix_reduction,
)
from .relations import (
    CATALOG_NAMES,
    RelationSpec,
    TreeSpec,
    branch_word,
    catalog_rows,
    e0_code,
    id_code,
    make_relation,
    oscillation_display_holds,
    parse_tree_file,
    tree_is_wellfounded,
)
from .simulation import (
    ConvergenceCertificate,
    SessionReport,
    SessionTrace,
    certify_convergence,
    run_session,
    summarize,
    use_principle_check,
)
from .words import (
    PrincipalForm,
    Word,
    embed_increasing_sequence,
    finite_support_index,
    finite_support_word,
    interleave,
    parse_word,
    principal_form,
    split_even_odd,
)

__version__ = "0.1.0"

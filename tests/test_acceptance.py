"""End-to-end acceptance checks at desk scale.

Every criterion builds a deterministic list of record strings from one fixed
seed; the final criterion reruns each builder and compares byte for byte.
Wall-clock budgets guard the checks that must stay cheap.  Each test prints
one PASS or FAIL line so a log scrape sees the verdicts at a glance.
"""

import random
import time
from contextlib import contextmanager

from limitlearn.adversary import (
    bc_class_membership_procedure,
    candidate_codes,
    diagonalize_inf,
    enumerate_words,
    falsify_inf_classifier,
    format_adversary_record,
    inf_family_informant,
    shipped_sim0_candidates,
)
from limitlearn.formulas import eval_exact_ep
from limitlearn.learners import (
    BcToExLearner,
    CyclingLearner,
    Informant,
    SynthLearner,
    class_index_sets,
)
from limitlearn.relations import (
    TreeSpec,
    branch_word,
    e0_code,
    make_relation,
    oscillation_display_holds,
)
from limitlearn.sampling import flip_finitely, random_osc_pair, related_case, unrelated_case
from limitlearn.simulation import (
    certify_convergence,
    format_summary_record,
    run_session,
    summarize,
    use_principle_check,
)
from limitlearn.words import Word, parse_word as W
from test_words import interleave

ACCEPT_SEED = 1729

_CACHE = {}


@contextmanager
def criterion(n):
    try:
        yield
    except BaseException:
        print(f"criterion {n}: FAIL")
        raise
    print(f"criterion {n}: PASS")


def _cached(n):
    """Criterion n's builder value and its build time, built once per session."""
    if n not in _CACHE:
        t0 = time.perf_counter()
        value = _BUILDERS[n]()
        _CACHE[n] = (value, time.perf_counter() - t0)
    return _CACHE[n]


# ------------------------------------------------------------- criterion 1
# 200 seeded related cases per relation: a certificate is always issued, its
# limit index is oracle-related, and the hypothesis stream sits at the limit
# from the stabilization stage on, at the base horizon and at double it.

def _build_crit1():
    records = []
    cases = []
    for name in ("id", "e0"):
        rel = make_relation(name)
        rng = random.Random(ACCEPT_SEED)
        for i in range(200):
            target, ws = related_case(rng, rel)
            informant = Informant.explicit(list(ws))
            learner = SynthLearner(rel.code, informant)
            cert = certify_convergence(learner, target)
            assert cert is not None, f"{name} case {i}: no certificate"
            limit_word = informant.word(cert.limit_index)
            assert limit_word is not None
            assert rel.decide(target, limit_word), f"{name} case {i}: limit unrelated"
            stab = cert.stabilization_stage
            horizon = max(stab + 4, 8)
            trace = run_session(learner, target, informant, horizon)
            assert all(h == cert.limit_index for h in trace.hypotheses[stab:])
            doubled = run_session(learner, target, informant, 2 * horizon)
            assert all(h == cert.limit_index for h in doubled.hypotheses[stab:])
            report = summarize(trace, rel)
            assert report.ex_correct_at_horizon
            records.append(
                f"c1 relation={name} case={i} target={target.literal} "
                f"limit={cert.limit_index} stab={stab} {format_summary_record(report, cert)}")
            cases.append((name, i, learner, target, informant, cert, trace))
    return records, cases


def test_criterion_1_certificates_for_related_cases():
    with criterion(1):
        (records, cases), elapsed = _cached(1)
        assert len(records) == 400 and len(cases) == 400
        assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"


# ------------------------------------------------------------- criterion 2
# 200 seeded unrelated cases: no certificate, and the pair pointer has left
# the first 50 pairs behind by horizon 2000.

def _build_crit2():
    records = []
    for name in ("id", "e0"):
        rel = make_relation(name)
        rng = random.Random(ACCEPT_SEED)
        for i in range(100):
            target, ws = unrelated_case(rng, rel)
            informant = Informant.explicit(list(ws))
            learner = SynthLearner(rel.code, informant)
            assert certify_convergence(learner, target) is None, f"{name} case {i}"
            trace = run_session(learner, target, informant, 2000)
            pointer = trace.pointers[-1]
            assert pointer is not None and pointer > 50, f"{name} case {i}: pointer {pointer}"
            records.append(
                f"c2 relation={name} case={i} target={target.literal} "
                f"pointer={pointer} certificate=-")
    return records


def test_criterion_2_no_false_positives():
    with criterion(2):
        records, elapsed = _cached(2)
        assert len(records) == 200
        assert elapsed < 60.0, f"criterion 2 took {elapsed:.1f}s"


# ------------------------------------------------------------- criterion 3
# 100 seeded cycling fixtures: the converted learner collapses a whole class
# block to its least index and never changes its mind.

def _build_crit3():
    rel = make_relation("e0")
    rng = random.Random(ACCEPT_SEED)
    records = []
    for i in range(100):
        target, ws = related_case(rng, rel)
        all_words = tuple(ws) + (flip_finitely(rng, target),)
        informant = Informant.explicit(list(all_words))
        classes = class_index_sets(rel, all_words)
        true_class = next(j for j, w in enumerate(all_words) if rel.decide(target, w))
        block = sorted(classes.blocks[true_class])
        assert len(block) >= 2
        converted = BcToExLearner(CyclingLearner(block), classes)
        trace = run_session(converted, target, informant, 12)
        low = min(block)
        assert set(trace.hypotheses) == {low}, f"case {i}: {trace.hypotheses}"
        report = summarize(trace, rel)
        assert report.mind_changes == 0 and report.ex_correct_at_horizon
        records.append(
            f"c3 case={i} target={target.literal} block={','.join(map(str, block))} "
            f"hyp={low} {format_summary_record(report, None)}")
    return records


def test_criterion_3_bc_to_ex_conversion():
    with criterion(3):
        records, _ = _cached(3)
        assert len(records) == 100


# ------------------------------------------------------------- criterion 4
# Exhaustive code-versus-oracle agreement on all word pairs of size <= 5 for
# id and e0, plus 500 seeded oscillation pairs where the capped display
# evaluation must match the exact oracle.

def _build_crit4():
    records = []
    pool = enumerate_words(5)
    for name in ("id", "e0"):
        rel = make_relation(name)
        disagree = sum(1 for x in pool for y in pool
                       if eval_exact_ep(rel.code, x, y) != rel.decide(x, y))
        assert disagree == 0, f"{name}: {disagree} disagreements"
        records.append(f"c4 relation={name} pairs={len(pool) ** 2} disagreements=0")
    osc = make_relation("oscillation")
    rng = random.Random(ACCEPT_SEED)
    for i in range(500):
        x, y = random_osc_pair(rng)
        exact = osc.decide(x, y)
        display = oscillation_display_holds(x, y)
        assert exact == display, f"osc case {i}: {x.literal} {y.literal}"
        records.append(
            f"c4 osc case={i} x={x.literal} y={y.literal} value={str(exact).lower()}")
    return records


def test_criterion_4_oracle_code_agreement():
    with criterion(4):
        records, elapsed = _cached(4)
        assert len(records) == 502
        assert elapsed < 120.0, f"criterion 4 took {elapsed:.1f}s"


# ------------------------------------------------------------- criterion 5
# Each shipped candidate for the infinite-support relation is either forced
# through the full round budget or caught stuck with a verified witness; the
# adversary never gives up for budget reasons.

def _build_crit5():
    rel = make_relation("sim0")
    one_rep = inf_family_informant().word(0)
    records = []
    for name, factory in shipped_sim0_candidates():
        run = diagonalize_inf(factory(), rel, patience=64, rounds=10)
        assert run.verdict in ("FORCED", "LEARNER_STUCK"), run.verdict
        if run.verdict == "FORCED":
            assert run.forced_rounds is not None and run.forced_rounds >= 10
            assert len(run.mind_change_stages) >= 10
        else:
            assert run.witness is not None and not run.witness.is_inf
            assert not rel.decide(run.witness, one_rep)
        records.append(f"c5 learner={name} {format_adversary_record(run)}")
    return records


def test_criterion_5_diagonalization_verdicts():
    with criterion(5):
        records, _ = _cached(5)
        assert len(records) == 3


# ------------------------------------------------------------- criterion 6
# Well-founded trees collapse to equality on every word of size <= 4; each
# ill-founded tree exhibits a nontrivial equivalent pair, and every shipped
# small candidate code is defeated against it.

WELL_FOUNDED_TREES = (
    TreeSpec(frozenset(), frozenset()),
    TreeSpec(frozenset({()}), frozenset()),
    TreeSpec(frozenset({(0,)}), frozenset()),
    TreeSpec(frozenset({(), (0,), (1,)}), frozenset()),
    TreeSpec(frozenset({(), (0,), (0, 1), (0, 2), (3,)}), frozenset()),
)

ILL_FOUNDED_GENERATORS = (
    ((0,), (2,)),
    ((1,), (1,)),
    ((0,), (3,)),
)


def _build_crit6():
    records = []
    pool = enumerate_words(4)
    for t_i, tree in enumerate(WELL_FOUNDED_TREES):
        rel = make_relation("tree", tree)
        assert rel.learnable == "YES"
        disagree = sum(1 for x in pool for y in pool if rel.decide(x, y) != (x == y))
        assert disagree == 0, f"tree {t_i}: {disagree} pairs off equality"
        records.append(f"c6 tree=wf{t_i} pairs={len(pool) ** 2} equalityDisagreements=0")
    for g_i, gen in enumerate(ILL_FOUNDED_GENERATORS):
        tree = TreeSpec(frozenset(), frozenset({gen}))
        rel = make_relation("tree", tree)
        assert rel.learnable == "NO"
        branch = branch_word(gen)
        assert branch is not None
        x = interleave(branch, W("|1"))
        y = interleave(branch, W("|01"))
        assert x != y and rel.decide(x, y), f"generator {g_i}: pair not equivalent"
        records.append(f"c6 tree=ill{g_i} pair x={x.literal} y={y.literal}")
        for code_name, code in candidate_codes():
            hit = falsify_inf_classifier(code, rel, max_size=6)
            assert hit is not None, f"generator {g_i}: {code_name} survived"
            cx, cy = hit
            assert eval_exact_ep(code, cx, cy) != rel.decide(cx, cy)
            records.append(
                f"c6 tree=ill{g_i} code={code_name} "
                f"counterexample x={cx.literal} y={cy.literal}")
    return records


def test_criterion_6_tree_dichotomy():
    with criterion(6):
        records, _ = _cached(6)
        assert len(records) == 5 + 3 * (1 + len(candidate_codes()))


# ------------------------------------------------------------- criterion 7
# Every certified session from criterion 1 keeps its limit hypothesis under
# all 256 completions of 8 unqueried informant bits.

def _build_crit7():
    (_, cases), _ = _cached(1)
    records = []
    for name, i, learner, target, informant, cert, trace in cases:
        assert use_principle_check(learner, cert, trace, free_bits=8), f"{name} case {i}"
        records.append(f"c7 relation={name} case={i} freeBits=8 completions=256 stable=true")
    return records


def test_criterion_7_use_principle():
    with criterion(7):
        records, _ = _cached(7)
        assert len(records) == 400


# ------------------------------------------------------------- criterion 8
# The staged membership procedure, driven by a tail-agreement learner against
# the all-zero target, settles its flag exactly on the oracle verdict for
# every probe word of size <= 4.

def _build_crit8():
    rel = make_relation("e0")
    y = Word("", "0")
    bc = SynthLearner(e0_code(), Informant.explicit([y]))

    def b(n):
        return Word("0" * n, "1")

    records = []
    for z in enumerate_words(4):
        run = bc_class_membership_procedure(bc, rel, y, b, z, horizon=64)
        expect = rel.decide(y, z)
        assert run.limit_zero == expect, f"z={z.literal}"
        records.append(
            f"c8 z={z.literal} flag={str(run.limit_zero).lower()} "
            f"oracle={str(expect).lower()}")
    return records


def test_criterion_8_membership_procedure():
    with criterion(8):
        records, elapsed = _cached(8)
        assert len(records) == len(enumerate_words(4))
        assert elapsed < 120.0, f"criterion 8 took {elapsed:.1f}s"


# criterion n's builder by n; the CI hash-seed step imports each by name
_BUILDERS = {1: _build_crit1, 2: _build_crit2, 3: _build_crit3, 4: _build_crit4,
             5: _build_crit5, 6: _build_crit6, 7: _build_crit7, 8: _build_crit8}


# ------------------------------------------------------------- criterion 9
# Rerunning every builder with the same seed reproduces each record list
# byte for byte.

def test_criterion_9_determinism():
    with criterion(9):
        first = {n: _cached(n)[0] for n in _BUILDERS}
        rebuilt = {n: build() for n, build in _BUILDERS.items()}
        for n in _BUILDERS:
            a, b = (first[n][0], rebuilt[n][0]) if n == 1 else (first[n], rebuilt[n])
            assert "\n".join(a).encode() == "\n".join(b).encode(), \
                f"criterion {n} records drifted on rerun"

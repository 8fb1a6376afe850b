"""Adversarial constructions: diagonalization across the infinite-support
boundary, code falsification by word enumeration, and the staged
class-membership procedure.

Every verdict asserted here was replayed by hand or checked against the
relation oracles; committed data must always survive independent replay.
"""

import collections

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from limitlearn import words
from limitlearn.adversary import (
    MembershipRun,
    bc_class_membership_procedure,
    candidate_codes,
    diagonalize_inf,
    enumerate_words,
    falsify_inf_classifier,
    format_adversary_record,
    inf_family_informant,
    shipped_sim0_candidates,
)
from limitlearn.errors import ConfigError, ContractViolation, UseViolation
from limitlearn.formulas import eval_exact_ep
from limitlearn.learners import CyclingLearner, Informant, Learner, SynthLearner
from limitlearn.relations import RelationSpec, e0_code, make_relation
from limitlearn.simulation import InformantRows, run_session
from limitlearn.words import Word, parse_word as W

E0 = make_relation("e0")
SIM0 = make_relation("sim0")
SIM1 = make_relation("sim1")


def synth_e0():
    return SynthLearner(e0_code(), Informant.explicit([W("|0")]))


# ---------------------------------------------------------- diagonalization

def test_inf_family_informant_slots():
    inf = inf_family_informant()
    assert inf.word(0) == W("|1")
    assert inf.word(1) == W("|0")
    assert inf.word(2) == W("1|0")
    assert inf.size is None


def test_diagonalize_rejects_other_relations():
    with pytest.raises(ConfigError):
        diagonalize_inf(CyclingLearner((0,)), E0, 8, 2)


def test_diagonalize_forces_the_synthesized_learner():
    run = diagonalize_inf(synth_e0(), SIM0, 64, 3)
    assert run.verdict == "FORCED" and run.forced_rounds == 3
    assert run.mind_change_stages == (1, 2, 3, 4)
    assert run.committed_target == W("01011|0")
    assert run.witness is None
    assert len(run.phase_log) == 3
    assert format_adversary_record(run) == "verdict=FORCED(3) stages=1,2,3,4 target=01011|0"


def test_diagonalize_detects_a_stuck_learner():
    run = diagonalize_inf(CyclingLearner((0,)), SIM1, 16, 2)
    assert run.verdict == "LEARNER_STUCK" and run.forced_rounds is None
    assert run.witness == W("|0") and run.committed_target == W("|0")
    # the witness refutes the parked claim: finite support, unrelated to 1s
    assert not run.witness.is_inf
    assert not SIM1.decide(run.witness, W("|1"))
    assert format_adversary_record(run) == "verdict=LEARNER_STUCK stages= target=|0 witness=|0"


def test_diagonalize_checks_the_stuck_witness():
    # a relation that holds everywhere lets no witness refute the parked claim
    everywhere = RelationSpec("sim1", None, lambda x, y: True, "NO")
    with pytest.raises(ContractViolation,
                       match="round 0: stuck witness [|]0 does not refute the infinite-support claim"):
        diagonalize_inf(CyclingLearner((0,)), everywhere, 2, 1)


def test_diagonalize_zero_rounds_is_vacuous():
    run = diagonalize_inf(synth_e0(), SIM0, 8, 0)
    assert run.verdict == "FORCED" and run.forced_rounds == 0
    assert run.committed_target == W("|0")
    assert run.phase_log == () and run.mind_change_stages == ()


def test_diagonalize_rejects_negative_budgets():
    for patience, rounds in ((-5, -3), (8, -1), (-1, 2)):
        with pytest.raises(ConfigError):
            diagonalize_inf(CyclingLearner((1,)), SIM0, patience, rounds)
    assert diagonalize_inf(CyclingLearner((0,)), SIM1, 0, 1).verdict == "LEARNER_STUCK"


class OneReadLearner(Learner):
    """Reads one bit through the view at every stage and claims index 1."""

    def __init__(self, read):
        self.read = read

    use = ((0, 1),)

    def step(self, state, stage, view):
        self.read(view)
        return state, 1


@pytest.mark.parametrize("read, error", [
    (lambda view: view.target_bit(-1), ConfigError),
    (lambda view: view.informant_bit(-1, 0), ConfigError),
    (lambda view: view.informant_bit(0, -1), ConfigError),
    (lambda view: view.informant_bit(0, 1), UseViolation),
], ids=["target-position", "informant-index", "informant-position", "informant-at-bound"])
def test_diagonalize_view_rejects_what_the_stage_view_rejects(read, error):
    """Target position -1, informant index -1 and informant position -1 are
    configuration errors under the diagonalizer's growing target view, as
    under StageView; an informant read at the use bound 1 is a use violation
    at stage 0 under both.  Both views refuse the bad index in the one
    informant store."""
    learner = OneReadLearner(read)
    for run in (lambda: run_session(learner, W("|0"), inf_family_informant(), 2),
                lambda: diagonalize_inf(learner, SIM0, 4, 2)):
        with pytest.raises(error) as exc:
            run()
        if error is UseViolation:
            assert (exc.value.stage, exc.value.position, exc.value.bound) == (0, 1, 1)
        in_store = isinstance(exc.traceback[-1].frame.f_locals.get("self"), InformantRows)
        assert in_store == (str(exc.value) == "informant index -1 out of range")


def test_diagonalize_fetches_each_informant_word_once(monkeypatch):
    """Each informant index is fetched once per diagonalization, however
    often the learner reads it: index j >= 1 builds finite_support_word(j - 1),
    and its reads answer from that word."""
    calls = collections.Counter()
    build = words.finite_support_word

    def counted(i):
        calls[i] += 1
        return build(i)

    monkeypatch.setattr(words, "finite_support_word", counted)
    bits = []

    def read(view):
        bits.append([view.informant_bit(j, 0) for j in (1, 2, 3, 1, 2, 3)])

    run = diagonalize_inf(OneReadLearner(read), SIM0, 4, 3)
    # |0, 1|0 and 01|0 at three stages, then the committed target 111|0, built from 7
    assert bits == [[0, 1, 0] * 2] * 3
    assert run.committed_target == W("111|0")
    assert calls == {0: 1, 1: 1, 2: 1, 7: 1}


def test_diagonalize_run_survives_replay():
    """Ones are only ever committed past the learner's read frontier, so a
    fresh session on the final committed target must reproduce the exact
    mind-change stages the adversary observed."""
    run = diagonalize_inf(synth_e0(), SIM0, 64, 3)
    horizon = max(run.mind_change_stages) + 2
    trace = run_session(synth_e0(), run.committed_target, inf_family_informant(), horizon)
    changes = tuple(
        s for s in range(1, len(trace.hypotheses)) if trace.hypotheses[s] != trace.hypotheses[s - 1]
    )
    assert changes[: len(run.mind_change_stages)] == run.mind_change_stages


def test_shipped_candidates_all_get_verdicts():
    verdicts = {}
    for name, make in shipped_sim0_candidates():
        run = diagonalize_inf(make(), SIM0, 64, 3)
        assert run.verdict in ("FORCED", "LEARNER_STUCK")
        verdicts[name] = run.verdict
    assert verdicts["constant-0"] == "LEARNER_STUCK"
    assert verdicts["synth-tail-agreement"] == "FORCED"
    assert verdicts["recent-ones"] == "FORCED"


# -------------------------------------------------------------- enumeration

def test_enumerate_words_prefix_and_canonicality():
    ws = enumerate_words(2)
    assert ws == [W("|0"), W("|1"), W("|01"), W("|10"), W("0|1"), W("1|0")]
    ws4 = enumerate_words(4)
    assert len(set(ws4)) == len(ws4)
    assert all(w.size <= 4 for w in ws4)
    assert all(Word(w.pre, w.per) == w for w in ws4)


# ------------------------------------------------------------ falsification

def test_falsifier_splits_tail_agreement_from_inf_agreement():
    pair = falsify_inf_classifier(e0_code(), SIM1, 3)
    assert pair == (W("|1"), W("|01"))
    x, y = pair
    assert eval_exact_ep(e0_code(), x, y) is False
    assert SIM1.decide(x, y) is True


def test_falsifier_finds_nothing_for_a_faithful_code():
    assert falsify_inf_classifier(e0_code(), E0, 3) is None


def test_candidate_codes_are_small_and_all_defeated():
    names = [n for n, _ in candidate_codes()]
    assert names == ["always-true", "always-false", "identity", "tail-agreement", "common-one"]
    for name, code in candidate_codes():
        pair = falsify_inf_classifier(code, SIM0, 3)
        assert pair is not None, name
        x, y = pair
        assert eval_exact_ep(code, x, y) != SIM0.decide(x, y)


# ------------------------------------------------------- membership staging

def b_outside(n: int) -> Word:
    # extends 0^n, then leaves the class of the all-zero word for good
    return Word("0" * n, "1")


def test_membership_accepts_a_related_candidate():
    run = bc_class_membership_procedure(synth_e0(), E0, W("|0"), b_outside, W("1|0"), 16)
    assert run.values == (0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
    assert run.limit_zero


def test_membership_rejects_an_unrelated_candidate():
    run = bc_class_membership_procedure(synth_e0(), E0, W("|0"), b_outside, W("|1"), 16)
    assert run.values == (0, 1, 1, 2, 1, 0, 3, 2, 1, 0, 4, 3, 2, 1, 0, 5)
    assert not run.limit_zero


def test_membership_checks_b_eagerly():
    calls = []

    def logged(n):
        calls.append(n)
        return b_outside(n)

    bc_class_membership_procedure(synth_e0(), E0, W("|0"), logged, W("1|0"), 5)
    assert sorted(calls) == [0, 1, 2, 3, 4, 5]


def test_membership_validates_b():
    with pytest.raises(ContractViolation, match=r"b\(1\)"):
        bc_class_membership_procedure(synth_e0(), E0, W("|0"), lambda n: W("|1"), W("1|0"), 8)
    with pytest.raises(ContractViolation, match="related"):
        bc_class_membership_procedure(synth_e0(), E0, W("|0"), lambda n: W("|0"), W("1|0"), 8)
    with pytest.raises(ConfigError):
        bc_class_membership_procedure(synth_e0(), E0, W("|0"), b_outside, W("1|0"), 3)


def slot_membership_reference(bc, y, b, z, horizon):
    """The membership procedure as first written, with one slot list of
    ("open", committed length) and ("pin", word) entries, a pinned front and
    a later_initialized array.  A differential reference; b is not checked."""
    slots = []

    def slot(j):
        while len(slots) <= j:
            slots.append(("open", 0))
        return slots[j]

    def snapshot():
        frozen = tuple(slots)

        def at(j):
            if j == 0:
                return z
            if j - 1 < len(frozen) and frozen[j - 1][0] == "pin":
                return frozen[j - 1][1]
            return y

        return Informant(at)

    values = []
    for s in range(horizon):
        i_s = run_session(bc, y, snapshot(), max(s, 1)).hypotheses[s]
        values.append(i_s)
        u = bc.use_bound_at(s)
        if s == 0 or (i_s == 0 and values[s - 1] == 0):
            for j in range(s):
                kind, t = slot(j)
                if kind == "open":
                    slots[j] = ("open", max(t, u))
            continue
        touched = max(len(slots), i_s + 1, s)
        front = 0
        while front < touched and slot(front)[0] == "pin":
            front += 1
        before = [slot(j) for j in range(touched)]
        later_initialized = [False] * touched
        for j in range(touched - 1, front, -1):
            kind, t = before[j]
            later_initialized[j - 1] = later_initialized[j] or kind == "pin" or t > 0
        for j in range(front, touched):
            kind, t = before[j]
            if kind == "open" and (later_initialized[j] or j <= i_s):
                slots[j] = ("pin", b(max(t, u) if j + 1 <= s else t))
    quarter = range(3 * horizon // 4, horizon)
    return MembershipRun(tuple(values), all(values[s] == 0 for s in quarter))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["|0", "1|0", "|1"]), st.booleans(),
       st.sampled_from(["01", "10", "011"]), st.sampled_from(enumerate_words(4)),
       st.integers(4, 40))
# inputs on which pinning slot `last` itself, not only the slots below it,
# changes the stage values but not the flag
@example("|0", False, "01", W("|0001"), 24)
@example("1|0", True, "10", W("|1000"), 40)
def test_membership_values_match_the_slot_reference(y, second, tail, z, horizon):
    """Every stage value and the flag equal the slot-list reference's, over
    targets, one- and two-word learner informants and b tails unrelated to
    the target."""
    y = W(y)
    bc = SynthLearner(e0_code(), Informant.explicit([y, W("|01")] if second else [y]))

    def b(n):
        return Word(y.prefix(n), tail)

    run = bc_class_membership_procedure(bc, E0, y, b, z, horizon)
    assert run == slot_membership_reference(bc, y, b, z, horizon)

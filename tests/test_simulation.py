"""Session runtime: stage views, traces, summaries, exact convergence
certificates, and the exhaustive use-principle replay.

The reference session runs the synthesized tail-agreement learner on target
1|0 against the informant (|1, |0); every number asserted below is frozen
from stepping that machine by hand.
"""

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from limitlearn import simulation
from limitlearn.errors import ConfigError, ContractViolation, UseViolation
from limitlearn.learners import (
    ClassIndexSets,
    CountableClassLearner,
    CyclingLearner,
    Informant,
    Learner,
    RecentOnesLearner,
    SeparatorLearner,
    SynthLearner,
    TransportLearner,
    class_index_sets,
)
from limitlearn.relations import e0_code, id_code, make_relation
from limitlearn.simulation import (
    ConvergenceCertificate,
    SessionReport,
    InformantRows,
    StageView,
    certify_convergence,
    format_stage_record,
    format_summary_record,
    run_session,
    summarize,
    use_principle_check,
)
from limitlearn.formulas import ExistsForall, eval_exact_ep
from limitlearn.words import Word
from limitlearn.words import parse_word as W
from test_formulas import code_preds, eval_pred, preds
from test_learners import x_only_preds

E0 = make_relation("e0")


def reference_setup():
    informant = Informant.explicit([W("|1"), W("|0")])
    learner = SynthLearner(e0_code(), informant)
    return learner, W("1|0"), informant


# -------------------------------------------------------------- stage views

def one_word_view(stage, bound):
    """A stage view over target |0 and the one-word informant (|1), built as
    run_session builds it."""
    informant = Informant.explicit([W("|1")])
    rows = InformantRows(informant, lambda w: w.bit_table(bound))
    view = StageView(W("|0").bit_table(bound), rows, informant.size)
    view._stage, view._bound = stage, bound
    return view


def test_stage_view_logs_reads():
    view = one_word_view(0, 5)
    assert view.informant_size == 1
    assert view.target_bit(3) == 0
    assert view.informant_bit(0, 1) == 1
    assert view.informant_bit(0, 2) == 1
    assert view.target_bit(3) == 0
    # ~pos for the target, j * stride + pos for informant row j; stride 5 here
    assert view.reads == {~3, 1, 2}
    # the row is looked up first, so an index the store refuses leaves no key
    with pytest.raises(ConfigError):
        view.informant_bit(1, 0)
    assert view.reads == {~3, 1, 2}

    class Reader(Learner):
        use = ((0, 5),)

        def step(self, state, stage, view):
            view.target_bit(3)
            view.informant_bit(1, 4)
            view.informant_bit(0, 1)
            return state, 0

    trace = run_session(Reader(), W("|0"), Informant.explicit([W("|1"), W("|0")]), 1)
    assert trace.stride == 5
    assert trace.read_keys == ({~3, 9, 1}, {~3, 9, 1})
    assert trace.reads == (frozenset({("t", 3), ("i", 1, 4), ("i", 0, 1)}),) * 2


def test_stage_view_enforces_the_bound():
    view = one_word_view(3, 5)
    with pytest.raises(UseViolation) as exc:
        view.target_bit(5)
    assert (exc.value.stage, exc.value.position, exc.value.bound) == (3, 5, 5)
    assert isinstance(exc.value, ContractViolation)
    with pytest.raises(ConfigError):
        view.target_bit(-1)
    with pytest.raises(ConfigError):
        view.informant_bit(4, 0)
    with pytest.raises(UseViolation) as exc:
        view.informant_bit(0, 5)
    assert (exc.value.stage, exc.value.position, exc.value.bound) == (3, 5, 5)
    # row[-1] would answer a negative position with the row's last bit
    with pytest.raises(ConfigError, match="negative position"):
        view.informant_bit(0, -1)


class LazyView:
    """The stage view as first written: a Word.bit call on every read, no
    tables."""

    def __init__(self, target, informant, stage, bound):
        self._target, self._informant = target, informant
        self._stage, self._bound = stage, bound
        self.reads = set()
        self.informant_size = informant.size

    def _check(self, pos):
        if pos >= self._bound:
            raise UseViolation(self._stage, pos, self._bound)
        if pos < 0:
            raise ConfigError(f"negative position {pos}")

    def target_bit(self, pos):
        self._check(pos)
        self.reads.add(("t", pos))
        return self._target.bit(pos)

    def informant_bit(self, j, pos):
        self._check(pos)
        self.reads.add(("i", j, pos))
        w = self._informant.word(j)
        if w is None:
            raise ConfigError(f"informant index {j} out of range")
        return w.bit(pos)


def lazy_session(learner, target, informant, horizon):
    """(hypotheses, pointers, reads) of run_session, one LazyView per stage."""
    state = learner.start_state
    hyps, pointers, reads = [], [], []
    for stage in range(horizon + 1):
        view = LazyView(target, informant, stage, learner.use_bound_at(stage))
        state, hyp = learner.step(state, stage, view)
        hyps.append(hyp)
        pointers.append(None if learner.pointer_at is None else state[learner.pointer_at])
        reads.append(frozenset(view.reads))
    return tuple(hyps), tuple(pointers), tuple(reads)


small_words = st.builds(Word, st.text("01", max_size=4), st.text("01", min_size=1, max_size=3))


def session_learners(informant):
    """A synth learner, the same transported behind the prefix 1 (its
    generated reads go through a non-empty prefix), or a learner without a
    pointer."""
    codes = st.one_of(st.sampled_from([id_code(), e0_code()]), st.builds(ExistsForall, code_preds))
    return st.one_of(
        codes.map(lambda code: SynthLearner(code, informant)),
        codes.map(lambda code: TransportLearner(SynthLearner(code, informant), "1")),
        st.lists(x_only_preds, min_size=1, max_size=3).map(
            lambda ps: SeparatorLearner([ExistsForall(p) for p in ps])),
        st.integers(1, 8).map(RecentOnesLearner),
        st.lists(st.lists(small_words, min_size=1, max_size=3), min_size=1, max_size=3).map(
            CountableClassLearner),
        st.lists(st.integers(0, 5), min_size=1, max_size=3).map(CyclingLearner),
    )


@settings(max_examples=500, deadline=None)
@given(st.data(), small_words, st.lists(small_words, min_size=1, max_size=8), st.booleans())
def test_session_tables_match_the_lazy_reference_view(data, target, ws, generated):
    """Bit tables give the same hypotheses, pointers (None at every stage of
    a learner without one) and per-stage reads as a Word.bit call per read."""
    informant = (Informant(lambda j: ws[j % len(ws)]) if generated
                 else Informant.explicit(ws))
    learner = data.draw(session_learners(informant))
    # a separator learner retests every pair from index 0 at each stage, so
    # its long sessions are slow
    horizon = data.draw(st.integers(1, 40 if isinstance(learner, SeparatorLearner) else 300))
    got = run_session(learner, target, informant, horizon)
    want = lazy_session(learner, target, informant, horizon)
    assert (got.hypotheses, got.pointers, got.reads) == want


class ScriptedReader(Learner):
    """Reads script[stage] in order, each read ("t", pos) or ("i", j, pos),
    under the constant use bound `bound`."""

    def __init__(self, bound, script):
        self.use = ((0, bound),)
        self.script = script

    def step(self, state, stage, view):
        for read in self.script[stage]:
            if read[0] == "t":
                view.target_bit(read[1])
            else:
                view.informant_bit(read[1], read[2])
        return state, 0


@st.composite
def read_scripts(draw):
    """(bound, informant size, per-stage reads), the positions drawn often at
    0 and at bound - 1 (the stride - 1 of the session's keys) and the
    informant indices often past 0."""
    bound = draw(st.integers(1, 6))
    size = draw(st.integers(2, 4))
    pos = st.sampled_from([0, bound - 1]) | st.integers(0, bound - 1)
    read = (st.tuples(st.just("t"), pos)
            | st.tuples(st.just("i"), st.integers(1, size - 1) | st.just(0), pos))
    stages = draw(st.integers(2, 5))
    return bound, size, draw(st.lists(st.lists(read, max_size=6),
                                      min_size=stages, max_size=stages))


@settings(max_examples=200, deadline=None)
@given(read_scripts(), small_words, st.lists(small_words, min_size=4, max_size=4))
@example((3, 3, [[("i", 1, 2), ("i", 2, 0), ("t", 2), ("t", 0), ("i", 0, 2)], []]),
         W("|0"), [W("|1")] * 4)
def test_read_keys_decode_to_the_tuple_log(script, target, ws):
    """Target and informant keys, and the last position of one row and the
    first of the next, never share a key: the decoded log equals a
    tuple-logging view's, stage by stage."""
    bound, size, reads = script
    learner = ScriptedReader(bound, reads)
    informant = Informant.explicit(ws[:size])
    trace = run_session(learner, target, informant, len(reads) - 1)
    assert trace.stride == bound
    assert trace.reads == lazy_session(learner, target, informant, len(reads) - 1)[2]
    assert [len(keys) for keys in trace.read_keys] == [len(set(r)) for r in reads]


# ----------------------------------------------------------------- sessions

def test_reference_session_trace():
    learner, target, informant = reference_setup()
    trace = run_session(learner, target, informant, 8)
    assert trace.horizon == 8
    assert trace.hypotheses == (0, 0, 0, 2, 1, 1, 1, 1, 1)
    assert trace.pointers == (0, 0, 2, 3, 4, 4, 4, 4, 4)
    assert [len(r) for r in trace.reads] == [0, 2, 4, 2, 0, 8, 2, 2, 2]
    assert trace.reads[1] == frozenset({("t", 0), ("i", 0, 0)})


def test_run_session_rejects_bad_horizons():
    learner, target, informant = reference_setup()
    for h in (0, -3):
        with pytest.raises(ConfigError):
            run_session(learner, target, informant, h)


def test_run_session_is_deterministic():
    learner, target, informant = reference_setup()
    a = run_session(learner, target, informant, 6)
    b = run_session(learner, target, informant, 6)
    assert (a.hypotheses, a.pointers, a.reads) == (b.hypotheses, b.pointers, b.reads)


def test_run_session_surfaces_use_violations():
    class Greedy(Learner):
        """Declares no use schedule, so the default bound 0 allows no read."""

        def step(self, state, stage, view):
            return state, view.target_bit(0)

    with pytest.raises(UseViolation):
        run_session(Greedy(), W("|0"), Informant.explicit([W("|0")]), 1)

    class Shrinking(Learner):
        """Its bound 2 - s reaches 0 at stage 2, so its read at stage 3 is refused."""

        use = ((-1, 2),)

        def step(self, state, stage, view):
            return state, view.target_bit(0) if stage == 3 else 0

    with pytest.raises(UseViolation) as exc:
        run_session(Shrinking(), W("|0"), Informant.explicit([W("|0")]), 3)
    assert (exc.value.stage, exc.value.position, exc.value.bound) == (3, 0, 0)


def test_run_session_asserts_pointer_monotonicity():
    class Retreater(Learner):
        start_state = (0,)
        pointer_at = 0

        def step(self, state, stage, view):
            return (state[0] - 1,), 0

    with pytest.raises(ContractViolation):
        run_session(Retreater(), W("|0"), Informant.explicit([W("|0")]), 2)


# ---------------------------------------------------------------- summaries

def test_reference_summary():
    learner, target, informant = reference_setup()
    trace = run_session(learner, target, informant, 8)
    report = summarize(trace, E0)
    assert report == SessionReport(2, 4, True, 4)


def test_out_of_range_hypotheses_read_as_incorrect():
    informant = Informant.explicit([W("|0")])
    trace = run_session(CyclingLearner((5,)), W("|0"), informant, 4)
    report = summarize(trace, E0)
    assert report.mind_changes == 0
    assert report.last_change_stage == 0
    assert not report.ex_correct_at_horizon
    assert report.bc_correct_suffix_start is None


def test_bc_without_ex_convergence():
    informant = Informant.explicit([W("|0"), W("1|0")])
    classes = class_index_sets(E0, informant.explicit_words())
    trace = run_session(CyclingLearner(sorted(classes.blocks[0])), W("|0"), informant, 5)
    report = summarize(trace, E0)
    assert trace.hypotheses == (0, 1, 0, 1, 0, 1)
    assert report.mind_changes == 5
    assert not report.ex_correct_at_horizon  # the change at the horizon spoils EX
    assert report.bc_correct_suffix_start == 0


def test_summarize_decides_once_per_hypothesis_run():
    calls = []

    class CountingE0:
        def decide(self, x, y):
            calls.append((x, y))
            return E0.decide(x, y)

    trace = run_session(CyclingLearner((0,)), W("1|0"), Informant.explicit([W("|0")]), 1000)
    report = summarize(trace, CountingE0())
    assert report == SessionReport(0, 0, True, 0)
    assert len(calls) <= report.mind_changes + 1


# ------------------------------------------------------------- certificates

def test_reference_certificate():
    learner, target, _ = reference_setup()
    cert = certify_convergence(learner, target)
    assert cert == ConvergenceCertificate(
        1, ((0, 0, 1), (1, 0, 0), (0, 1, 1), (2, 0, None)), 4
    )


def test_certificate_trivial_identity():
    learner = SynthLearner(id_code(), Informant.explicit([W("|0")]))
    cert = certify_convergence(learner, W("|0"))
    assert cert == ConvergenceCertificate(0, (), 0)


def test_certificate_absent_when_no_word_is_related():
    learner = SynthLearner(e0_code(), Informant.explicit([W("|0"), W("|1")]))
    assert certify_convergence(learner, W("|01")) is None


def test_certificate_refuses_a_limit_past_the_horizon_cap(monkeypatch):
    """The limit pair is found before the walk.  Word |0 against the target
    0^30000 1|0 has least witness 30,001, so the limit is pair (0, 30001),
    Cantor index 450,075,002, which no session under the cap reaches: refused
    at once.  The reference limit (1, 1) is index 4, admitted by a cap of 4
    and refused by a cap of 3."""
    learner = SynthLearner(e0_code(), Informant.explicit([W("|0")]))
    with pytest.raises(ConfigError, match="450075002 passes the horizon cap"):
        certify_convergence(learner, W("0" * 30000 + "1|0"))
    learner, target, _ = reference_setup()
    monkeypatch.setattr(simulation, "HORIZON_CAP", 4)
    assert certify_convergence(learner, target).limit_index == 1
    monkeypatch.setattr(simulation, "HORIZON_CAP", 3)
    with pytest.raises(ConfigError, match="horizon cap"):
        certify_convergence(learner, target)


def test_certificate_requirements():
    with pytest.raises(ConfigError):
        certify_convergence(CyclingLearner((0,)), W("|0"))
    lazy = SynthLearner(e0_code(), Informant(lambda j: W("|0")))
    with pytest.raises(ConfigError):
        certify_convergence(lazy, W("|0"))


def test_certificate_predicts_the_stable_suffix():
    learner, target, informant = reference_setup()
    cert = certify_convergence(learner, target)
    for horizon in (8, 16):
        trace = run_session(learner, target, informant, horizon)
        tail = trace.hypotheses[cert.stabilization_stage:]
        assert set(tail) == {cert.limit_index}
    assert E0.decide(target, informant.word(cert.limit_index))


@settings(max_examples=300, deadline=None)
@given(st.builds(ExistsForall, preds), small_words, st.lists(small_words, min_size=1, max_size=4))
def test_certificates_on_random_codes(code, target, ws):
    """Beyond id and e0: a certificate exists exactly when some informant word
    is exactly related, its limit is such a word, and the session sits at the
    limit from the stabilization stage on."""
    informant = Informant.explicit(ws)
    learner = SynthLearner(code, informant)
    related = [eval_exact_ep(code, target, w) for w in ws]
    cert = certify_convergence(learner, target)
    assert (cert is not None) == any(related)
    if cert is not None:
        assert related[cert.limit_index]
        stab = cert.stabilization_stage
        trace = run_session(learner, target, informant, stab + 60)
        assert set(trace.hypotheses[stab:]) == {cert.limit_index}


def test_certificate_refutations_are_genuine():
    learner, target, informant = reference_setup()
    cert = certify_convergence(learner, target)
    for a, b, m in cert.refutations:
        w = informant.word(a)
        if m is None:
            assert w is None
        else:
            assert eval_pred(learner.code.pred, target, w, b, m) is False


# ------------------------------------------------------------ use principle

def test_use_principle_holds_on_the_reference_session():
    learner, target, informant = reference_setup()
    cert = certify_convergence(learner, target)
    trace = run_session(learner, target, informant, 8)
    assert use_principle_check(learner, cert, trace, 8)
    assert use_principle_check(learner, cert, trace, 0)


def test_use_principle_budget_and_horizon_guards():
    learner, target, informant = reference_setup()
    cert = certify_convergence(learner, target)
    trace = run_session(learner, target, informant, 8)
    for free_bits in (13, -1):
        with pytest.raises(ConfigError):
            use_principle_check(learner, cert, trace, free_bits)
    short = run_session(learner, target, informant, 2)
    with pytest.raises(ConfigError):
        use_principle_check(learner, cert, short, 4)


def test_use_principle_rejects_a_foreign_certificate():
    """A certificate for one target replayed against another target's trace:
    the hypothesis at the claimed stabilization stage is not the limit."""
    learner, target, informant = reference_setup()
    cert = certify_convergence(learner, target)
    foreign = run_session(learner, W("|1"), informant, 8)
    assert not use_principle_check(learner, cert, foreign, 4)


def test_use_principle_replays_reach_the_learner():
    """A trace whose read log is blind frees the bits the learner does read,
    so some completion moves the hypothesis off the limit; replaying the
    original informant instead of each completion would miss that."""
    learner, target, informant = reference_setup()
    cert = certify_convergence(learner, target)
    trace = run_session(learner, target, informant, 8)
    blind = dataclasses.replace(trace, read_keys=tuple(frozenset() for _ in trace.read_keys))
    assert not use_principle_check(learner, cert, blind, 8)
    assert use_principle_check(learner, cert, trace, 8)


# ------------------------------------------------------------------ records

def test_record_formats():
    assert format_stage_record(4, 1, 4, 0) == "stage=4 hypothesis=1 pointer=4 bitsReadCount=0"
    assert format_stage_record(0, 3, None, 2) == "stage=0 hypothesis=3 pointer=- bitsReadCount=2"
    learner, target, informant = reference_setup()
    trace = run_session(learner, target, informant, 8)
    cert = certify_convergence(learner, target)
    report = summarize(trace, E0)
    assert format_summary_record(report, cert) == (
        "summary mindChanges=2 lastChangeStage=4 exCorrectAtHorizon=true "
        "bcCorrectSuffixStart=4 certified=1"
    )
    bare = SessionReport(0, 0, False, None)
    assert format_summary_record(bare, None) == (
        "summary mindChanges=0 lastChangeStage=0 exCorrectAtHorizon=false "
        "bcCorrectSuffixStart=- certified=-"
    )

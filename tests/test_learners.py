"""Learner construction: pairing walk, informants, the synthesized, separator,
countable-class, wrapper, and fixture learners, reductions, and the selection
string parser.

Stage machines are driven here through an unrestricted view so their
hypothesis streams can be frozen independently of the session runner.
"""

import copy
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from limitlearn.errors import ConfigError, ContractViolation
from limitlearn.formulas import (
    And,
    BitOf,
    CountLe,
    ExistsForall,
    ForallExists,
    Le,
    Not,
    TERM_N,
    use_bound,
)
from limitlearn.learners import (
    BcToExLearner,
    ClassIndexSets,
    CountableClassLearner,
    CyclingLearner,
    Informant,
    Learner,
    RecentOnesLearner,
    SeparatorLearner,
    SynthLearner,
    TransportLearner,
    cantor_unpair,
    class_index_sets,
    learner_from_string,
)
from limitlearn.relations import e0_code, id_code, make_relation
from limitlearn.simulation import run_session
from limitlearn.words import Word, finite_support_word
from limitlearn.words import parse_word as W
from test_formulas import code_preds, eval_pred, pred_trees, small_terms


class FreeView:
    """Unlimited view for driving learners outside a session."""

    def __init__(self, target, informant_words, size="auto"):
        self._t = target
        self._ws = list(informant_words)
        self.informant_size = len(self._ws) if size == "auto" else size

    def target_bit(self, pos):
        return self._t.bit(pos)

    def informant_bit(self, j, pos):
        return self._ws[j].bit(pos)


def drive(learner, target, informant_words, stages):
    view = FreeView(target, informant_words)
    state = learner.start_state
    hyps, pointers = [], []
    for s in range(stages):
        state, h = learner.step(state, s, view)
        hyps.append(h)
        pointers.append(None if learner.pointer_at is None else state[learner.pointer_at])
    return hyps, pointers


# ------------------------------------------------------------------ pairing

def test_cantor_enumeration_order():
    assert [cantor_unpair(k) for k in range(6)] == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


@given(st.integers(0, 10**6))
def test_cantor_unpair_inverts_pair(k):
    a, b = cantor_unpair(k)
    assert (a + b) * (a + b + 1) // 2 + b == k


@given(st.integers(0, 1000), st.integers(0, 1000))
def test_cantor_pair_inverts_unpair(a, b):
    assert cantor_unpair((a + b) * (a + b + 1) // 2 + b) == (a, b)


# --------------------------------------------------------------- informants

def test_informant_explicit():
    inf = Informant.explicit([W("|0"), W("1|0")])
    assert inf.size == 2
    assert inf.word(1) == W("1|0")
    assert inf.word(2) is None
    assert inf.word(-1) is None
    assert inf.explicit_words() == (W("|0"), W("1|0"))
    with pytest.raises(ConfigError):
        Informant.explicit([])


def test_informant_generators():
    inf = Informant(finite_support_word)
    assert inf.size is None
    assert inf.word(0) == W("|0")
    assert inf.word(1) == W("1|0")
    assert inf.word(2) == W("01|0")
    with pytest.raises(ConfigError):
        inf.explicit_words()


# -------------------------------------------------------------- synthesized

def test_synth_rejects_non_ef_codes():
    inf = Informant.explicit([W("|0")])
    with pytest.raises(ConfigError):
        SynthLearner(ForallExists(BitOf("x", TERM_N)), inf)


def test_synth_schedule_and_pointer():
    l = SynthLearner(e0_code(), Informant.explicit([W("|1"), W("|0")]))
    assert l.start_state == (0, 0, 0, 0)
    assert l.pointer_at == 0 and (7, 3, 1, 2)[l.pointer_at] == 7
    assert l.use_bound_at(5) == use_bound(e0_code().pred, 5, 5) == 6


@given(code_preds, st.integers(0, 300))
def test_synth_use_bound_is_the_code_use_bound(p, s):
    l = SynthLearner(ExistsForall(p), Informant.explicit([W("|0")]))
    assert l.use_bound_at(s) == use_bound(p, s, s)
    assert l.use_bounds(s) == [l.use_bound_at(t) for t in range(s + 1)]


class DeclaredSchedule(Learner):
    def __init__(self, use):
        self.use = use


def test_use_bounds_never_go_below_zero():
    """Both schedule methods floor the bound at 0: a pair whose value is
    negative, at the start or past it, and the empty schedule read nothing."""
    for use, want in ((((1, -1),), [0, 0, 1, 2]), (((-1, 2),), [2, 1, 0, 0]),
                      ((), [0, 0, 0, 0])):
        learner = DeclaredSchedule(use)
        assert [learner.use_bound_at(s) for s in range(4)] == want
        assert learner.use_bounds(3) == want


def test_synth_hypothesis_stream():
    """Reference walk: the target's tail matches informant word 1, reached at
    pair (1, 1) after refuting (0, 0), (0, 1), (1, 0) and skipping the
    out-of-range pair (2, 0)."""
    l = SynthLearner(e0_code(), Informant.explicit([W("|1"), W("|0")]))
    hyps, pointers = drive(l, W("1|0"), [W("|1"), W("|0")], 6)
    assert hyps == [0, 0, 0, 2, 1, 1]
    assert pointers == [0, 0, 2, 3, 4, 4]


def test_synth_without_size_never_skips():
    l = SynthLearner(id_code(), Informant(lambda j: W("|0")))
    view = FreeView(W("|1"), [W("|0")] * 64, size=None)
    state = l.start_state
    for s in range(8):
        state, h = l.step(state, s, view)
        assert state[2:] == cantor_unpair(state[0])
    # every pair is refuted by bit 0, so the pointer climbs one pair per stage
    assert state[l.pointer_at] == 7
    assert h == cantor_unpair(7)[0]


class ReferenceSynthLearner(SynthLearner):
    """The pair walk as first written: cantor_unpair for every pair tested and
    once more for the result, and eval_pred at one m at a time.  `steps`
    counts its calls."""

    start_state = (0, 0)
    steps = 0

    def step(self, state, stage, view):
        self.steps += 1
        k, next_m = state
        size = view.informant_size
        x = SimpleNamespace(bit=view.target_bit)
        while k < stage:
            a, b = cantor_unpair(k)
            if size is None or a < size:
                y = SimpleNamespace(bit=lambda i, a=a: view.informant_bit(a, i))
                if all(eval_pred(self.code.pred, x, y, b, m) for m in range(next_m, stage)):
                    next_m = stage
                    break
            k += 1
            next_m = 0
        a, _ = cantor_unpair(k)
        return (k, next_m), a


small_words = st.builds(Word, st.text("01", max_size=4), st.text("01", min_size=1, max_size=3))


@settings(deadline=None)
@given(st.one_of(st.sampled_from([id_code(), e0_code()]), st.builds(ExistsForall, code_preds)),
       small_words, st.lists(small_words, min_size=1, max_size=8), st.booleans(),
       st.integers(1, 300))
# the horizon ends inside the out-of-range run of diagonal 3, at pair (2, 1)
@example(code=id_code(), target=W("|1"), ws=[W("|0")], generated=False, horizon=7)
def test_synth_step_matches_the_reference_walk(code, target, ws, generated, horizon):
    """Sessions see the same hypotheses, pointers and per-stage reads, over an
    explicit informant of 1 to 8 words or a generator one of no size.  The
    session steps the reference, a subclass, through its own step at every
    stage, so the two sides run different walks."""
    informant = (Informant(lambda j: ws[j % len(ws)]) if generated
                 else Informant.explicit(ws))
    got = run_session(SynthLearner(code, informant), target, informant, horizon)
    reference = ReferenceSynthLearner(code, informant)
    want = run_session(reference, target, informant, horizon)
    assert reference.steps == horizon + 1
    assert got.hypotheses == want.hypotheses
    assert got.pointers == want.pointers
    assert got.reads == want.reads


# --------------------------------------------------------------- separators

HAS_ONE = ExistsForall(BitOf("x", TERM_N))
HAS_ZERO = ExistsForall(Not(BitOf("x", TERM_N)))
NEVER = ExistsForall(And(BitOf("x", TERM_N), Not(BitOf("x", TERM_N))))


def test_separator_validation():
    with pytest.raises(ConfigError):
        SeparatorLearner([])
    with pytest.raises(ConfigError):
        SeparatorLearner([ForallExists(BitOf("x", TERM_N))])
    with pytest.raises(ConfigError):
        SeparatorLearner([ExistsForall(BitOf("y", TERM_N))])


def test_separator_stream_walks_to_the_surviving_set():
    l = SeparatorLearner([HAS_ONE, NEVER, HAS_ZERO])
    hyps, _ = drive(l, W("|0"), [], 7)
    # pair (2, 0) sits at index 3 of the enumeration; sentinels before that
    assert hyps == [0, 1, 2, 3, 2, 2, 2]
    hyps1, _ = drive(l, W("1|0"), [], 4)
    assert hyps1 == [0, 0, 0, 0]


def test_separator_use_bound_is_the_worst_code():
    l = SeparatorLearner([HAS_ONE, ExistsForall(BitOf("x", TERM_N))])
    assert l.use_bound_at(4) == 5


x_only_preds = pred_trees(st.one_of(
    st.builds(BitOf, st.just("x"), small_terms),
    st.builds(Le, small_terms, small_terms),
    st.builds(CountLe, st.just("x"), small_terms, small_terms, small_terms)))


@given(st.lists(x_only_preds, min_size=1, max_size=3), st.integers(0, 300))
def test_separator_use_bound_is_the_largest_code_use_bound(ps, s):
    l = SeparatorLearner([ExistsForall(p) for p in ps])
    assert l.use_bound_at(s) == max(use_bound(p, s, s) for p in ps)
    assert l.use_bounds(s) == [l.use_bound_at(t) for t in range(s + 1)]


# ----------------------------------------------------------- countable rows

def test_countable_stream():
    rows = [[W("|0")], [W("|1"), W("1|0")], [W("11|0")]]
    l = CountableClassLearner(rows)
    assert l.use_bound_at(9) == 9
    hyps, _ = drive(l, W("11|0"), [], 6)
    assert hyps == [0, 1, 1, 2, 2, 2]
    hyps0, _ = drive(l, W("|0"), [], 4)
    assert hyps0 == [0, 0, 0, 0]


def test_countable_truncates_rows_and_entries():
    # |0 sits second in its row, invisible until stage 2
    l = CountableClassLearner([[W("1|0"), W("|0")]])
    hyps, _ = drive(l, W("|0"), [], 4)
    assert hyps == [0, 1, 0, 0]


# ------------------------------------------------------------- class blocks

def test_class_index_sets_values():
    classes = class_index_sets(make_relation("e0"), [W("|1"), W("|0"), W("1|0")])
    assert classes.blocks == (frozenset({0}), frozenset({1, 2}), frozenset({1, 2}))


def test_class_index_sets_validation():
    with pytest.raises(ConfigError):
        ClassIndexSets((frozenset({1}), frozenset({1})))
    with pytest.raises(ConfigError):
        ClassIndexSets((frozenset({0, 5}),))
    with pytest.raises(ConfigError):
        ClassIndexSets((frozenset({0, 1}), frozenset({1})))


def test_bc_to_ex_rewrites_into_block_minima():
    classes = ClassIndexSets((frozenset({0, 1}), frozenset({0, 1}), frozenset({2})))
    l = BcToExLearner(CyclingLearner(sorted(classes.blocks[1])), classes)
    hyps, _ = drive(l, W("|0"), [], 5)
    assert hyps == [0, 0, 0, 0, 0]


def test_bc_to_ex_keeps_the_inner_pointer():
    """The converted learner's session reports the inner synth learner's
    pointer; with every index in a class block of its own, its hypotheses
    are the inner ones too."""
    informant = Informant.explicit([W("|1"), W("|0")])
    synth = SynthLearner(id_code(), informant)
    bc2ex = BcToExLearner(synth, class_index_sets(make_relation("id"), informant.explicit_words()))
    want = run_session(synth, W("|0"), informant, 8)
    got = run_session(bc2ex, W("|0"), informant, 8)
    assert got.pointers == want.pointers == (0, 1, 1, 1, 1, 1, 1, 1, 1)
    assert got.hypotheses == want.hypotheses


def test_bc_to_ex_rejects_out_of_range_hypotheses():
    classes = ClassIndexSets((frozenset({0}),))
    l = BcToExLearner(CyclingLearner((5,)), classes)
    with pytest.raises(ContractViolation):
        drive(l, W("|0"), [], 1)


# ---------------------------------------------------------------- fixtures

def test_cycling_learner():
    l = CyclingLearner((0, 1))
    hyps, _ = drive(l, W("|0"), [], 7)
    assert hyps == [0, 1, 0, 1, 0, 1, 0]
    assert l.use_bounds(99) == [0] * 100
    with pytest.raises(ConfigError):
        CyclingLearner(())
    # cycling:N cycles through the sorted class block of informant index N,
    # which must exist and hold at least 2 indices
    e0 = make_relation("e0")
    inf = Informant.explicit([W("1|0"), W("|1"), W("|0")])
    assert learner_from_string("cycling:2", e0, inf).block == (0, 2)
    with pytest.raises(ConfigError, match="true class 3 out of range"):
        learner_from_string("cycling:3", e0, inf)
    with pytest.raises(ConfigError, match="at least 2 elements"):
        learner_from_string("cycling:1", e0, inf)


def test_constant_learner():
    hyps, _ = drive(CyclingLearner((3,)), W("|1"), [], 3)
    assert hyps == [3, 3, 3]


def test_recent_ones_learner():
    with pytest.raises(ConfigError):
        RecentOnesLearner(0)
    hyps, _ = drive(RecentOnesLearner(2), W("1|0"), [], 5)
    assert hyps == [1, 0, 0, 2, 2]


# --------------------------------------------------------------- reductions

def image(prefix, w):
    """The reduction's image of w: the prefix bits in front of it."""
    return W(prefix + w.literal)


class NegativeReader(Learner):
    use = ((0, 1),)

    def step(self, state, stage, view):
        return state, view.target_bit(-1)


class InformantReader(Learner):
    """Reads informant index j at position 0, once per stage."""

    def __init__(self, j):
        self.j = j

    use = ((0, 1),)

    def step(self, state, stage, view):
        return state, view.informant_bit(self.j, 0)


def test_transport_agrees_with_base_on_images():
    base_words = [W("|1"), W("|0")]
    base = SynthLearner(e0_code(), Informant.explicit(base_words))
    transported = TransportLearner(base, "1")
    hyps_t, _ = drive(transported, W("|0"), base_words, 9)
    hyps_b, _ = drive(base, image("1", W("|0")), [image("1", w) for w in base_words], 9)
    assert hyps_t == hyps_b
    # the base reads below s + 1; the prefix answers bit 0 of each image
    assert [transported.use_bound_at(s) for s in (0, 1, 5)] == [0, 1, 5]
    assert TransportLearner(base, "").use_bound_at(5) == base.use_bound_at(5) == 6
    assert TransportLearner(CyclingLearner((0,)), "0").use_bound_at(5) == 0
    # position -1 is not the prefix's last bit: the session view rejects it
    with pytest.raises(ConfigError):
        run_session(TransportLearner(NegativeReader(), "1"), W("|0"),
                    Informant.explicit(base_words), 1)


def test_transport_rejects_informant_indices_out_of_range():
    """A read inside the prefix checks the informant index as the session
    view does past it."""
    for j in (7, -1):
        with pytest.raises(ConfigError, match=f"informant index {j} out of range"):
            run_session(TransportLearner(InformantReader(j), "1"), W("|0"),
                        Informant.explicit([W("|1")]), 1)
    trace = run_session(TransportLearner(InformantReader(0), "1"), W("|0"),
                        Informant.explicit([W("|1")]), 1)
    assert trace.hypotheses == (1, 1)


TRANSPORT_BASES = [
    SynthLearner(e0_code(), Informant(finite_support_word)),
    RecentOnesLearner(2),
    CyclingLearner((1,)),
    CountableClassLearner([[W("1|0"), W("|01")], [W("01|1")]]),
]


@settings(deadline=None)
@given(st.sampled_from(["", "0", "1"]), st.sampled_from(TRANSPORT_BASES), small_words,
       st.lists(small_words, min_size=1, max_size=4), st.integers(1, 40))
def test_transport_runs_the_base_on_the_images(prefix, base, target, ws, horizon):
    """Under run_session, which enforces the use bounds, the transported
    learner on (target, ws) emits what the base emits on the images."""
    got = run_session(TransportLearner(base, prefix), target, Informant.explicit(ws), horizon)
    want = run_session(base, image(prefix, target),
                       Informant.explicit([image(prefix, w) for w in ws]), horizon)
    assert got.hypotheses == want.hypotheses
    assert got.pointers == want.pointers


# ---------------------------------------------------------- selection names

@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    """A directory holding the files the file-reading learner kinds name."""
    d = tmp_path_factory.mktemp("specs")
    (d / "e0.s2f").write_text(
        "(ef (or (le (ix 0 1 1) (ix 1 0 0)) (eq (ix 0 1 0) (ix 0 1 0))))\n"
    )
    (d / "seps.s2f").write_text("(ef (bit x (ix 1 0 0)))\n(ef (not (bit x (ix 1 0 0))))\n")
    (d / "rows.txt").write_text("# classes\n|0 1|0\n|1\n")
    return str(d)


def test_learner_from_string(spec_dir):
    inf = Informant.explicit([W("|0"), W("1|0")])
    e0 = make_relation("e0")

    l = learner_from_string("synth:e0.s2f", informant=inf, base_dir=spec_dir)
    assert isinstance(l, SynthLearner) and l.code == e0_code()

    l = learner_from_string("separators:seps.s2f", base_dir=spec_dir)
    assert isinstance(l, SeparatorLearner) and len(l.lowered) == 2

    l = learner_from_string("countable:rows.txt", base_dir=spec_dir)
    assert isinstance(l, CountableClassLearner)
    assert l.rows == ((W("|0"), W("1|0")), (W("|1"),))

    l = learner_from_string("bc2ex:cycling:0", relation=e0, informant=inf)
    assert isinstance(l, BcToExLearner) and isinstance(l.inner, CyclingLearner)

    l = learner_from_string("transport:prefix1:constant:3", relation=e0, informant=inf)
    assert isinstance(l, TransportLearner) and l.prefix == "1"
    assert isinstance(l.base, CyclingLearner) and l.base.block == (3,)

    assert learner_from_string("constant:").block == (0,)
    assert learner_from_string("constant:7").block == (7,)
    assert learner_from_string("recent-ones").window == 8
    assert learner_from_string("recent-ones:3").window == 3


def test_learner_from_string_errors(tmp_path):
    inf = Informant.explicit([W("|0"), W("1|0")])
    e0 = make_relation("e0")
    cases = [
        dict(spec="mystery:1"),
        dict(spec="synth:e0.s2f"),  # no informant
        dict(spec="synth:absent.s2f", informant=inf),
        dict(spec="cycling:0"),  # no relation
        dict(spec="cycling:zero", relation=e0, informant=inf),
        dict(spec="cycling:0", relation=e0, informant=Informant(finite_support_word)),
        dict(spec="bc2ex:", relation=e0, informant=inf),
        dict(spec="transport:warp:constant:0"),
        dict(spec="transport:embed:constant:0"),
        dict(spec="transport:prefix0:"),
        dict(spec="constant:abc"),
        dict(spec="constant:-2"),
        dict(spec="recent-ones:wide"),
    ]
    for case in cases:
        with pytest.raises(ConfigError):
            learner_from_string(case.pop("spec"), base_dir=str(tmp_path), **case)
    (tmp_path / "empty.txt").write_text("# no rows yet\n\n  # nor here\n")
    with pytest.raises(ConfigError, match="rows file holds no rows"):
        learner_from_string("countable:empty.txt", base_dir=str(tmp_path))


def test_learner_strings_wrap_at_most_64_layers():
    """64 bc2ex: and transport:RED: layers build and run as a shallow equivalent;
    a 65th is rejected before any layer is built (2,000 exhaust the stack)."""
    inf = Informant.explicit([W("|0"), W("1|0")])
    e0 = make_relation("e0")
    for layers, base, alike in (("transport:identity:" * 64, "recent-ones:2", "recent-ones:2"),
                                ("bc2ex:" * 64, "cycling:0", "bc2ex:cycling:0"),
                                ("bc2ex:transport:identity:" * 32, "cycling:0", "bc2ex:cycling:0")):
        deep = learner_from_string(layers + base, e0, inf)
        assert (run_session(deep, W("1|0"), inf, 12).hypotheses
                == run_session(learner_from_string(alike, e0, inf), W("1|0"), inf, 12).hypotheses)
        for extra in ("bc2ex:", "transport:prefix0:"):
            with pytest.raises(ConfigError, match="more than 64"):
                learner_from_string(extra + layers + base, e0, inf)


# every learner kind and every reduction (identity, prefix0, prefix1);
# informant words 0 and 1 share an e0 class, as cycling needs
EVERY_KIND = [
    "synth:e0.s2f", "separators:seps.s2f", "countable:rows.txt", "cycling:0",
    "constant:3", "recent-ones:3", "bc2ex:cycling:0", "bc2ex:constant:1",
    "transport:identity:synth:e0.s2f", "transport:prefix0:recent-ones:2",
    "transport:prefix1:countable:rows.txt", "transport:identity:separators:seps.s2f",
]
CONTRACT_WORDS = [W("|0"), W("1|0"), W("|1"), W("0|01")]


@settings(deadline=None)
@given(st.sampled_from(EVERY_KIND), small_words, st.integers(0, 40))
def test_step_never_mutates_its_state(spec_dir, spec, target, stage):
    """The learner-state contract: from one state and stage, on two views that
    answer alike, step returns equal results and leaves the state as it was;
    the whole use schedule equals the per-stage one."""
    learner = learner_from_string(spec, make_relation("e0"),
                                  Informant.explicit(CONTRACT_WORDS), spec_dir)
    assert learner.use_bounds(stage) == [learner.use_bound_at(t) for t in range(stage + 1)]
    if spec.startswith("transport:"):
        # the base's bound less the prefix, at least 0: checks the shifted pairs without reading them
        shifted = [max(learner.base.use_bound_at(t) - len(learner.prefix), 0) for t in range(stage + 1)]
        assert learner.use_bounds(stage) == shifted
    state = learner.start_state
    for s in range(stage):
        state, _ = learner.step(state, s, FreeView(target, CONTRACT_WORDS))
    before = copy.deepcopy(state)
    first = learner.step(state, stage, FreeView(target, CONTRACT_WORDS))
    second = learner.step(state, stage, FreeView(target, CONTRACT_WORDS))
    assert first == second
    assert state == before

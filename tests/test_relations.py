"""Relation catalog: exact oracles, the tree construction, and the bounded
oscillation display.

Oracle values are frozen from hand computation on explicit bit streams.
Equivalence laws are checked per relation over a pool rich in shared tails so
the transitivity premise actually fires.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limitlearn.adversary import enumerate_words
from limitlearn.errors import ConfigError
from limitlearn.relations import (
    CATALOG_NAMES,
    OSC_COUNT_BOUND,
    TreeSpec,
    branch_word,
    catalog_rows,
    e0_code,
    id_code,
    make_relation,
    oscillation_display_holds,
    parse_tree_file,
)
from limitlearn.words import Word, parse_word as W
from test_words import interleave


def rel(name, params=None):
    return make_relation(name, params)


capped_words = st.builds(
    Word,
    st.text(alphabet="01", min_size=0, max_size=4),
    st.text(alphabet="01", min_size=1, max_size=3),
)
longer_words = st.builds(
    Word,
    st.text(alphabet="01", min_size=0, max_size=7),
    st.text(alphabet="01", min_size=1, max_size=7),
)


# ------------------------------------------------------------------ catalog

def test_catalog_names_and_rows():
    assert CATALOG_NAMES == ("id", "e0", "oscillation", "sim0", "sim1", "sim3", "sim4", "sim5", "tree")
    rows = catalog_rows()
    assert len(rows) == 9
    assert rows[0] == ("id", "YES", "equality of sequences")
    labels = {name: label for name, label, _ in rows}
    assert labels["e0"] == "YES" and labels["oscillation"] == "YES"
    assert all(labels[n] == "NO" for n in ("sim0", "sim1", "sim3", "sim4", "sim5"))
    assert labels["tree"] == "N/A"


def test_make_relation_errors():
    with pytest.raises(ConfigError):
        make_relation("nope")
    with pytest.raises(ConfigError):
        make_relation("tree")
    with pytest.raises(ConfigError):
        make_relation("e0", TreeSpec(frozenset(), frozenset()))


def test_catalog_codes():
    assert rel("id").code == id_code()
    assert rel("e0").code == e0_code()
    assert rel("sim0").code is None
    assert rel("id").decide(W("1|0"), W("1|0"))


# ------------------------------------------------------------------ oracles

def test_id_and_e0_values():
    assert rel("id").decide(W("|01"), W("|01"))
    assert not rel("id").decide(W("|01"), W("1|01"))
    assert not rel("id").decide(W("1|0"), W("|0"))
    assert rel("e0").decide(W("1|0"), W("|0"))
    assert not rel("e0").decide(W("|01"), W("|10"))
    assert not rel("e0").decide(W("|01"), W("|0011"))
    assert rel("e0").decide(W("0110|10"), W("|10"))
    # the tails differ at the first position past both preperiods
    assert not rel("e0").decide(W("1|0"), W("|1"))
    # the tails agree on the shorter period's bits but have periods of different lengths
    assert not rel("e0").decide(W("|0"), W("|01"))


def test_e0_on_long_coprime_periods():
    """Periods of 100,000 and 100,001 bits have a common period of 10^10 bits;
    the decision reads one period of each word, not a common one."""
    period = "1" + "0" * 99_999
    x = Word("0", period)
    assert not rel("e0").decide(x, Word("", "1" + "0" * 100_000))
    assert rel("e0").decide(x, Word("1", period))


def test_sim0_and_sim1_values():
    s0, s1 = rel("sim0").decide, rel("sim1").decide
    assert s0(W("|01"), W("|1"))
    assert s0(W("1|0"), W("1|0"))
    assert not s0(W("1|0"), W("11|0"))
    assert not s0(W("|1"), W("1|0"))
    assert s1(W("|01"), W("|1"))
    assert s1(W("1|0"), W("11|0"))
    assert not s1(W("|1"), W("1|0"))


def test_sim3_sim4_sim5_values():
    s3, s4, s5 = (rel(n).decide for n in ("sim3", "sim4", "sim5"))
    # the two finite words with equal first bit separate the three relations
    x, y = W("1|0"), W("11|0")
    assert not s3(x, y)
    assert s4(x, y)
    assert s5(x, y)
    # first bits 0 separates sim5 from sim4
    assert s5(W("|0"), W("01|0"))
    assert not s4(W("|0"), W("01|0"))
    # infinite words equal past position 0
    assert s3(W("0|1"), W("|1"))
    assert not s3(W("1|0"), W("|0"))
    assert not s5(W("1|0"), W("|0"))
    for s in (s3, s4, s5):
        assert s(W("|01"), W("|01"))


@settings(max_examples=300)
@given(capped_words, capped_words)
def test_sim3_is_equality_past_bit_0_on_infinite_support(x, y):
    """Positions 1..L+P cover every preperiod bit past 0 and one whole common period."""
    horizon = max(len(x.pre), len(y.pre)) + math.lcm(len(x.per), len(y.per))
    tail_agrees = all(x.bit(i) == y.bit(i) for i in range(1, horizon + 1))
    assert rel("sim3").decide(x, y) == (x == y or x.is_inf and y.is_inf and tail_agrees)


@settings(max_examples=300)
@given(longer_words, longer_words)
def test_e0_matches_a_bit_by_bit_tail_scan(x, y):
    """Past both preperiods the words are periodic with a common period, so
    agreeing there on one common period, read one bit at a time, is agreeing
    on the whole tail; the words reach past the size-5 exhaustive check."""
    start = max(len(x.pre), len(y.pre))
    span = math.lcm(len(x.per), len(y.per))
    tails_agree = all(x.bit(i) == y.bit(i) for i in range(start, start + span))
    assert rel("e0").decide(x, y) == tails_agree


# -------------------------------------------------------------- oscillation

def test_oscillation_decides_inf_agreement():
    osc = rel("oscillation").decide
    assert osc(W("|01"), W("|1"))
    assert osc(W("1|0"), W("111|0"))
    assert not osc(W("|1"), W("1|0"))


def test_oscillation_display_spot_values():
    assert oscillation_display_holds(W("|0"), W("|0"))
    assert not oscillation_display_holds(W("|0"), W("|1"))
    assert oscillation_display_holds(W("1|0"), W("111|0"))
    assert oscillation_display_holds(W("|01"), W("|1"))
    # seventeen ones over the other word's zero run exceed the count bound,
    # although the pair is related
    assert not oscillation_display_holds(W("1" * 17 + "|0"), W("|0"))
    assert OSC_COUNT_BOUND == 16


@settings(max_examples=150)
@given(capped_words, capped_words)
def test_display_matches_inf_agreement_under_caps(x, y):
    """With short descriptions the window and count bound are conclusive, so
    the display evaluation and the INF-agreement oracle must coincide."""
    assert oscillation_display_holds(x, y) == rel("oscillation").decide(x, y)


# -------------------------------------------------------------------- trees

def test_tree_spec_validation():
    TreeSpec(frozenset({(), (0,), (0, 1)}), frozenset())
    # the root is implicit, so a lone depth-one node is fine
    TreeSpec(frozenset({(0,)}), frozenset())
    with pytest.raises(ConfigError):
        TreeSpec(frozenset({(0, 1)}), frozenset())
    with pytest.raises(ConfigError):
        TreeSpec(frozenset({(0, -1)}), frozenset())
    with pytest.raises(ConfigError):
        TreeSpec(frozenset({("a",)}), frozenset())
    with pytest.raises(ConfigError):
        TreeSpec(frozenset(), frozenset({((0,), ())}))
    # nodes lying on a generator branch need no explicit ancestors
    TreeSpec(frozenset({(0, 2, 4)}), frozenset({((0,), (2,))}))
    with pytest.raises(ConfigError):
        TreeSpec(frozenset({(0, 3, 4)}), frozenset({((0,), (2,))}))


def _reference_closure_error(nodes, generators):
    """The prefix-closure check as first written, which rebuilds a branch for
    every prefix: the message naming the first proper prefix of a node, in the
    set's order, that is neither a node nor on a generator's branch, else None."""
    def labels(gen, count):
        u, v = gen
        out, cur, t = list(u[:count]), (u[-1] if u else 0), 0
        while len(out) < count:
            cur += v[t % len(v)]
            out.append(cur)
            t += 1
        return tuple(out)

    for node in nodes:
        for i in range(1, len(node)):
            q = node[:i]
            if q not in nodes and not any(labels(g, i) == q for g in generators):
                return f"tree not prefix-closed at {q}"
    return None


small_labels = st.lists(st.integers(0, 3), max_size=3).map(tuple)


@settings(max_examples=500)
@given(st.frozensets(st.lists(st.integers(0, 3), max_size=6).map(tuple), max_size=5),
       st.frozensets(st.tuples(small_labels, small_labels.filter(bool)), max_size=2))
def test_prefix_closure_matches_the_per_prefix_check(nodes, generators):
    """Checking only past the labels a node shares with some branch gives the
    verdict and the named prefix of the per-prefix check."""
    try:
        TreeSpec(nodes, generators)
    except ConfigError as exc:
        assert str(exc) == _reference_closure_error(nodes, generators)
    else:
        assert _reference_closure_error(nodes, generators) is None


def test_generator_branch_size_cap():
    # a branch word has u[-1] + 1 + sum(v) bits, at most 1,000,000 over all generators
    for gen in (((999_998,), (1,)), ((), (999_999,)), ((5,), (999_993, 1))):
        TreeSpec(frozenset(), frozenset({gen}))
    for gen in (((999_999,), (1,)), ((), (1_000_000,)), ((5,), (999_994, 1))):
        with pytest.raises(ConfigError, match="more than 1,000,000 bits"):
            TreeSpec(frozenset(), frozenset({gen}))
    with pytest.raises(ConfigError):
        parse_tree_file("gen 100000000 : 1\n")
    TreeSpec(frozenset(), frozenset({((499_999,), (1,)), ((), (499_998,))}))
    with pytest.raises(ConfigError, match="more than 1,000,000 bits"):
        TreeSpec(frozenset(), frozenset({((499_999,), (1,)), ((), (500_000,))}))


def test_learnability_follows_the_branches_the_relation_reads():
    """A tree is NO exactly when some generator has a branch word.  A generator
    whose labels fall, as in gen 3.1 : 1, or repeat enumerates no word."""
    assert make_relation("tree", TreeSpec(frozenset({()}), frozenset())).learnable == "YES"
    tree = TreeSpec(frozenset(), frozenset({((), (1,))}))
    assert make_relation("tree", tree).learnable == "NO"
    falling = make_relation("tree", TreeSpec(frozenset(), frozenset({((3, 1), (1,))})))
    assert falling.learnable == "YES"
    ws = enumerate_words(4)
    assert not any(falling.decide(x, y) for x in ws for y in ws if x != y)


def test_branch_word_values():
    assert branch_word(((0,), (2,))) == W("|10")
    assert branch_word(((1,), (1,))) == W("0|1")
    assert branch_word(((0,), (3,))) == W("|100")
    assert branch_word(((), (1,))) == W("0|1")
    assert branch_word(((0, 1), (2,))) == W("1|10")
    assert branch_word(((999_998,), (1,))) == Word("0" * 999_998, "1")


def test_branch_word_rejects_non_principal_generators():
    assert branch_word(((1, 0), (1,))) is None
    assert branch_word(((2, 2), (1,))) is None
    assert branch_word(((0,), (0, 2))) is None


@given(st.lists(st.integers(0, 6), max_size=3, unique=True).map(sorted),
       st.lists(st.integers(1, 3), min_size=1, max_size=3), st.integers(0, 30))
def test_branch_word_bits_enumerate_the_branch(stem, incs, i):
    """The word's support must be exactly the branch labels, for every strictly
    increasing stem of length 0-3."""
    w = branch_word((tuple(stem), tuple(incs)))
    labels = set(stem)
    cur = stem[-1] if stem else 0
    t = 0
    while cur <= i:
        cur += incs[t % len(incs)]
        labels.add(cur)
        t += 1
    assert w.bit(i) == (1 if i in labels else 0)


def test_tree_relation_wellfounded_is_equality():
    t = TreeSpec(frozenset({(), (0,), (1,), (0, 1)}), frozenset())
    r = rel("tree", t)
    assert r.learnable == "YES"
    assert r.decide(W("|01"), W("|01"))
    assert not r.decide(W("|01"), W("|10"))
    assert not r.decide(W("1|0"), W("|0"))


def test_tree_relation_illfounded_pairs():
    t = TreeSpec(frozenset(), frozenset({((0,), (2,))}))
    r = rel("tree", t)
    assert r.learnable == "NO"
    # even parts (10)^w on the branch, odd parts both INF
    assert r.decide(W("|1101"), W("|1001"))
    assert not W("|1101") == W("|1001")
    # equality shortcut holds regardless of the branch set
    assert r.decide(W("|10"), W("|10"))
    # even part off the branch
    assert not r.decide(W("|1101"), W("|10"))
    # odd part with finite support
    x = interleave(W("|10"), W("|0"))
    y = interleave(W("|10"), W("|1"))
    assert not r.decide(x, y)


def test_tree_relation_ignores_non_principal_generators():
    t = TreeSpec(frozenset(), frozenset({((1, 0), (1,))}))
    r = rel("tree", t)
    assert not r.decide(W("|1101"), W("|1001"))
    assert r.decide(W("|1101"), W("|1101"))


def test_parse_tree_file():
    text = """
    # fixture
    node 0
    node 0.1   # child
    gen 0 : 2
    gen : 1
    """
    t = parse_tree_file(text)
    assert t == TreeSpec(
        frozenset({(0,), (0, 1)}),
        frozenset({((0,), (2,)), ((), (1,))}),
    )


def test_parse_tree_file_errors():
    for bad in ("branch 0", "gen 0 2", "gen 0 :", "node 0.x", "node 0 1"):
        with pytest.raises(ConfigError):
            parse_tree_file(bad)
    # a negative or empty component is rejected by the path parser, not later by TreeSpec
    for bad in ("node 0.-1", "node 0..1", "node 1.", "gen .1 : 1"):
        with pytest.raises(ConfigError, match="tree path component"):
            parse_tree_file(bad)


# --------------------------------------------------------- equivalence laws

POOL = [W(s) for s in ("|0", "|1", "1|0", "11|0", "0|1", "|01", "|10", "1|01",
                       "|0011", "01|0", "|1101", "|1001", "|100")]


def all_deciders():
    out = [(n, rel(n).decide) for n in CATALOG_NAMES if n != "tree"]
    out.append(("tree-wf", rel("tree", TreeSpec(frozenset({()}), frozenset())).decide))
    out.append(("tree-ill", rel("tree", TreeSpec(frozenset(), frozenset({((0,), (2,))}))).decide))
    return out


@settings(max_examples=120)
@given(st.sampled_from(POOL), st.sampled_from(POOL), st.sampled_from(POOL))
def test_deciders_are_equivalences(x, y, z):
    for name, d in all_deciders():
        assert d(x, x), name
        assert d(x, y) == d(y, x), name
        if d(x, y) and d(y, z):
            assert d(x, z), name

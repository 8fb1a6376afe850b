"""Two-level formulas: predicate semantics, exact evaluation, use bounds,
and the s-expression surface syntax.

Exact-evaluation expectations are frozen from hand computation on the bit
streams; the property tests compare the exact evaluator against brute-force
scans that use no thresholds from the code under test.
"""

import copy
import dataclasses
import math
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from limitlearn import formulas
from limitlearn.adversary import enumerate_words
from limitlearn.errors import ConfigError, UnsupportedAtomError
from limitlearn.formulas import (
    COEFF_CAP,
    And,
    BitEq,
    BitOf,
    CountLe,
    ExistsForall,
    ForallExists,
    IndexTerm,
    Le,
    Not,
    Or,
    TERM_M,
    TERM_N,
    _exact_bounds,
    compile_pred,
    const_term,
    eval_exact_ep,
    exact_inner_bound,
    exists_forall_witness,
    least_refutation,
    lower,
    parse_formula,
    parse_formulas,
    use_bound,
)
from limitlearn.relations import e0_code, id_code
from limitlearn.words import Word

bits = st.text(alphabet="01", min_size=0, max_size=5)
periods = st.text(alphabet="01", min_size=1, max_size=4)
words = st.builds(Word, bits, periods)


# ------------------------------------------------------------------ terms

def test_index_term_values():
    t = IndexTerm(1, 2, 3)
    assert t.value(10, 5) == 23
    assert TERM_N.value(7, 0) == 7
    assert TERM_M.value(0, 7) == 7
    assert const_term(4).value(9, 9) == 4


def test_index_term_validation():
    class Int(int):
        def __format__(self, spec):
            return "x"

    for bad in ((9, 0, 0), (0, 9, 0), (0, 0, 9), (-1, 0, 0),
                (0.5, 1, 1), (0, 1.0, 0), (True, 0, 0), (0, 0, False), (0, Int(1), 0),
                ("1", 0, 0)):
        with pytest.raises(ConfigError):
            IndexTerm(*bad)


# ------------------------------------------------------------- predicates

# the reference semantics that the lowering's holds, mask and search are checked against
def eval_pred(p, x, y, n: int, m: int) -> bool:
    """Truth of the predicate AST; x and y need only a .bit(i) method."""
    if isinstance(p, BitOf):
        w = x if p.side == "x" else y
        return w.bit(p.term.value(n, m)) == 1
    if isinstance(p, BitEq):
        return x.bit(p.term_x.value(n, m)) == y.bit(p.term_y.value(n, m))
    if isinstance(p, Le):
        return p.lhs.value(n, m) <= p.rhs.value(n, m)
    if isinstance(p, CountLe):
        w = x if p.side == "x" else y
        lo, hi = p.lo.value(n, m), p.hi.value(n, m)
        count = sum(w.bit(i) for i in range(lo, hi))
        return count <= p.bound.value(n, m)
    if isinstance(p, Not):
        return not eval_pred(p.inner, x, y, n, m)
    if isinstance(p, And):
        return eval_pred(p.left, x, y, n, m) and eval_pred(p.right, x, y, n, m)
    if isinstance(p, Or):
        return eval_pred(p.left, x, y, n, m) or eval_pred(p.right, x, y, n, m)
    raise ConfigError(f"not a predicate node: {p!r}")


def test_e0_pred_value_examples():
    pred = e0_code().pred
    x, y = Word("1", "0"), Word("", "0")
    assert eval_pred(pred, x, y, 0, 0) is False
    assert eval_pred(pred, x, y, 1, 0) is True
    assert eval_pred(pred, x, y, 1, 5) is True


def test_le_is_honest():
    assert eval_pred(Le(const_term(2), const_term(1)), Word("", "0"), Word("", "0"), 0, 0) is False
    assert eval_pred(Le(const_term(1), const_term(1)), Word("", "0"), Word("", "0"), 0, 0) is True


def test_countle_counts_a_window():
    w = Word("", "1101")
    p3 = CountLe("x", const_term(0), const_term(4), const_term(3))
    p2 = CountLe("x", const_term(0), const_term(4), const_term(2))
    assert eval_pred(p3, w, w, 0, 0) is True
    assert eval_pred(p2, w, w, 0, 0) is False
    assert compile_pred(p3, w.bit, w.bit)(0, 0) and not compile_pred(p2, w.bit, w.bit)(0, 0)


def test_use_bound_examples():
    assert use_bound(e0_code().pred, 5, 3) == 4
    assert use_bound(BitOf("x", TERM_N), 5, 3) == 6
    assert use_bound(Le(TERM_N, TERM_M), 9, 9) == 0
    assert use_bound(CountLe("y", const_term(0), IndexTerm(1, 0, 2), const_term(1)), 5, 0) == 7


small_terms = st.builds(
    IndexTerm,
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=3),
)
atoms = st.one_of(
    st.builds(BitOf, st.sampled_from("xy"), small_terms),
    st.builds(BitEq, small_terms, small_terms),
    st.builds(Le, small_terms, small_terms),
)


def pred_trees(leaves):
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.builds(Not, inner),
            st.builds(And, inner, inner),
            st.builds(Or, inner, inner),
        ),
        max_leaves=6,
    )


preds = pred_trees(atoms)
# codes, and the lazy path that evaluates them, also take cntle atoms,
# which exact evaluation refuses
code_preds = pred_trees(st.one_of(
    atoms, st.builds(CountLe, st.sampled_from("xy"), small_terms, small_terms, small_terms)))


@given(code_preds, words, words, st.integers(0, 6), st.integers(0, 6))
def test_compile_matches_eval(p, x, y, n, m):
    assert compile_pred(p, x.bit, y.bit)(n, m) == eval_pred(p, x, y, n, m)


class LoggedWord:
    """A word that appends (side, position) to log on every bit read."""

    def __init__(self, word, side, log):
        self.word, self.side, self.log = word, side, log

    def bit(self, i):
        self.log.append((self.side, i))
        return self.word.bit(i)


@given(code_preds, words, words, st.integers(0, 6), st.integers(0, 6))
def test_use_bound_covers_reads(p, x, y, n, m):
    log = []
    compile_pred(p, LoggedWord(x, "x", log).bit, LoggedWord(y, "y", log).bit)(n, m)
    bound = use_bound(p, n, m)
    assert all(i < bound for _, i in log)


class LoggedView:
    """A view whose target is x and whose informant word j is y: appends
    ("x", i) to log on a target read and ("y", i) on an informant read."""

    def __init__(self, x, y, log):
        self.x, self.y, self.log = x, y, log

    def target_bit(self, i):
        self.log.append(("x", i))
        return self.x.bit(i)

    def informant_bit(self, j, i):
        self.log.append(("y", i))
        return self.y.bit(i)


@given(code_preds, words, words, st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
def test_compile_reads_what_eval_pred_reads_in_its_order(p, x, y, n, lo, span):
    """Session read logs and bitsReadCount rest on the lazy range test reading
    the reference's positions: and, or short-circuit, left operand first,
    m = lo, lo+1, ... in turn, and nothing past the first false m."""
    hi = lo + span
    compiled, reference = [], []
    view = LoggedView(x, y, compiled)
    got = lower(p).holds(view, 0, n, lo, hi)
    lx, ly = LoggedWord(x, "x", reference), LoggedWord(y, "y", reference)
    first_false = next((m for m in range(lo, hi) if not eval_pred(p, lx, ly, n, m)), None)
    assert got == (first_false is None)
    assert compiled == reference


# ------------------------------------------------------------ exact truth

def test_exact_least_witness():
    # single flipped bit at position 3: the cutoff must clear it
    low = e0_code().lowered
    assert exists_forall_witness(low, Word("", "0"), Word("0001", "0")) == 4
    assert exists_forall_witness(low, Word("", "0"), Word("", "0")) == 0
    assert exists_forall_witness(low, Word("", "01"), Word("", "10")) is None


def test_exact_frozen_decisions():
    assert eval_exact_ep(e0_code(), Word("1", "0"), Word("", "0")) is True
    assert eval_exact_ep(e0_code(), Word("", "01"), Word("", "0011")) is False
    assert eval_exact_ep(id_code(), Word("", "01"), Word("", "01")) is True
    assert eval_exact_ep(id_code(), Word("", "01"), Word("1", "01")) is False


def test_exact_agreement_with_slow_period_scan():
    """Brute-force oracle: x ~e0 y iff the tails agree over one joint period
    past both preperiods.  Checked against the formula evaluator on all pairs
    from a fixed small pool."""
    pool = [Word("", "0"), Word("", "1"), Word("1", "0"), Word("", "01"),
            Word("", "0011"), Word("01", "10"), Word("110", "100"), Word("", "10")]
    for x in pool:
        for y in pool:
            start = max(len(x.pre), len(y.pre))
            period = math.lcm(len(x.per), len(y.per))
            brute = all(x.bit(i) == y.bit(i) for i in range(start, start + period))
            assert eval_exact_ep(e0_code(), x, y) == brute, (x, y)


@settings(max_examples=1000, deadline=None)
@given(preds, words, words, st.booleans())
# the first refuting m = 2 is below the inner floor L + P = 3, not below L;
# the second's witness n = 1 is below the outer bound, not below L + 1
@example(Not(BitEq(const_term(0), IndexTerm(0, 1, 0))), Word("", "0"), Word("00", "1"), True)
@example(BitOf("y", IndexTerm(1, 0, 0)), Word("", "0"), Word("", "01"), False)
def test_exact_witness_matches_a_wider_brute_force_scan(p, x, y, fe):
    """Scan n < 3*outer and m < 3*inner(n) with eval_pred.  The first n that
    survives that scan is the exact witness: a brute-force witness never comes
    before it, and it holds over the whole scan.  An FE code is exactly the
    negation of the EF code over the negated predicate."""
    pred = Not(p) if fe else p
    low = lower(pred)
    witness = exists_forall_witness(low, x, y)

    def survives(n):
        scan = 3 * exact_inner_bound(low, x, y, n)
        return all(eval_pred(pred, x, y, n, m) for m in range(scan))

    first = next((n for n in range(3 * _exact_bounds(low, x, y)[3]) if survives(n)), None)
    assert first == witness
    code = ForallExists(p) if fe else ExistsForall(p)
    assert eval_exact_ep(code, x, y) == ((first is None) if fe else (first is not None))


def test_exact_refutations_are_concrete():
    x, y = Word("1", "0"), Word("", "0")
    pred, low = e0_code().pred, e0_code().lowered
    n_star = exists_forall_witness(low, x, y)
    for n in range(n_star):
        m = least_refutation(low, x, y, n)
        assert m is not None
        assert eval_pred(pred, x, y, n, m) is False
    assert least_refutation(low, x, y, n_star) is None
    # there is no outer value -1, whatever the code
    for p in (pred, BitOf("x", IndexTerm(1, 0, 0))):
        with pytest.raises(ConfigError):
            least_refutation(lower(p), x, y, -1)


# le constants reach past the n part, so empty, partial and full ranges of m occur
wide_terms = st.builds(
    IndexTerm,
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=COEFF_CAP),
)
range_preds = pred_trees(st.one_of(
    st.builds(BitOf, st.sampled_from("xy"), small_terms),
    st.builds(BitEq, small_terms, small_terms),
    st.builds(Le, wide_terms, wide_terms),
))
sized_words = st.sampled_from(enumerate_words(5))


@settings(max_examples=500, deadline=None)
@given(range_preds, sized_words, sized_words, st.integers(0, 12))
def test_least_refutation_matches_eval_pred_at_every_m(p, x, y, n):
    """The inner scan decides each m below the inner bound as eval_pred does."""
    low = lower(p)
    bound = exact_inner_bound(low, x, y, n)
    first = next((m for m in range(bound) if not eval_pred(p, x, y, n, m)), None)
    assert least_refutation(low, x, y, n) == first


@settings(max_examples=300, deadline=None)
@given(range_preds, sized_words, sized_words)
def test_exact_witness_is_the_first_n_surviving_its_inner_bound(p, x, y):
    """The generated outer loop, across empty, partial and full le ranges."""
    low = lower(p)

    def survives(n):
        return all(eval_pred(p, x, y, n, m) for m in range(exact_inner_bound(low, x, y, n)))

    first = next((n for n in range(_exact_bounds(low, x, y)[3]) if survives(n)), None)
    assert exists_forall_witness(low, x, y) == first


def mask_search(low, x, y):
    """The first n < outer whose mask, low.mask at that n's own width, is
    all ones: search's loop trying every n."""
    floor, mu, lift, outer = _exact_bounds(low, x, y)
    length = outer + max(floor, mu * outer + lift) + COEFF_CAP
    w = (x.bit_int(length), y.bit_int(length))
    for n in range(outer):
        full = (1 << max(floor, mu * n + lift)) - 1
        if low.mask(w, n, full) == full:
            return n
    return None


# terms with no n part
n_free_terms = st.builds(
    IndexTerm,
    st.just(0),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=COEFF_CAP),
)
# bit and eq atoms without n, le atoms with it: the search jumps past a failed n
jump_preds = pred_trees(st.one_of(
    st.builds(BitOf, st.sampled_from("xy"), n_free_terms),
    st.builds(BitEq, n_free_terms, n_free_terms),
    st.builds(Le, wide_terms, wide_terms),
))
# x_1 = 01 0^w has its one 1 at m = 1, the only zero of not-bit
not_x, x_1, y_0 = Not(BitOf("x", TERM_M)), Word("01", "0"), Word("", "0")


@settings(max_examples=300, deadline=None)
@given(st.one_of(range_preds, jump_preds, st.builds(Not, jump_preds)), sized_words, sized_words)
# e0 on a related pair (witness 1) and an unrelated one: its le atom's jump
# leaves n = 0 for m + 1
@example(e0_code().pred, Word("1", "0"), Word("", "0"))
@example(e0_code().pred, Word("", "01"), Word("", "0011"))
# an n-free atom under not inside an n-dependent and, whose witness 3 has a
# wider inner width than n = 0; its bit atom names n, so the search steps by one
@example(And(Not(BitOf("x", TERM_M)), BitOf("y", TERM_N)), Word("", "0"), Word("", "0001"))
# id's one n has width lift = 2, below floor = 3, where the words first differ:
# a search that drops the floor finds witness 0
@example(id_code().pred, Word("", "0"), Word("00", "1"))
# the six forms of an le atom's turn at m = 1, each the witness n it jumps to:
# at dn = 1 the le holds from there on, at dn = -1 the le under not does
@example(Or(Le(TERM_M, TERM_N), not_x), x_1, y_0)  # low, 1
@example(Or(Not(Le(IndexTerm(1, 1, 0), const_term(5))), not_x), x_1, y_0)  # low, 5
@example(Or(Le(const_term(6), IndexTerm(1, 1, 0)), not_x), x_1, y_0)  # high, 5
@example(Or(Not(Le(TERM_N, TERM_M)), not_x), x_1, y_0)  # high, 2
@example(Or(Le(const_term(4), TERM_N), not_x), x_1, y_0)  # flat, 4
@example(Or(Not(Le(TERM_N, const_term(3))), not_x), x_1, y_0)  # flat, 4
def test_search_matches_the_mask_at_every_n(p, x, y):
    """Past a failed n, search jumps to the first n at which an le atom
    turns the mask's highest zero: the same first n as the mask tried at
    every n."""
    low = lower(p)
    assert exists_forall_witness(low, x, y) == mask_search(low, x, y)


def test_exact_search_refuses_past_its_scan_cap(monkeypatch):
    """A search whose outer values times its widest inner width pass
    SCAN_CAP refuses before it builds a bit-int; one at the cap runs.
    Periods 401 and 405 put e0's search at 487,219 outer values of up to
    649,626 bits, past the cap; id's code tries n = 0 alone, so the same
    words stay under it."""
    low, x, y = e0_code().lowered, Word("1", "0"), Word("", "0")
    floor, mu, lift, outer = _exact_bounds(low, x, y)
    size = outer * max(floor, mu * outer + lift)
    with monkeypatch.context() as patch:
        patch.setattr(formulas, "SCAN_CAP", size - 1)
        with pytest.raises(ConfigError, match="passes the cap"):
            exists_forall_witness(low, x, y)
        patch.setattr(formulas, "SCAN_CAP", size)
        assert exists_forall_witness(low, x, y) == 1
    x, y = Word("", "1" + "0" * 400), Word("", "1" + "0" * 404)
    with pytest.raises(ConfigError, match="passes the cap of 30000000000"):
        exists_forall_witness(low, x, y)
    assert exists_forall_witness(id_code().lowered, x, y) is None


def test_exact_search_refuses_past_its_length_cap(monkeypatch):
    """A search whose bit-ints pass LENGTH_CAP refuses before it builds one;
    one at the cap runs.  id's code tries n = 0 alone, so its bit-ints hold
    1 + width + COEFF_CAP bits, not the outer bound's; periods 100,000 and
    100,001 put that past the cap, and under the scan cap."""
    low, x, y = id_code().lowered, Word("", "1" + "0" * 400), Word("", "1" + "0" * 404)
    floor, _, lift, outer = _exact_bounds(low, x, y)
    length = 1 + max(floor, lift) + COEFF_CAP
    assert length < outer
    with monkeypatch.context() as patch:
        patch.setattr(formulas, "LENGTH_CAP", length - 1)
        with pytest.raises(ConfigError, match="past the cap"):
            exists_forall_witness(low, x, y)
        patch.setattr(formulas, "LENGTH_CAP", length)
        assert exists_forall_witness(low, x, y) is None
    x, y = Word("", "1" + "0" * 99999), Word("", "1" + "0" * 100000)
    floor, _, lift, _ = _exact_bounds(low, x, y)
    assert max(floor, lift) < formulas.SCAN_CAP
    with pytest.raises(ConfigError, match="past the cap of 400000000"):
        exists_forall_witness(low, x, y)


# with no n in any term, the search tries n = 0 alone
n_free_preds = pred_trees(st.one_of(
    st.builds(BitOf, st.sampled_from("xy"), n_free_terms),
    st.builds(BitEq, n_free_terms, n_free_terms),
    st.builds(Le, n_free_terms, n_free_terms),
))


@settings(max_examples=300, deadline=None)
@given(n_free_preds, sized_words, sized_words, st.booleans())
def test_n_free_codes_find_the_first_surviving_n(p, x, y, fe):
    """Every n below the outer bound is scanned here, although the search
    tries only n = 0; EF and FE codes both follow the scan."""
    pred = Not(p) if fe else p
    low = lower(pred)

    def survives(n):
        return all(eval_pred(pred, x, y, n, m) for m in range(exact_inner_bound(low, x, y, n)))

    first = next((n for n in range(_exact_bounds(low, x, y)[3]) if survives(n)), None)
    assert exists_forall_witness(low, x, y) == first
    code = ForallExists(p) if fe else ExistsForall(p)
    assert eval_exact_ep(code, x, y) == ((first is None) if fe else (first is not None))


@settings(max_examples=200, deadline=None)
@given(words, st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=6))
def test_kept_bit_ints_stay_exact(w, lengths):
    """A word keeps its bit-int between searches.  Asked for rising, then
    falling lengths, it holds w.bit(i) below each; the kept int changes no
    word's value, and a replaced or copied word does not inherit it."""
    def spells(word, length):
        value = word.bit_int(length)
        return [value >> i & 1 for i in range(length)] == [word.bit(i) for i in range(length)]

    fresh = Word(w.pre, w.per)
    rising = sorted(lengths)
    assert all(spells(w, length) for length in rising + rising[::-1])
    assert w == fresh and hash(w) == hash(fresh) and repr(w) == repr(fresh)
    other = dataclasses.replace(w, pre="1" + w.pre)
    assert other == Word("1" + w.pre, w.per)
    twins = (copy.copy(w), copy.deepcopy(w), pickle.loads(pickle.dumps(w)))
    assert all(twin == w for twin in twins)
    assert all(spells(twin, rising[-1]) for twin in (other, *twins))


def test_exact_inner_bound_rejects_negative_outer_values():
    x, y = Word("1", "0"), Word("", "0")
    for code in (e0_code(), id_code()):
        for n in (-1, -7):
            with pytest.raises(ConfigError, match="negative outer value"):
                exact_inner_bound(code.lowered, x, y, n)
    assert exact_inner_bound(e0_code().lowered, x, y, 0) >= 1


def test_each_code_node_keeps_one_lowering():
    # lower() compiles anew on each call, so a node's .lowered is the only memo
    for code in (e0_code(), ForallExists(BitOf("x", TERM_N))):
        assert code.lowered is code.lowered


def test_lower_rejects_a_predicate_too_deep_to_compile():
    deep = BitOf("x", TERM_M)
    for _ in range(300):
        deep = Not(deep)
    with pytest.raises(ConfigError):
        compile_pred(deep, Word("", "0").bit, Word("", "0").bit)
    # a value that is no node of the grammar, as a predicate and as a formula
    with pytest.raises(ConfigError, match="not a predicate node"):
        lower(Not("x"))
    with pytest.raises(ConfigError, match="not a formula node"):
        eval_exact_ep(And(id_code(), "x"), Word("", "0"), Word("", "0"))
    # one And node serves both levels, and each evaluator refuses the other level
    with pytest.raises(ConfigError, match="not a predicate node"):
        lower(And(id_code(), id_code()))
    with pytest.raises(ConfigError, match="not a formula node"):
        eval_exact_ep(And(BitOf("x", TERM_M), BitOf("y", TERM_M)), Word("", "0"), Word("", "0"))


def test_exact_rejects_unsupported_atoms():
    """Every exact entry refuses a CountLe code and a coefficient-2 code."""
    counting = ExistsForall(CountLe("x", const_term(0), TERM_N, const_term(1)))
    steep = ExistsForall(BitEq(IndexTerm(0, 2, 0), TERM_M))
    w = Word("", "0")
    for code in (counting, steep):
        low = code.lowered
        for check in (lambda: eval_exact_ep(code, w, w),
                      lambda: exists_forall_witness(low, w, w),
                      lambda: least_refutation(low, w, w, 0),
                      lambda: exact_inner_bound(low, w, w, 0)):
            with pytest.raises(UnsupportedAtomError):
                check()


def test_exact_on_compound_formulas():
    x, y = Word("1", "0"), Word("", "0")
    assert eval_exact_ep(And(e0_code(), e0_code()), x, y) is True
    assert eval_exact_ep(And(e0_code(), id_code()), x, y) is False
    assert eval_exact_ep(Or(e0_code(), id_code()), x, y) is True
    # forall-exists by negation: some bit differs, whatever the outer index
    fe = ForallExists(Not(BitEq(TERM_M, TERM_M)))
    assert eval_exact_ep(fe, Word("", "01"), Word("", "10")) is True
    assert eval_exact_ep(fe, x, y) is True
    assert eval_exact_ep(fe, y, y) is False


# ----------------------------------------------------------------- syntax

# The text head of each node, written out apart from the parser's form
# tables, so that a wrong head there breaks the round trips below.
HEADS = {
    IndexTerm: "ix", BitOf: "bit", BitEq: "eq", Le: "le", CountLe: "cntle",
    Not: "not", And: "and", Or: "or", ExistsForall: "ef", ForallExists: "fe",
}


def reference_text(node) -> str:
    """The s-expression of a formula, predicate or index term: each field in order."""
    if isinstance(node, (str, int)):  # a side or a term component
        return str(node)
    fields = [reference_text(getattr(node, f.name)) for f in dataclasses.fields(node)]
    return "(" + " ".join([HEADS[type(node)], *fields]) + ")"


def test_parse_format_round_trip():
    for f in (id_code(), e0_code(),
              And(id_code(), ForallExists(Not(BitOf("y", TERM_M)))),
              Or(e0_code(), ExistsForall(CountLe("x", const_term(0), const_term(4), const_term(2))))):
        assert parse_formula(reference_text(f)) == f


def test_parse_accepts_comments_and_whitespace():
    text = """
    ; a cutoff past which the tails agree
    (ef (or (le (ix 0 1 1) (ix 1 0 0))
            (eq (ix 0 1 0) (ix 0 1 0))))  ; trailing note
    """
    assert parse_formula(text) == e0_code()


def test_parse_formulas_multiple():
    text = "(ef (eq (ix 0 1 0) (ix 0 1 0)))\n(ef (bit x (ix 1 0 0)))"
    fs = parse_formulas(text)
    assert len(fs) == 2
    assert fs[0] == id_code()


def test_parse_errors():
    for bad in (
        "",
        "(zz (eq (ix 0 1 0) (ix 0 1 0)))",
        "(ef)",
        "(ef (eq (ix 0 1 0)))",
        "(ef (bit z (ix 0 1 0)))",
        "(ef (eq (ix 0 1 0) (ix 0 1 0))",
        "(ef (eq (ix 0 1 0) (ix 0 1 0))))",
        "(ef (eq (ix a 1 0) (ix 0 1 0)))",
        "(ef (le (ix 0 1 0) (ix 0 1 0) (ix 0 1 0)))",
        "(ef " + "(not " * 1000 + "(bit x (ix 1 0 0))" + ")" * 1001,
        "(ef (bit x 3))",               # an index term that is not a list
        "(ef ())",                      # an empty form
        "(ef (bit x (iy 1 0 0)))",      # an index term not headed by ix
    ):
        with pytest.raises(ConfigError):
            parse_formula(bad)
    # a negative or nested component is refused by errors.natural, which names it
    for bad in ("(ef (eq (ix -1 1 0) (ix 0 1 0)))", "(ef (eq (ix (0) 1 0) (ix 0 1 0)))"):
        with pytest.raises(ConfigError, match="index term component"):
            parse_formula(bad)


def test_parse_formula_rejects_two_formulas():
    with pytest.raises(ConfigError):
        parse_formula("(ef (bit x (ix 1 0 0))) (ef (bit y (ix 1 0 0)))")


codes = st.recursive(
    st.one_of(st.builds(ExistsForall, code_preds), st.builds(ForallExists, code_preds)),
    lambda inner: st.one_of(st.builds(And, inner, inner), st.builds(Or, inner, inner)),
    max_leaves=4,
)


@settings(max_examples=40)
@given(codes)
def test_pred_syntax_round_trip(f):
    assert parse_formula(reference_text(f)) == f

"""Two-level formula codes: R(x,y,n,m) predicates under an EF or FE prefix.

Predicates are positive-affine: index terms are cN*n + cM*m + c with capped
coefficients, which keeps atom truth eventually periodic in each variable and
makes two-level truth decidable on eventually periodic words.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, NamedTuple

from .errors import ConfigError, UnsupportedAtomError, content_lines, natural

COEFF_CAP = 8

__all__ = [
    "COEFF_CAP",
    "IndexTerm",
    "BitOf",
    "BitEq",
    "Le",
    "CountLe",
    "Not",
    "And",
    "Or",
    "ExistsForall",
    "ForallExists",
    "TERM_N",
    "TERM_M",
    "const_term",
    "Lowered",
    "lower",
    "use_bound",
    "compile_pred",
    "eval_exact_ep",
    "exact_inner_bound",
    "least_refutation",
    "exists_forall_witness",
    "parse_formula",
    "parse_formulas",
]


@dataclass(frozen=True)
class IndexTerm:
    coeff_n: int
    coeff_m: int
    constant: int

    def __post_init__(self):
        for v in (self.coeff_n, self.coeff_m, self.constant):
            # lower pastes these into generated source, so plain ints only
            if type(v) is not int or not 0 <= v <= COEFF_CAP:
                raise ConfigError(f"index term component {v!r} is not an int in [0, {COEFF_CAP}]")

    def value(self, n: int, m: int) -> int:
        return self.coeff_n * n + self.coeff_m * m + self.constant


TERM_N = IndexTerm(1, 0, 0)
TERM_M = IndexTerm(0, 1, 0)


def const_term(c: int) -> IndexTerm:
    return IndexTerm(0, 0, c)


def _check_side(side):
    if side not in ("x", "y"):
        raise ConfigError(f"side must be x or y, got {side!r}")


@dataclass(frozen=True)
class BitOf:
    side: str
    term: IndexTerm

    def __post_init__(self):
        _check_side(self.side)


@dataclass(frozen=True)
class BitEq:
    """x-bit at the first term equals y-bit at the second."""

    term_x: IndexTerm
    term_y: IndexTerm


@dataclass(frozen=True)
class Le:
    lhs: IndexTerm
    rhs: IndexTerm


@dataclass(frozen=True)
class CountLe:
    """Number of ones of one side in [lo, hi) is at most bound."""

    side: str
    lo: IndexTerm
    hi: IndexTerm
    bound: IndexTerm

    def __post_init__(self):
        _check_side(self.side)


@dataclass(frozen=True)
class Not:
    inner: object


@dataclass(frozen=True)
class And:
    left: object
    right: object


@dataclass(frozen=True)
class Or:
    left: object
    right: object


@dataclass(frozen=True)
class ExistsForall:
    pred: object

    @functools.cached_property
    def lowered(self) -> Lowered:
        """lower(pred), built once per node: the atom holds iff its search finds an n."""
        return lower(self.pred)


@dataclass(frozen=True)
class ForallExists:
    pred: object

    @functools.cached_property
    def lowered(self) -> Lowered:
        """lower(Not(pred)), built once per node: the atom fails iff its search finds an n."""
        return lower(Not(self.pred))


# The grammar of the code language: each AST class with its text head and the
# kinds of its fields, p predicate, f formula, s side, t index term.  And, Or
# are one node read at either level; the level's table gives its fields' kind.
_PRED_FORMS = {
    Not: ("not", "p"),
    And: ("and", "pp"),
    Or: ("or", "pp"),
    BitOf: ("bit", "st"),
    BitEq: ("eq", "tt"),
    Le: ("le", "tt"),
    CountLe: ("cntle", "sttt"),
}
_FORMULA_FORMS = {
    ExistsForall: ("ef", "p"),
    ForallExists: ("fe", "p"),
    And: ("and", "ff"),
    Or: ("or", "ff"),
}
_LEVELS = {"p": (_PRED_FORMS, "predicate"), "f": (_FORMULA_FORMS, "formula")}


# ---------------------------------------------------------------- predicates


class Lowered(NamedTuple):
    """A predicate lowered once into the parts its evaluators call.

    Each form emits holds and mask source from a fixed template, and lower
    compiles it once per predicate: the interpreter partially evaluated per
    code (Jones, Gomard and Sestoft, 1993).  Only validated IndexTerm ints
    and fixed names enter the source, never text from the caller.

    holds(view, j, n, lo, hi) is true iff the predicate holds at (n, m) for
    every m in [lo, hi), reading side x as view.target_bit(pos) and side y
    as view.informant_bit(j, pos).  It tests m in ascending order and
    returns at the first false m, and it reads lazily: and, or short-circuit
    left to right, so at each m it reads an atom's positions only when the
    atoms left of it leave the truth open.
    mask(w, n, full) is the int over the word bit-ints w = (xb, yb) whose
    bit m is the truth at (n, m), for every m below the width of full, given
    that xb and yb hold every position the terms reach there.
    search(xb, yb, floor, mu, lift, outer) is the least n < outer whose mask
    at width max(floor, mu*n + lift) is all ones, or None.  Past a failed n
    it tries next the first n at which an le atom turns the bit of the mask's
    highest zero, or n + 1 if a bit or eq atom names n.  mask and search are
    None when the profile refuses.  reads has one (side, term, d) per
    term that reads a bit: every position read at (n, m) is below the largest
    term.value(n, m) + d, or none is read.  profile is (mu, kappa, refusal):
    the largest n-coefficient and constant of any term, and None or the
    message of the UnsupportedAtomError that exact evaluation raises.
    """

    holds: Callable
    mask: Callable | None
    search: Callable | None
    reads: tuple
    profile: tuple


def _profile(*terms, refusal=None):
    """The profile (mu, kappa, refusal) of an atom over the given terms."""
    if any(t.coeff_n > 1 or t.coeff_m > 1 for t in terms):
        refusal = refusal or "exact evaluation requires index coefficients 0 or 1"
    return max(t.coeff_n for t in terms), max(t.constant for t in terms), refusal


def _affine(cn: int, cm: int, c: int) -> str:
    """Source of cn*n + cm*m + c."""
    parts = [v if k == 1 else f"{k}*{v}" for v, k in (("n", cn), ("m", cm)) if k]
    return " + ".join(parts + [str(c)] if c or not parts else parts)


def _at(t: IndexTerm) -> str:
    """Source of t.value(n, m)."""
    return _affine(t.coeff_n, t.coeff_m, t.constant)


def _clamp(cn: int, c: int) -> str:
    """Source of max(cn*n + c, 0), given n >= 0."""
    return _affine(cn, 0, c) if cn >= 0 and c >= 0 else f"max({_affine(cn, 0, c)}, 0)"


def _bit_mask(s: str, t: IndexTerm) -> str:
    """Mask source of the bit of word s at the 0/1-coefficient term t."""
    shift = _affine(t.coeff_n, 0, t.constant)
    shifted = s if shift == "0" else f"{s} >> ({shift})"
    return f"({shifted} & full)" if t.coeff_m else f"(full if {shifted} & 1 else 0)"


# holds source of the read of each side's bit at a position, through the view
_READ = {"x": "view.target_bit({})", "y": "view.informant_bit(j, {})"}
# mask source of each connective over the masks of its operands
_JOIN = {Not: "(full ^ {})", And: "({} & {})", Or: "({} | {})"}


def _lower(p):
    """(holds, mask, reads, profile, turns) of p, holds and mask as source;
    see Lowered.  turns has the source of each n at which an le atom's mask
    bit at m turns, for the search's jump; see the exact-truth comment.

    x and y name the bit-ints in mask; mask is None under a CountLe atom.
    """
    if isinstance(p, Not):
        h, k, reads, profile, turns = _lower(p.inner)
        return f"(not {h})", k and _JOIN[Not].format(k), reads, profile, turns
    if isinstance(p, (And, Or)):
        (ha, ka, ra, pa, ta), (hb, kb, rb, pb, tb) = _lower(p.left), _lower(p.right)
        profile = (max(pa[0], pb[0]), max(pa[1], pb[1]), pa[2] or pb[2])
        op = "and" if isinstance(p, And) else "or"
        return (f"({ha} {op} {hb})", ka and kb and _JOIN[type(p)].format(ka, kb), ra + rb,
                profile, ta + tb)
    if isinstance(p, BitOf):
        s, t = "xy"["xy".index(p.side)], p.term
        return (f"({_READ[s].format(_at(t))} == 1)", _bit_mask(s, t), ((p.side, t, 1),),
                _profile(t), ())
    if isinstance(p, BitEq):
        tx, ty = p.term_x, p.term_y
        return (f"({_READ['x'].format(_at(tx))} == {_READ['y'].format(_at(ty))})",
                f"(full ^ {_bit_mask('x', tx)} ^ {_bit_mask('y', ty)})",
                (("x", tx, 1), ("y", ty, 1)), _profile(tx, ty), ())
    if isinstance(p, Le):
        # lhs <= rhs iff d + slope*m >= 0, d being rhs - lhs at m = 0
        l, r = p.lhs, p.rhs
        dn, dc = r.coeff_n - l.coeff_n, r.constant - l.constant
        slope = r.coeff_m - l.coeff_m
        if slope == 0:
            mask = f"(full if {_affine(dn, 0, dc)} >= 0 else 0)"
        elif slope < 0:  # the low range m <= d
            mask = f"(full & ((1 << {_clamp(dn, dc + 1)}) - 1))"
        else:  # the high range m >= -d: clear the max(-d, 0) low bits
            mask = f"(full & -(1 << {_clamp(-dn, -dc)}))"
        # the bit at m, dn*n + dc + slope*m >= 0, turns on at n = -(dc + slope*m)
        # if dn = 1 and off at n = dc + slope*m + 1 if dn = -1; at dn = 0 never
        turn = _affine(0, -slope, -dc) if dn == 1 else _affine(0, slope, dc + 1)
        return f"({_at(l)} <= {_at(r)})", mask, (), _profile(l, r), (turn,) if dn else ()
    if isinstance(p, CountLe):
        one, lo, hi, bd = _READ[p.side].format("i"), p.lo, p.hi, p.bound
        return (f"(sum({one} for i in range({_at(lo)}, {_at(hi)})) <= {_at(bd)})", None,
                ((p.side, hi, 0),), _profile(lo, hi, bd, refusal=(
                    "CountLe atoms have no periodicity threshold; use the relation's oracle")), ())
    raise ConfigError(f"not a predicate node: {p!r}")


_HOLDS_SOURCE = """
def holds(view, j, n, lo, hi):
    for m in range(lo, hi):
        if not {holds}:
            return False
    return True
"""
# mask, and the outer loop of the exact EF search with its bounds from _exact_bounds
_EXACT_SOURCE = """
def mask(w, n, full):
    x, y = w
    return {mask}

def search(x, y, floor, mu, lift, outer):
    n = 0
    while n < outer:
        width = mu * n + lift
        full = (1 << (width if width > floor else floor)) - 1
        k = {mask}
        if k == full:
            return n
{advance}    return None
"""
# past a failed n: n + 1, or the first later n at which some le atom turns
# its bit at m, the highest zero of the mask, or none when no atom turns
_STEP = "        n += 1\n"
_JUMP = "        m = (full ^ k).bit_length() - 1\n        after = outer\n{}        n = after\n"
_TURN = "        if n < {0} < after:\n            after = {0}\n"


def lower(p) -> Lowered:
    """Lower the predicate p and compile its parts, anew on each call; see
    Lowered.  Each EF or FE code node keeps its lowering in `.lowered`."""
    holds, mask, reads, profile, turns = _lower(p)
    source = _HOLDS_SOURCE.format(holds=holds)
    if not profile[2]:
        if any(t.coeff_n for _, t, _ in reads):
            advance = _STEP
        else:
            advance = _JUMP.format("".join(map(_TURN.format, turns)))
        source += _EXACT_SOURCE.format(mask=mask, advance=advance)
    # all they call
    namespace = {"__builtins__": {"max": max, "range": range, "sum": sum}}
    try:
        exec(source, namespace)
    except SyntaxError:  # the parser's nesting limit, near 190 levels
        raise ConfigError("predicate nests too deep to compile") from None
    return Lowered(namespace["holds"], namespace.get("mask"), namespace.get("search"),
                   reads, profile)


# The library reads lower(p) directly; bench/spans.py wraps these two by name.
def use_bound(p, n: int, m: int) -> int:
    """Positions >= use_bound(n, m) are never read to evaluate p at (n, m)."""
    return max((t.value(n, m) + d for _, t, d in lower(p).reads), default=0)


def compile_pred(p, xbit, ybit):
    """Compile to a closure (n, m) -> bool over the two bit sources."""
    holds = lower(p).holds
    view = SimpleNamespace(target_bit=xbit, informant_bit=lambda j, pos: ybit(pos))
    return lambda n, m: holds(view, 0, n, m, m + 1)


# ------------------------------------------------------------- exact truth
#
# For a fixed outer value n, every atom's truth is periodic in m with period
# P = lcm(|per_x|, |per_y|) once m is past max(L, mu*n + kappa + 1), where
# L = max preperiod length and (mu, kappa) the lowering's profile: bit
# positions cN*n + cM*m + c then sit in the periodic tails of both words
# (cM >= 1 implies position >= m), and every Le comparison has stabilized.
# Scanning one extra period therefore decides the inner universal exactly.
#
# For the outer variable, shifting n by P maps surviving inner assignments to
# surviving inner assignments via m -> m +- P once n exceeds L + 2P + 2k + 1,
# provided every coefficient is 0 or 1 (coefficient 2 and up would need the
# shift 2P on positions but P on the guards, which breaks the pairing).  So a
# true EF formula has a witness below max(T, L + 3P + 2k + 2), where T is the
# coarser classical bound: preperiod mass plus two periods times the
# coefficient lcm, which is 1 here.  Coefficients above 1 and CountLe atoms
# have no such bound: the lowering's profile records the refusal, and exact
# evaluation raises it rather than guess.
#
# The inner scan decides every m at once, shift-and style (Baeza-Yates and
# Gonnet, CACM 35(10), 1992): each word becomes one int of its bits, and the
# lowering's mask turns them into an int whose bit m is the predicate's truth
# at (n, m).  A bit atom is a word's bit-int shifted right by cN*n + c (all
# ones or none if cM = 0), an Le atom a low or high range of m.  The universal
# holds iff all bits are set; the lowest zero bit refutes it.  The mask is an
# expression generated from one template per predicate form, with only the
# validated integers of the terms pasted in, and the lowering's search runs
# the whole outer loop below over it as one compiled function per code.
# The search takes two shortcuts.  Past a failed n, unless a bit or eq atom
# names n, the search jumps to the first later n at which an le atom turns
# its bit at m, the mask's highest zero, and stops if none does: the skip
# rule of Boyer and Moore (CACM 20(10), 1977) on the outer variable.  It is
# exact because the mask is bitwise in m and m stays below the width, which
# never shrinks: every other part keeps its bit at m, so each n skipped keeps
# the zero there.  An le atom's bit at m, dn*n + dc + slope*m >= 0, turns at
# most once as n grows.  So a code whose terms never name n tries n = 0 alone.
# Each word keeps its bit-int (Word.bit_int) between searches, rebuilt only
# for a longer length: no mask reads a bit at or past the length its search
# asks for.  A search past SCAN_CAP or LENGTH_CAP is refused, not run.

# Outer values tried times the widest inner width past which exists_forall_witness
# refuses.  At the cap a search that steps through every n takes seconds, more
# with more atoms at each n (2-core Xeon, Python 3.11.7, words of periods 221
# and 225): 2.9-3.7 s for or(le(m+1, n), eq(n+m, m)), 6.4-8.4 s for that or
# joined by and to or(eq(m, m+1), not bit(y, m+2)); e0's search jumps, and
# takes 4 ms there.
SCAN_CAP = 3 * 10**10
# Bits of each word's bit-int past which exists_forall_witness refuses.  At the
# cap id's search, which tries n = 0 alone, takes 4.1 s and peaks at 829 MiB RSS
# (periods 19,999 and 20,000, same host); periods 100,000 and 100,001 put its
# one n under SCAN_CAP but would need gigabytes here.
LENGTH_CAP = 4 * 10**8


def _exact_bounds(low: Lowered, x, y):
    """Scan bounds of the exact EF search on x, y, as (floor, mu, lift, outer).

    At outer value n the inner universal is decided by the m below
    max(floor, mu*n + lift) = max(L, mu*n + kappa + 1) + P, and a true
    formula has a witness n < outer.
    """
    mu, kappa, refusal = low.profile
    if refusal:
        raise UnsupportedAtomError(refusal)
    big_l = max(len(x.pre), len(y.pre))
    period = math.lcm(len(x.per), len(y.per))
    classical = len(x.pre) + len(y.pre) + 2 * period
    outer = max(classical, big_l + 3 * period + 2 * kappa + 2)
    return big_l + period, mu, kappa + 1 + period, outer


def exact_inner_bound(low: Lowered, x, y, n: int) -> int:
    if n < 0:
        raise ConfigError(f"negative outer value {n}")
    floor, mu, lift, _ = _exact_bounds(low, x, y)
    return max(floor, mu * n + lift)


def least_refutation(low: Lowered, x, y, n: int) -> int | None:
    """Least m at which the lowered predicate fails at outer value n; None if it never does."""
    width = exact_inner_bound(low, x, y, n)
    length = n + width + COEFF_CAP
    full = (1 << width) - 1
    miss = full ^ low.mask((x.bit_int(length), y.bit_int(length)), n, full)
    return (miss & -miss).bit_length() - 1 if miss else None


def exists_forall_witness(low: Lowered, x, y) -> int | None:
    """Least exact witness n of the EF atom over the lowered predicate, or None."""
    floor, mu, lift, outer = _exact_bounds(low, x, y)
    width = max(floor, mu * outer + lift)
    tried = outer if mu else 1  # at mu = 0 the search tries n = 0 alone
    if tried * width > SCAN_CAP:
        raise ConfigError(f"exact search of {tried} x {width} bits passes the cap of {SCAN_CAP}")
    # positions read at n < tried stay below n + width(n) + kappa
    length = tried + width + COEFF_CAP
    if length > LENGTH_CAP:
        raise ConfigError(f"exact search reads {length} bits of each word, "
                          f"past the cap of {LENGTH_CAP}")
    return low.search(x.bit_int(length), y.bit_int(length), floor, mu, lift, outer)


def eval_exact_ep(f, x, y) -> bool:
    """Exact two-level truth on eventually periodic words."""
    if isinstance(f, ExistsForall):
        return exists_forall_witness(f.lowered, x, y) is not None
    if isinstance(f, ForallExists):
        return exists_forall_witness(f.lowered, x, y) is None
    if isinstance(f, And):
        return eval_exact_ep(f.left, x, y) and eval_exact_ep(f.right, x, y)
    if isinstance(f, Or):
        return eval_exact_ep(f.left, x, y) or eval_exact_ep(f.right, x, y)
    raise ConfigError(f"not a formula node: {f!r}")


# ------------------------------------------------------------- text format

_MAX_NESTING = 64  # catalog codes nest 4 deep; far deeper text exhausts the stack


def _tokenize(text: str):
    clean = " ".join(line for _, _, line in content_lines(text, ";"))
    return clean.replace("(", " ( ").replace(")", " ) ").split()


def _read_sexp(tokens, pos, depth=0):
    tok = tokens[pos]
    if tok == "(":
        if depth == _MAX_NESTING:
            raise ConfigError(f"formula text nests deeper than {_MAX_NESTING} parentheses")
        items = []
        pos += 1
        while pos < len(tokens) and tokens[pos] != ")":
            item, pos = _read_sexp(tokens, pos, depth + 1)
            items.append(item)
        if pos >= len(tokens):
            raise ConfigError("unbalanced '(' in formula text")
        return items, pos + 1
    if tok == ")":
        raise ConfigError("unbalanced ')' in formula text")
    return tok, pos + 1


def _node_of_sexp(sx, kind: str):
    """The field of the given kind that the s-expression sx writes."""
    if kind == "s":
        return sx  # BitOf and CountLe reject anything but x or y
    if kind == "t":
        if not (isinstance(sx, list) and len(sx) == 4 and sx[0] == "ix"):
            raise ConfigError(f"expected (ix cN cM c), got {sx!r}")
        return IndexTerm(*(natural(tok, "index term component") for tok in sx[1:]))
    forms, what = _LEVELS[kind]
    if not isinstance(sx, list) or not sx:
        raise ConfigError(f"expected a {what} form, got {sx!r}")
    for cls, (head, kinds) in forms.items():
        if sx[0] == head and len(sx) == 1 + len(kinds):
            return cls(*map(_node_of_sexp, sx[1:], kinds))
    raise ConfigError(f"unknown {what} form: {sx!r}")


def parse_formulas(text: str) -> list:
    tokens = _tokenize(text)
    out, pos = [], 0
    while pos < len(tokens):
        sx, pos = _read_sexp(tokens, pos)
        out.append(_node_of_sexp(sx, "f"))
    if not out:
        raise ConfigError("no formula found in text")
    return out


def parse_formula(text: str):
    forms = parse_formulas(text)
    if len(forms) != 1:
        raise ConfigError(f"expected exactly one formula, found {len(forms)}")
    return forms[0]


"""Catalog of equivalence relations on eventually periodic words.

Each entry bundles a name, an optional two-level formula code, an exact
oracle, and learnability metadata.  Trees with periodic branch generators
drive the E_T construction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ConfigError, content_lines, natural
from .formulas import (
    TERM_M,
    TERM_N,
    BitEq,
    ExistsForall,
    IndexTerm,
    Le,
    Or,
)
from .words import Word, split_even_odd, with_bits

__all__ = [
    "RelationSpec",
    "TreeSpec",
    "CATALOG_NAMES",
    "catalog_rows",
    "make_relation",
    "branch_word",
    "parse_tree_file",
    "id_code",
    "e0_code",
    "oscillation_display_holds",
    "OSC_COUNT_BOUND",
    "OSC_WINDOW",
]

@dataclass(frozen=True)
class RelationSpec:
    name: str
    code: object | None
    decide: object
    learnable: str


# ------------------------------------------------------------------- trees


@dataclass(frozen=True)
class TreeSpec:
    """Finitely described subtree of the naturals-sequences tree.

    Generators (u, v) denote an infinite branch: the labels of u, then from
    the last label (0 for empty u) the increments of v applied cyclically.
    """

    nodes: frozenset
    generators: frozenset

    def __post_init__(self):
        for node in self.nodes:
            _check_nat_tuple(node, "node")
        for u, v in self.generators:
            _check_nat_tuple(u, "generator stem")
            _check_nat_tuple(v, "generator cycle")
            if not v:
                raise ConfigError("generator cycle must be nonempty")
        # branch_word is linear in the bits, so the cap is on their sum: falsify --max-size 1 takes
        # 0.1 s on a 999,999-bit generator and 0.6-0.9 s on a 999,993-bit one with a
        # 499,996-label stem (2-core Xeon, Python 3.11.7)
        if sum((u[-1] if u else 0) + 1 + sum(v) for u, v in self.generators) > 1_000_000:
            raise ConfigError("tree generators span more than 1,000,000 bits in total")
        for node in self.nodes:
            # node[:i] lies on a branch exactly for i <= on_branch; the root is in every tree
            on_branch = max((_shared_labels(node, g) for g in self.generators), default=0)
            for i in range(on_branch + 1, len(node)):
                if node[:i] not in self.nodes:
                    raise ConfigError(f"tree not prefix-closed at {node[:i]}")


def _check_nat_tuple(t, what):
    if not isinstance(t, tuple) or any(not isinstance(v, int) or v < 0 for v in t):
        raise ConfigError(f"{what} must be a tuple of naturals: {t!r}")


def _branch_labels(gen, count: int) -> list[int]:
    u, v = gen
    labels = list(u[:count])
    cur = u[-1] if u else 0
    t = 0
    while len(labels) < count:
        cur += v[t % len(v)]
        labels.append(cur)
        t += 1
    return labels


def _shared_labels(node, gen) -> int:
    """How many leading labels `node` shares with the branch of `gen`."""
    pairs = zip(node, _branch_labels(gen, len(node)))
    return next((i for i, (a, b) in enumerate(pairs) if a != b), len(node))


def branch_word(gen) -> Word | None:
    """Characteristic word of the branch as an increasing enumeration.

    None when the branch is not strictly increasing and hence is the
    principal function of no word.
    """
    u, v = gen
    if any(b <= a for a, b in zip(u, u[1:])) or min(v) < 1:
        return None
    cut = (u[-1] if u else 0) + 1
    text = bytearray(b"0" * (cut + sum(v)))
    for label in _branch_labels(gen, len(u) + len(v)):  # the stem and one cycle
        text[label] = 49  # "1"
    return Word(text[:cut].decode(), text[cut:].decode())


def parse_tree_file(text: str) -> TreeSpec:
    """Lines `node 0.1.4` and `gen 3 : 1.2` (stem may be empty); # comments."""
    nodes, gens = set(), set()

    def path(tok: str) -> tuple:
        if not tok:
            return ()
        # one component at a time: split()'s list of strings would outlive the ints
        return tuple(natural(v[1], "tree path component")
                     for v in re.finditer(r"(?:^|\.)([^.]*)", tok))

    for _, raw, line in content_lines(text, "#"):
        parts = line.split()
        if parts[0] == "node" and len(parts) == 2:
            nodes.add(path(parts[1]))
        elif parts[0] == "gen":
            rest = line[len("gen") :].strip()
            if ":" not in rest:
                raise ConfigError(f"generator line needs ':': {raw!r}")
            stem, cycle = (side.strip() for side in rest.split(":", 1))
            if not cycle:
                raise ConfigError(f"generator cycle missing: {raw!r}")
            gens.add((path(stem), path(cycle)))
        else:
            raise ConfigError(f"bad tree line: {raw!r}")
    return TreeSpec(frozenset(nodes), frozenset(gens))


# ------------------------------------------------------------------ oracles


def _decide_id(x, y):
    return x == y


def _decide_e0(x, y):
    # canonical words with equal tails share one primitive period, so one period decides
    p, start = len(x.per), max(len(x.pre), len(y.pre))
    return len(y.per) == p and x.prefix(start + p)[start:] == y.prefix(start + p)[start:]


def _decide_sim0(x, y):
    return (x.is_inf and y.is_inf) or x == y


def _decide_sim1(x, y):
    return x.is_inf == y.is_inf


def _decide_sim3(x, y):
    if x == y:
        return True
    return x.is_inf and y.is_inf and with_bits(x, {0: 0}) == with_bits(y, {0: 0})  # equal past bit 0


def _decide_sim4(x, y):
    if _decide_sim3(x, y):
        return True
    return x.bit(0) == y.bit(0) == 1 and not x.is_inf and not y.is_inf


def _decide_sim5(x, y):
    if _decide_sim3(x, y):
        return True
    return x.bit(0) == y.bit(0) and not x.is_inf and not y.is_inf


def _tree_decider(branches: frozenset):
    """E_T: equal, or even parts in `branches` and odd parts infinite."""

    def decide(x, y):
        if x == y:
            return True
        ex, ox = split_even_odd(x)
        ey, oy = split_even_odd(y)
        return ex in branches and ey in branches and ox.is_inf and oy.is_inf

    return decide


# The oscillation relation collapses to INF-agreement here: an eventually
# periodic word has bounded zero runs exactly when it is INF, so the display's
# one-counts over zero blocks are mutually bounded exactly for INF pairs and
# for finite-support pairs.  The bounded display evaluation below is the
# independent safeguard for that collapse.

OSC_COUNT_BOUND = 16
OSC_WINDOW = 64


def oscillation_display_holds(x, y) -> bool:
    """Direct evaluation of the oscillation display over bounded parameters.

    Checks whether some N <= OSC_COUNT_BOUND works for every open interval
    (n, n+m) with n+m <= OSC_WINDOW.
    """
    sx = [0]
    sy = [0]
    for i in range(OSC_WINDOW + 1):
        sx.append(sx[-1] + x.bit(i))
        sy.append(sy[-1] + y.bit(i))

    def worst(szero, sones):
        worst_count = 0
        for n in range(OSC_WINDOW + 1):
            for top in range(n + 2, OSC_WINDOW + 1):
                # open interval (n, top): positions n+1 .. top-1
                if szero[top] - szero[n + 1] == 0:
                    worst_count = max(worst_count, sones[top] - sones[n + 1])
        return worst_count

    needed = max(worst(sx, sy), worst(sy, sx)) + 1
    return needed <= OSC_COUNT_BOUND


# ------------------------------------------------------------------ catalog


def id_code():
    return ExistsForall(BitEq(TERM_M, TERM_M))


def e0_code():
    # guard m < n written as m+1 <= n
    return ExistsForall(Or(Le(IndexTerm(0, 1, 1), TERM_N), BitEq(TERM_M, TERM_M)))


# The labels state the paper's results on all of Cantor space, where oscillation (YES)
# and sim1 (NO) differ; on eventually periodic words both decide by _decide_sim1.
_CATALOG = {
    "id": ("YES", "equality of sequences", _decide_id, id_code),
    "e0": ("YES", "eventual equality of tails", _decide_e0, e0_code),
    "oscillation": ("YES", "mutually bounded one-counts over zero blocks", _decide_sim1, None),
    "sim0": ("NO", "both infinite support, or equal", _decide_sim0, None),
    "sim1": ("NO", "same side of the infinite-support divide", _decide_sim1, None),
    "sim3": ("NO", "equal, or both infinite and equal past position 0", _decide_sim3, None),
    "sim4": ("NO", "as sim3, or both finite starting with 1", _decide_sim4, None),
    "sim5": ("NO", "as sim3, or both finite agreeing at 0", _decide_sim5, None),
    "tree": ("N/A", "equal, or even parts on tree branches with infinite odd parts", None, None),
}
CATALOG_NAMES = tuple(_CATALOG)


def catalog_rows():
    """Name, learnability label, and summary for every catalog relation."""
    return tuple((name,) + _CATALOG[name][:2] for name in CATALOG_NAMES)


def make_relation(name: str, params: TreeSpec | None = None) -> RelationSpec:
    if name not in _CATALOG:
        raise ConfigError(f"unknown relation {name!r}; catalog: {', '.join(CATALOG_NAMES)}")
    learnable, _, decide, code_fn = _CATALOG[name]
    if name == "tree":
        if params is None:
            raise ConfigError("relation tree needs a TreeSpec")
        branches = frozenset(w for w in map(branch_word, params.generators) if w is not None)
        return RelationSpec("tree", None, _tree_decider(branches), "NO" if branches else "YES")
    if params is not None:
        raise ConfigError(f"relation {name!r} takes no tree parameter")
    return RelationSpec(name, code_fn() if code_fn else None, decide, learnable)

"""Learner construction.

A learner is a deterministic stage machine: step(state, stage, view) returns
the successor state and a hypothesis index into the informant.  All queries go
through the view, which enforces the learner's declared use schedule, so
determinism plus the schedule realizes the continuity contract.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

from . import words
from .errors import ConfigError, ContractViolation, content_lines, natural, read_text
from .formulas import ExistsForall, parse_formula, parse_formulas
from .words import Word

__all__ = [
    "cantor_unpair",
    "Informant",
    "Learner",
    "SynthLearner",
    "SeparatorLearner",
    "CountableClassLearner",
    "ClassIndexSets",
    "class_index_sets",
    "BcToExLearner",
    "TransportLearner",
    "CyclingLearner",
    "RecentOnesLearner",
    "learner_from_string",
]


def cantor_unpair(k: int) -> tuple[int, int]:
    w = (math.isqrt(8 * k + 1) - 1) // 2
    b = k - w * (w + 1) // 2
    return w - b, b


class Informant:
    """Reference words: word j is fn(j), called on each lookup, for j < size,
    or for every j >= 0 when size is None (a generator); else word(j) is None."""

    def __init__(self, fn, size=None):
        self._fn = fn
        self.size = size

    @staticmethod
    def explicit(ws) -> "Informant":
        ws = tuple(ws)
        if not ws:
            raise ConfigError("explicit informant must be nonempty")
        return Informant(ws.__getitem__, len(ws))

    def word(self, j: int) -> Word | None:
        if j < 0 or self.size is not None and j >= self.size:
            return None
        return self._fn(j)

    def explicit_words(self) -> tuple[Word, ...]:
        if self.size is None:
            raise ConfigError("operation needs an explicit informant")
        return tuple(map(self._fn, range(self.size)))


class Learner:
    """Deterministic stage machine with a declared use schedule.

    A learner declares `use`, its use schedule of (a, b) pairs, `start_state`,
    the state stage 0 steps from, and `pointer_at`, the state field holding
    its pointer (None: it has none).  It overrides neither schedule method:
    `use_bound_at(s)` is the largest a*s + b over the pairs, never below 0,
    so the empty schedule reads nothing; a session reads it via `use_bounds`.
    `step` must be a deterministic function of its state, its stage and the
    answers its view returns: no clock, randomness or other hidden input.
    So two runs whose views answer every read alike are the same run.
    A state is a value that `step` never mutates: `step` returns the
    successor, so a caller may step from a kept state again.
    A view answers reads only during the `step` call it is passed to;
    `run_session` reuses one view object for every stage, so a learner
    must not keep it.
    """

    use = ()
    start_state = None
    pointer_at = None

    def step(self, state, stage: int, view):
        raise NotImplementedError

    def use_bound_at(self, stage: int) -> int:
        bound = 0
        for a, b in self.use:
            if a * stage + b > bound:
                bound = a * stage + b
        return bound

    def use_bounds(self, horizon: int) -> list:
        """`use_bound_at` over 0..horizon, as a session reads it: a lone pair
        (a, b) with a, b >= 0 as its column a*s + b, else stage by stage."""
        n = horizon + 1
        if len(self.use) != 1 or min(self.use[0]) < 0:
            return list(map(self.use_bound_at, range(n)))
        a, b = self.use[0]
        return list(range(b, b + a * n, a)) if a else [b] * n


def _stage_use(lowerings) -> tuple:
    """(a, b) pairs whose largest a*s + b is the use bound at n = m = s."""
    return tuple({(t.coeff_n + t.coeff_m, t.constant + d)
                  for low in lowerings for _, t, d in low.reads})


class SynthLearner(Learner):
    """Learner synthesized from a single EF code.

    The state walks the Cantor enumeration of pairs (informant index, inner
    witness).  At stage s the pointer skips, while it is below s, every pair
    refuted by some m < s and every pair whose informant index is out of
    range, then the current pair's index component is emitted.  The pointer
    cap of one pair per elapsed stage keeps each stage finite even on codes
    that refute everything.
    """

    def __init__(self, code, informant: Informant):
        if not isinstance(code, ExistsForall):
            raise ConfigError("synthesizer needs a single exists-forall atom")
        self.code = code
        self.lowered = code.lowered
        self.use = _stage_use([self.lowered])
        self.informant = informant

    # (pointer k, first m not yet checked against its pair, that pair a, b = cantor_unpair(k))
    start_state = (0, 0, 0, 0)
    pointer_at = 0

    def step(self, state, stage: int, view):
        k, next_m, a, b = state
        if k >= stage:
            return state, a
        size = view.informant_size
        while True:
            if (size is None or a < size) and self.lowered.holds(view, a, b, next_m, stage):
                return (k, stage, a, b), a
            k += 1
            next_m = 0
            a, b = (a - 1, b + 1) if a else (b + 1, 0)  # the pair cantor_unpair(k)
            if k == stage:
                return (k, 0, a, b), a


class SeparatorLearner(Learner):
    """Learner from a finite list of unary set codes over the target.

    Emits the set component of the minimal surviving (set, witness) pair
    below the stage, with the stage itself as the nothing-survives sentinel.
    """

    def __init__(self, set_codes):
        set_codes = tuple(set_codes)
        if not set_codes:
            raise ConfigError("separator learner needs at least one set code")
        for code in set_codes:
            if not isinstance(code, ExistsForall):
                raise ConfigError("separator codes must be single exists-forall atoms")
            if {side for side, _, _ in code.lowered.reads} - {"x"}:
                raise ConfigError("separator codes must mention only the target side x")
        self.lowered = tuple(c.lowered for c in set_codes)
        self.use = _stage_use(self.lowered)

    def step(self, state, stage: int, view):
        for idx in range(stage):
            i, n = cantor_unpair(idx)
            if i < len(self.lowered) and self.lowered[i].holds(view, 0, n, 0, stage):
                return state, i
        return state, stage


class CountableClassLearner(Learner):
    """Learner for countable classes given by finite row enumerations.

    Hypothesis at stage n: least row i < n holding, within its first n
    entries, a word agreeing with the target on the first n bits; sentinel n.
    """

    def __init__(self, rows):
        self.rows = tuple(tuple(r) for r in rows)

    use = ((1, 0),)

    def step(self, state, stage: int, view):
        got = "".join(str(view.target_bit(i)) for i in range(stage))
        for i, row in enumerate(self.rows[:stage]):
            if any(w.prefix(stage) == got for w in row[:stage]):
                return state, i
        return state, stage


@dataclass(frozen=True)
class ClassIndexSets:
    """For each informant index i, the block e_i of indices equivalent to i."""

    blocks: tuple

    def __post_init__(self):
        for i, block in enumerate(self.blocks):
            if i not in block:
                raise ConfigError(f"class block e_{i} must contain {i}")
            for j in block:
                if not 0 <= j < len(self.blocks):
                    raise ConfigError(f"class block e_{i} mentions out-of-range index {j}")
                if self.blocks[j] != block:
                    raise ConfigError(f"class blocks e_{i} and e_{j} disagree")


def class_index_sets(relation, informant_words) -> ClassIndexSets:
    ws = tuple(informant_words)
    return ClassIndexSets(
        tuple(
            frozenset(j for j, wj in enumerate(ws) if relation.decide(wj, wi))
            for wi in ws
        )
    )


class BcToExLearner(Learner):
    """Wraps a BC learner, replacing each hypothesis h by min(e_h)."""

    def __init__(self, inner: Learner, classes: ClassIndexSets):
        self.inner = inner
        self.classes = classes
        self.use, self.start_state, self.pointer_at = inner.use, inner.start_state, inner.pointer_at

    def step(self, state, stage: int, view):
        state, h = self.inner.step(state, stage, view)
        if not 0 <= h < len(self.classes.blocks):
            raise ContractViolation(
                f"hypothesis {h} outside the class structure over {len(self.classes.blocks)} indices"
            )
        return state, min(self.classes.blocks[h])


class _PrefixedView:
    """The session view seen through a fixed bit prefix: position pos of a
    word reads prefix[pos] below len(prefix), else the input at
    pos - len(prefix)."""

    def __init__(self, view, prefix: str):
        self._view = view
        self._prefix = prefix
        self.informant_size = view.informant_size

    def target_bit(self, pos):
        k = len(self._prefix)
        # 0 <= keeps a negative position on its way to the session view,
        # which rejects it; prefix[-1] would answer it
        if 0 <= pos < k:
            return int(self._prefix[pos])
        return self._view.target_bit(pos - k)

    def informant_bit(self, j, pos):
        k = len(self._prefix)
        if 0 <= pos < k:
            # the session view is not asked here, so reject a bad index as it would
            size = self.informant_size
            if j < 0 or size is not None and j >= size:
                raise ConfigError(f"informant index {j} out of range")
            return int(self._prefix[pos])
        return self._view.informant_bit(j, pos - k)


class TransportLearner(Learner):
    """Runs the base learner, stage for stage, on the words with `prefix`
    put in front: the reduction w -> prefix + w."""

    def __init__(self, base: Learner, prefix: str):
        self.base = base
        self.prefix = prefix
        # the prefix answers the base's first reads
        self.use = tuple((a, b - len(prefix)) for a, b in base.use)
        self.start_state, self.pointer_at = base.start_state, base.pointer_at

    def step(self, state, stage: int, view):
        return self.base.step(state, stage, _PrefixedView(view, self.prefix))


class CyclingLearner(Learner):
    """Emits block[stage % len(block)], reading nothing: over one index, the
    constant learner; over a class block, the BC fixture that never converges."""

    def __init__(self, block):
        self.block = tuple(block)
        if not self.block:
            raise ConfigError("cycling learner needs a nonempty block")

    def step(self, state, stage: int, view):
        return state, self.block[stage % len(self.block)]


class RecentOnesLearner(Learner):
    """Candidate infinite-support classifier: a one in the recent window means
    hypothesis 0, otherwise a guess derived from the ones seen so far."""

    def __init__(self, window: int = 8):
        if window < 1:
            raise ConfigError("window must be positive")
        self.window = window

    use = ((1, 0),)

    def step(self, state, stage: int, view):
        recent = range(max(0, stage - self.window), stage)
        if any(view.target_bit(i) == 1 for i in recent):
            return state, 0
        ones = sum(view.target_bit(i) for i in range(stage))
        return state, 1 + ones


# each reduction puts its fixed bits in front of every word
_REDUCTIONS = {"identity": "", "prefix0": "0", "prefix1": "1"}
# each bc2ex: or transport:RED: layer adds a frame to the build and to every
# step, so 2,000 layers exhaust the stack; the cap mirrors formulas._MAX_NESTING
_MAX_LAYERS = 64


def learner_from_string(spec: str, relation=None, informant: Informant | None = None, base_dir: str = ".") -> Learner:
    """Build a learner from a selection string like synth:FILE or cycling:2."""
    if re.match(f"(?:bc2ex:|transport:[^:]*:){{{_MAX_LAYERS + 1}}}", spec):
        raise ConfigError(f"learner string wraps more than {_MAX_LAYERS} bc2ex/transport layers")
    kind, _, rest = spec.partition(":")

    def read():
        return read_text(Path(base_dir) / rest, f"{kind} file")

    def number(default=""):
        return natural(rest or default, f"{kind} argument")

    def need_classes():
        if relation is None or informant is None or informant.size is None:
            raise ConfigError(f"{kind} learner needs a relation and an explicit informant")
        return class_index_sets(relation, informant.explicit_words())

    if kind == "synth":
        if informant is None:
            raise ConfigError("synth learner needs an informant")
        return SynthLearner(parse_formula(read()), informant)
    if kind == "separators":
        return SeparatorLearner(parse_formulas(read()))
    if kind == "countable":
        rows = [[words.parse_word(tok) for tok in line.split()]
                for _, _, line in content_lines(read(), "#")]
        if not rows:
            raise ConfigError("rows file holds no rows")
        return CountableClassLearner(rows)
    if kind == "bc2ex":
        if not rest:
            raise ConfigError("bc2ex needs an inner learner string")
        return BcToExLearner(learner_from_string(rest, relation, informant, base_dir), need_classes())
    if kind == "transport":
        red_name, _, inner = rest.partition(":")
        if red_name not in _REDUCTIONS:
            raise ConfigError(f"unknown reduction {red_name!r}; have {', '.join(sorted(_REDUCTIONS))}")
        if not inner:
            raise ConfigError("transport needs an inner learner string")
        return TransportLearner(learner_from_string(inner, relation, informant, base_dir), _REDUCTIONS[red_name])
    if kind == "cycling":
        blocks, true_class = need_classes().blocks, number()
        if true_class >= len(blocks):
            raise ConfigError(f"true class {true_class} out of range")
        if len(blocks[true_class]) < 2:
            raise ConfigError("cycling learner needs a class block with at least 2 elements")
        return CyclingLearner(sorted(blocks[true_class]))
    if kind == "constant":
        return CyclingLearner((number(0),))
    if kind == "recent-ones":
        return RecentOnesLearner(number(8))
    raise ConfigError(f"unknown learner kind {kind!r}")

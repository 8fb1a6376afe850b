"""Learning game runtime.

Runs a learner against a target and an informant stage by stage, recording
hypotheses and every bit queried, then reports convergence facts three ways:
stable suffix in the trace, horizon correctness against the oracle, and an
exact certificate computed from the learner's code.  Limits are not
observable at a finite stage, so the three are deliberately kept apart.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .errors import ConfigError, ContractViolation, UseViolation
from .formulas import exists_forall_witness, least_refutation
from .learners import Informant, Learner, SynthLearner, cantor_unpair
from .words import Word, with_bits

__all__ = [
    "HORIZON_CAP",
    "check_read",
    "StageView",
    "InformantRows",
    "SessionTrace",
    "SessionReport",
    "ConvergenceCertificate",
    "run_session",
    "summarize",
    "certify_convergence",
    "use_principle_check",
    "format_stage_record",
    "format_summary_record",
]

# The longest session the CLI runs; certify_convergence refuses a limit pair past it.
HORIZON_CAP = 1_000_000


def check_read(stage: int, pos: int, bound: int):
    """Raise for a read position outside [0, bound): past the bound first."""
    if pos >= bound:
        raise UseViolation(stage, pos, bound)
    if pos < 0:
        raise ConfigError(f"negative position {pos}")


class StageView:
    """Query window for one stage over the session's bit tables: enforces
    the use bound, logs every read.

    A view answers reads only during the `step` call it is passed to:
    `run_session` advances one view through the stages, so a view kept past
    its step would read under a later stage's bound and log into that stage.
    Its `reads` holds one int key per distinct read of the current stage:
    `~pos` for target position pos, `j * stride + pos` for informant row j,
    where the stride is the table length.  Every logged position has passed
    `0 <= pos < bound <= stride`, so no two reads share a key;
    `SessionTrace.reads` decodes them.
    """

    __slots__ = ("_target", "_rows", "_stage", "_bound", "_stride", "reads",
                 "informant_size")

    def __init__(self, target_table, rows, informant_size):
        self._target = target_table
        self._rows = rows
        self._stage = self._bound = 0
        self._stride = len(target_table)
        self.reads = set()
        self.informant_size = informant_size

    def target_bit(self, pos: int) -> int:
        if not 0 <= pos < self._bound:
            check_read(self._stage, pos, self._bound)
        self.reads.add(~pos)
        return self._target[pos]

    def informant_bit(self, j: int, pos: int) -> int:
        if not 0 <= pos < self._bound:
            check_read(self._stage, pos, self._bound)
        row = self._rows[j]  # an index the store refuses raises before it is logged
        self.reads.add(j * self._stride + pos)
        return row[pos]


class InformantRows(dict):
    """One run's informant rows by index: row j is `row(word j)`, built on
    the first read of index j, so each word is fetched once per run.  A
    session's rows are bit tables, the diagonalizer's the words themselves."""

    def __init__(self, informant: Informant, row):
        super().__init__()
        self._informant = informant
        self._row = row

    def __missing__(self, j):
        w = self._informant.word(j)
        if w is None:
            raise ConfigError(f"informant index {j} out of range")
        row = self[j] = self._row(w)
        return row


@dataclass(frozen=True)
class SessionTrace:
    """One session's record.  `read_keys` holds each stage's set of
    `StageView` keys as the view logged it (a stage that read nothing holds
    one shared empty frozenset); `reads` decodes them on first access, so a
    session whose reads nobody asks for never builds an entry.  The sets
    stay mutable, so a trace is not hashable."""

    target: Word
    informant: Informant
    hypotheses: tuple         # h_0 .. h_H
    pointers: tuple           # per-stage pointer or None
    read_keys: tuple          # per-stage sets of StageView read keys
    stride: int               # the view's table length, the informant keys' row stride

    @property
    def horizon(self) -> int:
        return len(self.hypotheses) - 1

    @functools.cached_property
    def reads(self) -> tuple:
        """Per-stage frozensets of ("t", pos) and ("i", j, pos) entries."""
        stride = self.stride

        def entry(key):
            if key < 0:
                return ("t", ~key)
            return ("i", *divmod(key, stride))

        return tuple(frozenset(map(entry, keys)) for keys in self.read_keys)


@dataclass(frozen=True)
class ConvergenceCertificate:
    limit_index: int
    refutations: tuple        # (a, b, m) per earlier pair; m None for range skips
    stabilization_stage: int


@dataclass(frozen=True)
class SessionReport:
    mind_changes: int
    last_change_stage: int
    ex_correct_at_horizon: bool
    bc_correct_suffix_start: int | None


def run_session(learner: Learner, target: Word, informant: Informant,
                horizon: int) -> SessionTrace:
    """Run stages 0..horizon inclusive; deterministic given equal inputs.

    The learner's whole use schedule is read first, in one
    `learner.use_bounds(horizon)` call.  One view, advanced stage by stage,
    answers from bit tables as long as the largest bound.  A stage that read
    hands the view's read set to the trace as it is and gives the view a new
    one; no stage's keys are copied or decoded here.  A `SynthLearner`
    itself (not a subclass, whose `step` may differ) is run by
    `_synth_stages`, its pair walk in one loop; every other learner is
    stepped stage by stage, and its pointer may never retreat.
    """
    if horizon < 1:
        raise ConfigError(f"horizon must be at least 1, got {horizon}")
    bounds = learner.use_bounds(horizon)
    length = max(bounds)
    rows = InformantRows(informant, lambda w: w.bit_table(length))
    view = StageView(target.bit_table(length), rows, informant.size)
    stages = _synth_stages if type(learner) is SynthLearner else _stepped_stages
    hyps, pointers, reads = stages(learner, view, bounds)
    return SessionTrace(target, informant, tuple(hyps), tuple(pointers), tuple(reads),
                        length)


def _stepped_stages(learner: Learner, view: StageView, bounds: list) -> tuple:
    """The hypotheses, pointers and read sets of `learner.step` called at
    every stage of `bounds`; a pointer that retreats raises."""
    state = learner.start_state
    step, at = learner.step, learner.pointer_at
    hyps, pointers, reads = [], [], []
    last_pointer = None
    seen = view.reads
    empty = frozenset()  # one object for every stage that read nothing
    for stage, bound in enumerate(bounds):
        view._stage, view._bound = stage, bound
        state, hyp = step(state, stage, view)
        pointer = None if at is None else state[at]
        if pointer is not None and last_pointer is not None and pointer < last_pointer:
            raise ContractViolation(
                f"stage {stage}: pointer retreated from {last_pointer} to {pointer}")
        last_pointer = pointer
        hyps.append(hyp)
        pointers.append(pointer)
        if seen:
            reads.append(seen)
            seen = view.reads = set()
        else:
            reads.append(empty)
    return hyps, pointers, reads


def _synth_stages(learner: SynthLearner, view: StageView, bounds: list) -> tuple:
    """The hypotheses, pointers and read sets of `SynthLearner.step` over
    every stage of `bounds`, its state (k, next_m, a, b) kept in locals.

    Once the pointer k is capped at stage - 1 on a pair whose informant
    index a is at or past the size, the next a - size + 1 stages read
    nothing: each moves one pair down the diagonal, a falls by one, and k
    stays capped.  Those stages are appended in bulk; the view is set only
    for a stage that may read.
    """
    holds, size = learner.lowered.holds, view.informant_size
    empty = frozenset()
    hyps, pointers, reads = [0], [0], [empty]  # stage 0: k = 0 is at its cap
    k = next_m = a = b = 0
    seen = view.reads
    stage, end = 1, len(bounds)
    while stage < end:
        # next_m is 0 here, since only a pair in range can hold; size 0
        # would wrap at a = 0, so it takes the stage-by-stage walk
        if size and a >= size and k == stage - 1:
            r = min(a - size + 1, end - stage)
            hyps.extend(range(a - 1, a - r - 1, -1))
            pointers.extend(range(stage, stage + r))
            reads.extend([empty] * r)
            k, a, b, stage = k + r, a - r, b + r, stage + r
            continue
        view._stage, view._bound = stage, bounds[stage]
        while True:
            if (size is None or a < size) and holds(view, a, b, next_m, stage):
                next_m = stage
                break
            k += 1
            next_m = 0
            a, b = (a - 1, b + 1) if a else (b + 1, 0)  # the pair cantor_unpair(k)
            if k == stage:
                break
        hyps.append(a)
        pointers.append(k)
        if seen:
            reads.append(seen)
            view.reads = seen = set()
        else:
            reads.append(empty)
        stage += 1
    return hyps, pointers, reads


def summarize(trace: SessionTrace, relation) -> SessionReport:
    hyps = trace.hypotheses

    def correct(h: int) -> bool:
        w = trace.informant.word(h)
        return w is not None and relation.decide(trace.target, w)

    changes = [s for s in range(1, len(hyps)) if hyps[s] != hyps[s - 1]]
    last_change = changes[-1] if changes else 0
    # one decision per run of one hypothesis, from the last run back
    bc_start = None
    for start in reversed([0] + changes):
        if not correct(hyps[start]):
            break
        bc_start = start
    ex_correct = bc_start is not None and last_change < trace.horizon
    return SessionReport(len(changes), last_change, ex_correct, bc_start)


def certify_convergence(learner: Learner, target: Word) -> ConvergenceCertificate | None:
    """Exact convergence certificate for a synthesized learner, or None.

    Pair (a, b) of the synthesizer's pointer walk is exactly true iff b is an
    EF witness for informant word a, so the limit pair is the least Cantor
    index over each word's least witness.  One past HORIZON_CAP raises
    ConfigError: the pointer moves at most one pair per stage.  Every pair
    before the limit gets a concrete refuting witness (or a range skip), so
    the pointer's final resting place is forced.
    """
    if not isinstance(learner, SynthLearner):
        raise ConfigError("certification needs a synthesized learner")
    ws, low = learner.informant.explicit_words(), learner.lowered
    witnesses = [exists_forall_witness(low, target, w) for w in ws]
    k = min(((a + b) * (a + b + 1) // 2 + b for a, b in enumerate(witnesses) if b is not None),
            default=None)
    if k is None:
        return None
    if k > HORIZON_CAP:
        raise ConfigError(f"the certified pair's Cantor index {k} passes the horizon cap "
                          f"of {HORIZON_CAP}")
    refutations = tuple((a, b, least_refutation(low, target, ws[a], b) if a < len(ws) else None)
                        for a, b in map(cantor_unpair, range(k)))

    stabilization = max([k] + [m + 1 for _, _, m in refutations if m is not None])
    return ConvergenceCertificate(cantor_unpair(k)[0], refutations, stabilization)


def use_principle_check(learner: Learner, cert: ConvergenceCertificate,
                        trace: SessionTrace, free_bits: int) -> bool:
    """Set the lowest unqueried informant bits every way and re-run.

    Each completion is an informant whose words differ from the trace's only
    in those bits, and it is replayed as a session of its own.  True iff the
    hypothesis at the stabilization stage is the certified limit in all
    2^min(free_bits, free slots) completions, where the free slots are the
    unqueried informant bits below that stage's use bound; only those bits
    can matter.  The queried-bit record comes from the trace.
    """
    if not 0 <= free_bits <= 12:
        raise ConfigError(f"freeBits {free_bits} outside the exhaustive budget [0, 12]")
    ws = trace.informant.explicit_words()
    stage = cert.stabilization_stage
    if stage > trace.horizon:
        raise ConfigError("trace too short for the certificate's stabilization stage")

    queried = {(entry[1], entry[2]) for reads in trace.reads[:stage + 1]
               for entry in reads if entry[0] == "i"}
    bound = learner.use_bound_at(stage)
    slots = [(pos, j) for pos in range(bound) for j in range(len(ws))
             if (j, pos) not in queried][:free_bits]
    # each word's variants once; a completion picks one variant per word
    variants = []
    for j, w in enumerate(ws):
        free = [pos for pos, k in slots if k == j]
        variants.append([with_bits(w, dict(zip(free, bits)))
                         for bits in itertools.product((0, 1), repeat=len(free))])

    horizon = max(stage, 1)
    for completion in itertools.product(*variants):
        replay = run_session(learner, trace.target, Informant.explicit(completion), horizon)
        if replay.hypotheses[stage] != cert.limit_index:
            return False
    return True


def format_stage_record(stage: int, hypothesis: int, pointer, bits_read_count: int) -> str:
    p = "-" if pointer is None else str(pointer)
    return f"stage={stage} hypothesis={hypothesis} pointer={p} bitsReadCount={bits_read_count}"


def format_summary_record(report: SessionReport,
                          certificate: ConvergenceCertificate | None) -> str:
    bc = "-" if report.bc_correct_suffix_start is None else str(report.bc_correct_suffix_start)
    cert = "-" if certificate is None else str(certificate.limit_index)
    ex = "true" if report.ex_correct_at_horizon else "false"
    return (f"summary mindChanges={report.mind_changes} lastChangeStage={report.last_change_stage} "
            f"exCorrectAtHorizon={ex} bcCorrectSuffixStart={bc} certified={cert}")

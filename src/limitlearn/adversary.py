"""Adversarial constructions against learners and candidate codes.

The diagonalizer commits target bits against a learner's own reads, the
falsifier enumerates word pairs, and the membership procedure pins informant
slots.  Every verdict ships enough committed data to replay it exactly.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from . import words
from .errors import ConfigError, ContractViolation
from .formulas import And, BitOf, ExistsForall, Le, TERM_N, const_term, eval_exact_ep
from .learners import (
    CyclingLearner,
    Informant,
    Learner,
    RecentOnesLearner,
    SynthLearner,
)
from .relations import e0_code, id_code
from .simulation import InformantRows, check_read, run_session
from .words import Word

__all__ = [
    "AdversaryRun",
    "MembershipRun",
    "diagonalize_inf",
    "falsify_inf_classifier",
    "candidate_codes",
    "shipped_sim0_candidates",
    "inf_family_informant",
    "bc_class_membership_procedure",
    "enumerate_words",
    "format_adversary_record",
]


@dataclass(frozen=True)
class AdversaryRun:
    committed_target: Word
    phase_log: tuple
    mind_change_stages: tuple
    verdict: str                    # FORCED | LEARNER_STUCK
    forced_rounds: int | None
    witness: Word | None


def inf_family_informant() -> Informant:
    # slot 0 is the infinite-support representative, then all finite-support words
    return Informant(
        lambda j: Word("", "1") if j == 0 else words.finite_support_word(j - 1)
    )


class _GrowingTargetView:
    """Stage view over a target whose one-positions are the committed set
    `ones`; `frontier` rises to one past each target position read.  The
    diagonalizer advances one view through the stages, as `run_session` does,
    and reads the informant's words from one store."""

    def __init__(self, informant):
        self.ones = set()
        self.words = InformantRows(informant, lambda w: w)
        self._stage = self._bound = self.frontier = 0
        self.informant_size = informant.size

    def target_bit(self, pos):
        if not 0 <= pos < self._bound:
            check_read(self._stage, pos, self._bound)
        if pos >= self.frontier:
            self.frontier = pos + 1
        return 1 if pos in self.ones else 0

    def informant_bit(self, j, pos):
        if not 0 <= pos < self._bound:
            check_read(self._stage, pos, self._bound)
        return self.words[j].bit(pos)


def diagonalize_inf(learner: Learner, relation, patience: int, rounds: int) -> AdversaryRun:
    """Straddle the infinite-support boundary against a fixed learner.

    While the hypothesis sits at index 0 (the infinite-support claim), the
    revealed target stays all-zero beyond the committed ones; each time the
    hypothesis leaves 0, one more 1 is committed past everything the learner
    has been allowed to read.  A learner parked at 0 past the patience budget
    is stuck: the all-zero completion refutes its claim exactly.
    """
    if relation.name not in ("sim0", "sim1"):
        raise ConfigError(f"diagonalization targets sim0 or sim1, not {relation.name}")
    if patience < 0 or rounds < 0:
        raise ConfigError(f"negative budget: patience {patience}, rounds {rounds}")
    view = _GrowingTargetView(inf_family_informant())
    one_rep = view.words[0]
    state = learner.start_state
    stage = 0
    hyp = None
    mind_changes = []
    phase_log = []

    for r in range(rounds):
        fed = 0
        while True:
            view._stage, view._bound = stage, learner.use_bound_at(stage)
            prev_hyp = hyp
            state, hyp = learner.step(state, stage, view)
            if prev_hyp is not None and hyp != prev_hyp:
                mind_changes.append(stage)
            stage += 1
            if hyp != 0:
                break
            fed += 1
            if fed > patience:
                witness = words.finite_support_word(sum(1 << p for p in view.ones))
                if witness.is_inf or relation.decide(witness, one_rep):
                    raise ContractViolation(
                        f"round {r}: stuck witness {witness.literal} does not refute "
                        "the infinite-support claim")
                phase_log.append(f"round {r}: hypothesis parked at 0 past patience {patience}")
                return AdversaryRun(witness, tuple(phase_log), tuple(mind_changes),
                                    "LEARNER_STUCK", None, witness)
        # every committed one sits below the frontier, so this one is past them all
        view.ones.add(view.frontier)
        phase_log.append(f"round {r}: left 0 after {fed} zero-fed stages, "
                         f"committed 1 at {view.frontier}")
        view.frontier += 1

    committed = words.finite_support_word(sum(1 << p for p in view.ones))
    return AdversaryRun(committed, tuple(phase_log), tuple(mind_changes),
                        "FORCED", rounds, None)


def enumerate_words(max_size: int):
    """All canonical words with size ≤ max_size: by size, preperiod length, bits."""
    out = []
    for total in range(1, max_size + 1):
        for pre_len in range(total):
            # construction only shortens a description, so an unchanged size means canonical
            for text in itertools.product("01", repeat=total):
                w = Word("".join(text[:pre_len]), "".join(text[pre_len:]))
                if w.size == total:
                    out.append(w)
    return out


def falsify_inf_classifier(code, relation, max_size: int):
    """First word pair within the size bound where the code's exact value
    disagrees with the relation's oracle; None if the bound finds nothing."""
    ws = enumerate_words(max_size)
    for x in ws:
        for y in ws:
            if eval_exact_ep(code, x, y) != relation.decide(x, y):
                return (x, y)
    return None


def candidate_codes():
    """Small two-level codes a falsifier must defeat."""
    return (
        ("always-true", ExistsForall(Le(const_term(0), const_term(0)))),
        ("always-false", ExistsForall(Le(const_term(1), const_term(0)))),
        ("identity", id_code()),
        ("tail-agreement", e0_code()),
        ("common-one", ExistsForall(And(BitOf("x", TERM_N), BitOf("y", TERM_N)))),
    )


def shipped_sim0_candidates():
    """Candidate learners for the infinite-support relation, for diagonalization."""
    informant = inf_family_informant()
    return (
        ("synth-tail-agreement", lambda: SynthLearner(e0_code(), informant)),
        ("constant-0", lambda: CyclingLearner((0,))),
        ("recent-ones", lambda: RecentOnesLearner(8)),
    )


@dataclass(frozen=True)
class MembershipRun:
    values: tuple             # hypothesis of a fresh run at each stage
    limit_zero: bool          # all-zero on the final quarter of the window


def bc_class_membership_procedure(bc: Learner, relation, y: Word, b, z: Word,
                                  horizon: int) -> MembershipRun:
    """Staged membership test for z against y's class, driven by a BC learner.

    The informant reads z at index 0, and at index j + 1 it reads `pins[j]`
    once slot j is pinned, else y.  Stage s takes the hypothesis i_s of a
    fresh run, and u is the use bound at s.  While i_s stays at 0, every open
    slot below s commits u bits of y.  When it moves, the slot range widens to
    cover i_s and s, `last` is its highest pinned or committed slot, and each
    open slot j with j < last or j <= i_s is pinned forever to b(n), where n
    is the committed length, raised to u when j < s.  So b(n) keeps every bit
    of y a run was promised, but lies outside y's class.  Related z lets the
    hypothesis rest at 0; unrelated z keeps the pins marching, so the final
    quarter of the window cannot be all zeros.
    """
    if horizon < 4:
        raise ConfigError("membership procedure needs horizon at least 4")

    @functools.cache
    def b_checked(n: int) -> Word:
        w = b(n)
        if w.prefix(n) != y.prefix(n):
            raise ContractViolation(f"b({n}) does not extend the target prefix of length {n}")
        if relation.decide(w, y):
            raise ContractViolation(f"b({n}) is related to the target")
        return w

    for n in range(horizon + 1):
        b_checked(n)

    pins: dict[int, Word] = {}
    commit: dict[int, int] = {}       # open slot -> committed prefix length of y
    width = 0
    values = []
    informant = Informant(lambda j: z if j == 0 else pins.get(j - 1, y))
    for s in range(horizon):
        i_s = run_session(bc, y, informant, max(s, 1)).hypotheses[s]
        values.append(i_s)

        u = bc.use_bound_at(s)
        if s == 0 or (i_s == 0 and values[s - 1] == 0):
            for j in range(s):
                if j not in pins:
                    commit[j] = max(commit.get(j, 0), u)
            continue

        width = max(width, i_s + 1, s)
        last = max((j for j in range(width) if j in pins or commit.get(j, 0) > 0), default=-1)
        for j in range(width):
            if j not in pins and (j < last or j <= i_s):
                t = commit.pop(j, 0)
                pins[j] = b_checked(max(t, u) if j < s else t)

    quarter = range(3 * horizon // 4, horizon)
    flag = all(values[s] == 0 for s in quarter)
    return MembershipRun(tuple(values), flag)


def format_adversary_record(run: AdversaryRun) -> str:
    stages = ",".join(str(s) for s in run.mind_change_stages)
    verdict = run.verdict if run.forced_rounds is None else f"FORCED({run.forced_rounds})"
    line = f"verdict={verdict} stages={stages} target={run.committed_target.literal}"
    if run.witness is not None:
        line += f" witness={run.witness.literal}"
    return line

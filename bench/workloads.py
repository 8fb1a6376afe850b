"""The benchmark's three workloads.

Each workload builds its inputs from a seed, through the library's public
functions, and returns a list of ops.  An op is a zero-argument callable
that runs one unit of work, asserts what the matching acceptance criterion
asserts, and returns its record lines plus the counts the traced run
cross-checks (``sessions``: run_session calls the op makes or causes
outside use-principle replays; ``replays``: replays it causes).  A failed
check raises OpFailed.

The library is reached only through the ``lib`` namespace and looked up at
call time, so the traced run's patched bindings see every call.
"""

from __future__ import annotations

import random
from functools import partial
from pathlib import Path

CODES_DIR = Path(__file__).resolve().parent / "codes"

# exact-sweep: every pair of the word pool of this size bound
SWEEP_MAX_SIZE = 5
# session-replay: rounds of (related id, related e0, unrelated) cases per pass
REPLAY_ROUNDS = 400
FREE_BITS = 4
UNRELATED_HORIZON = 2000
# adversary-search: membership probes over words of this size bound
PROBE_MAX_SIZE = 5
PROBE_HORIZON = 64
DIAG_PATIENCE = 64
DIAG_ROUNDS = 200


class OpFailed(Exception):
    """An op's output failed the check its acceptance criterion makes."""


def check(ok: bool, message: str):
    if not ok:
        raise OpFailed(message)


def load_code(lib, name: str):
    """Parse a code from its .s2f text, as a CLI user supplies it."""
    code = lib.formulas.parse_formula((CODES_DIR / f"{name}.s2f").read_text())
    if code != lib.relations.make_relation(name).code:
        raise RuntimeError(f"{name}.s2f does not parse to the catalog code for {name}")
    return code


# ------------------------------------------------------------- exact-sweep


def build_exact_sweep(lib, seed: int):
    pool = lib.adversary.enumerate_words(SWEEP_MAX_SIZE)
    ops = []
    for name in ("id", "e0"):
        rel = lib.relations.make_relation(name)
        code = load_code(lib, name)
        ops.extend(partial(_sweep_row, lib, name, code, rel, pool, x) for x in pool)
    random.Random(seed).shuffle(ops)
    return ops


def _sweep_row(lib, name, code, rel, pool, x):
    eval_exact_ep = lib.formulas.eval_exact_ep
    true = 0
    for y in pool:
        value = eval_exact_ep(code, x, y)
        check(value == rel.decide(x, y),
              f"code {name} disagrees with the oracle at x={x.literal} y={y.literal}")
        true += value
    record = f"sweep code={name} x={x.literal} pairs={len(pool)} true={true} disagreements=0"
    return record, {"sessions": 0, "replays": 0}


# ---------------------------------------------------------- session-replay


def build_session_replay(lib, seed: int):
    rng = random.Random(seed)
    rels = {name: lib.relations.make_relation(name) for name in ("id", "e0")}
    codes = {name: load_code(lib, name) for name in rels}
    related_case = lib.sampling.related_case
    unrelated_case = lib.sampling.unrelated_case
    ops = []
    for i in range(REPLAY_ROUNDS):
        other = "id" if i % 2 == 0 else "e0"
        for name, related in (("id", True), ("e0", True), (other, False)):
            sample = related_case if related else unrelated_case
            target, ws = sample(rng, rels[name])
            ops.append(partial(_replay_case, lib, rels[name], codes[name], name, len(ops),
                               related, target, ws))
    return ops


def _replay_case(lib, rel, code, name, case, related, target, ws):
    informant = lib.learners.Informant.explicit(ws)
    learner = lib.learners.SynthLearner(code, informant)
    cert = lib.simulation.certify_convergence(learner, target)
    where = f"case {case} {name} target={target.literal}"
    if not related:
        check(cert is None, f"{where}: certificate issued for an unrelated case")
        trace = lib.simulation.run_session(learner, target, informant, UNRELATED_HORIZON)
        final = trace.pointers[-1]
        halfway = trace.pointers[UNRELATED_HORIZON // 2]
        check(final is not None and final > 50 and final > halfway,
              f"{where}: pointer stalled at {final} (halfway {halfway})")
        record = (f"replay relation={name} case={case} target={target.literal} "
                  f"pointer={final} certificate=-")
        return record, {"sessions": 1, "replays": 0}
    check(cert is not None, f"{where}: no certificate for a related case")
    limit = informant.word(cert.limit_index)
    check(limit is not None and rel.decide(target, limit),
          f"{where}: certified limit {cert.limit_index} is not related")
    stab = cert.stabilization_stage
    trace = lib.simulation.run_session(learner, target, informant, stab + 4)
    check(all(h == cert.limit_index for h in trace.hypotheses[stab:]),
          f"{where}: hypotheses leave the limit after stage {stab}")
    check(lib.simulation.use_principle_check(learner, cert, trace, FREE_BITS),
          f"{where}: use-principle check failed")
    record = (f"replay relation={name} case={case} target={target.literal} "
              f"limit={cert.limit_index} stab={stab} freeBits={FREE_BITS} stable=true")
    return record, {"sessions": 1, "replays": _expected_replays(learner, cert, trace)}


def _expected_replays(learner, cert, trace) -> int:
    """Completions use_principle_check must replay: 2 ** (free slots used).

    Free slots are informant bits below the stabilization stage's use bound
    that no stage up to it queried; the check overlays the first FREE_BITS.
    """
    stage = cert.stabilization_stage
    queried = {(entry[1], entry[2]) for reads in trace.reads[:stage + 1]
               for entry in reads if entry[0] == "i"}
    size = trace.informant.size
    free = sum(1 for pos in range(learner.use_bound_at(stage)) for j in range(size)
               if (j, pos) not in queried)
    return 1 << min(FREE_BITS, free)


# -------------------------------------------------------- adversary-search


def build_adversary_search(lib, seed: int):
    words, adversary = lib.words, lib.adversary
    e0 = lib.relations.make_relation("e0")
    sim0 = lib.relations.make_relation("sim0")
    y = words.parse_word("|0")
    bc = lib.learners.SynthLearner(load_code(lib, "e0"), lib.learners.Informant.explicit([y]))
    ops = [partial(_probe, lib, bc, e0, y, z)
           for z in adversary.enumerate_words(PROBE_MAX_SIZE)]
    ops.extend(partial(_diagonalize, lib, sim0, name, factory)
               for name, factory in adversary.shipped_sim0_candidates())
    random.Random(seed).shuffle(ops)
    return ops


def _probe(lib, bc, rel, y, z):
    Word = lib.words.Word

    def b(n):
        return Word("0" * n, "1")

    run = lib.adversary.bc_class_membership_procedure(bc, rel, y, b, z, horizon=PROBE_HORIZON)
    expect = rel.decide(y, z)
    check(len(run.values) == PROBE_HORIZON,
          f"z={z.literal}: {len(run.values)} stage values for horizon {PROBE_HORIZON}")
    check(run.limit_zero == expect,
          f"z={z.literal}: membership flag {run.limit_zero} but oracle {expect}")
    record = (f"probe z={z.literal} flag={str(run.limit_zero).lower()} "
              f"oracle={str(expect).lower()}")
    return record, {"sessions": len(run.values), "replays": 0}


def _diagonalize(lib, rel, name, factory):
    adversary = lib.adversary
    run = adversary.diagonalize_inf(factory(), rel, patience=DIAG_PATIENCE, rounds=DIAG_ROUNDS)
    check(run.verdict in ("FORCED", "LEARNER_STUCK"), f"{name}: verdict {run.verdict}")
    if run.verdict == "FORCED":
        check(run.forced_rounds == DIAG_ROUNDS and len(run.mind_change_stages) >= DIAG_ROUNDS,
              f"{name}: forced {run.forced_rounds} rounds, "
              f"{len(run.mind_change_stages)} mind changes")
    else:
        one_rep = adversary.inf_family_informant().word(0)
        witness = run.witness
        check(witness is not None and not witness.is_inf and not rel.decide(witness, one_rep),
              f"{name}: stuck verdict without a refuting finite-support witness")
    record = f"diag learner={name} {adversary.format_adversary_record(run)}"
    return record, {"sessions": 0, "replays": 0}


WORKLOADS = {
    "exact-sweep": build_exact_sweep,
    "session-replay": build_session_replay,
    "adversary-search": build_adversary_search,
}

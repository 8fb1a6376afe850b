"""In-memory span tracer for the benchmark's traced run.

The library is timed from outside, at its public entry points.  Each entry
is wrapped, and the wrapper replaces every binding of the entry: a function
imported by name into several modules (``run_session`` lives in
``simulation`` and is imported into ``adversary``, ``cli`` and the package)
is replaced in each of them, so a call through any import path opens a span.

A call opens a span on a stack.  When it closes, its duration is added to
the entry's total and to the open parent's child time, so an entry's self
time is its span time minus the time of the spans it caused.  Spans are
folded into per-entry totals as they close rather than kept one by one,
because leaf entries such as ``Word.bit`` close millions of times a pass.
Work done by unwrapped code, such as the closures ``compile_pred`` returns,
is self time of the nearest wrapped caller.
"""

from __future__ import annotations

import dataclasses
import time


class Tracer:
    def __init__(self):
        self.entries = {}     # span name -> [calls, total_s, child_s]
        self.by_parent = {}   # (parent span name, span name) -> calls
        self.counts = {}      # counts derived from entry arguments and results
        self._stack = []      # open spans: [name, child_s]

    def add(self, name: str, n: int = 1):
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name, fn, *, recursive=False, before=None, after=None, parents=False):
        """Span-recording stand-in for fn.

        recursive: a call made directly from a span of the same name is part
        of that span and is not counted again (top-level calls only).
        before(*args) -> token and after(token, result, *args) derive counts.
        parents: also count calls per parent span name.
        """
        stats = self.entries.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        by_parent = self.by_parent
        clock = time.perf_counter

        def span(*args, **kwargs):
            if recursive and stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            token = before(*args) if before else None
            if parents:
                key = (stack[-1][0] if stack else None, name)
                by_parent[key] = by_parent.get(key, 0) + 1
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if after:
                after(token, result, *args)
            return result

        return span

    def patch_function(self, modules, fn, name, **options):
        """Replace every binding of fn in the given modules by its span."""
        rebind(modules, fn, self.wrap(name, fn, **options))

    def patch_method(self, cls, attr, name, **options):
        setattr(cls, attr, self.wrap(name, vars(cls)[attr], **options))

    def calls(self, name: str) -> int:
        return self.entries.get(name, [0])[0]

    def total_s(self, name: str) -> float:
        return self.entries.get(name, [0, 0.0])[1]

    def self_s(self, name: str) -> float:
        calls, total, child = self.entries.get(name, [0, 0.0, 0.0])
        return total - child

    def parent_calls(self, parent: str, name: str) -> int:
        return self.by_parent.get((parent, name), 0)


def rebind(modules, old, new):
    """Point every module attribute bound to old at new."""
    hits = 0
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)
                hits += 1
    if not hits:
        raise LookupError(f"no module binds {old!r}")


def install(tracer: Tracer, lib, modules):
    """Wrap the public entry points of each layer module.

    ``lib`` holds the layer modules by name; ``modules`` is every loaded
    module of the package, whose bindings are all patched.
    """
    words, formulas, relations = lib.words, lib.formulas, lib.relations
    learners, simulation, adversary, sampling = (
        lib.learners, lib.simulation, lib.adversary, lib.sampling)

    tracer.patch_method(words.Word, "bit", "words.Word.bit")
    # canonicalization runs in __post_init__, once per constructed word
    tracer.patch_method(words.Word, "__post_init__", "words.Word.construct")

    def exact_after(_, result, *args):
        if result:
            tracer.add("formulas.eval_exact_ep.true")

    tracer.patch_function(modules, formulas.eval_exact_ep, "formulas.eval_exact_ep",
                          recursive=True, after=exact_after)
    tracer.patch_function(modules, formulas.compile_pred, "formulas.compile_pred",
                          recursive=True)
    tracer.patch_function(modules, formulas.use_bound, "formulas.use_bound", recursive=True)
    tracer.patch_function(modules, formulas.least_refutation, "formulas.least_refutation")

    # decide is a field of each RelationSpec, so relations are traced as they are made
    make_relation = relations.make_relation
    tracer.entries["relations.decide"] = [0, 0.0, 0.0]

    def traced_make_relation(*args, **kwargs):
        rel = make_relation(*args, **kwargs)
        return dataclasses.replace(rel, decide=tracer.wrap("relations.decide", rel.decide))

    rebind(modules, make_relation, traced_make_relation)

    def step_after(_, result, self, state, *rest):
        tracer.add("learners.SynthLearner.pointer_moves", result[0][0] - state[0])

    tracer.patch_method(learners.SynthLearner, "step", "learners.SynthLearner.step",
                        after=step_after)
    tracer.patch_method(learners.Informant, "word", "learners.Informant.word")

    def session_after(_, trace, *args):
        tracer.add("simulation.run_session.stages", len(trace.hypotheses))
        tracer.add("simulation.run_session.reads", sum(len(r) for r in trace.reads))

    tracer.patch_function(modules, simulation.run_session, "simulation.run_session",
                          after=session_after, parents=True)

    def read_before(view, *args):
        return len(view.reads)

    def read_after(before_len, _, view, *args):
        if len(view.reads) > before_len:
            tracer.add("simulation.StageView.distinct_reads")

    for attr in ("target_bit", "informant_bit"):
        tracer.patch_method(simulation.StageView, attr, f"simulation.StageView.{attr}",
                            before=read_before, after=read_after)
    tracer.patch_function(modules, simulation.certify_convergence,
                          "simulation.certify_convergence")
    tracer.patch_function(modules, simulation.use_principle_check,
                          "simulation.use_principle_check")

    tracer.patch_function(modules, adversary.bc_class_membership_procedure,
                          "adversary.bc_class_membership_procedure")
    tracer.patch_function(modules, adversary.diagonalize_inf, "adversary.diagonalize_inf")
    tracer.patch_function(modules, adversary.enumerate_words, "adversary.enumerate_words")

    tracer.patch_function(modules, sampling.related_case, "sampling.cases")
    tracer.patch_function(modules, sampling.unrelated_case, "sampling.cases")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer numbers, named <module>.<entry>.<stat>, as (value, unit)."""
    out = {}
    for name in list(tracer.entries):
        out[f"{name}.calls"] = (tracer.calls(name), "count")
        out[f"{name}.self_s"] = (tracer.self_s(name), "s")
        out[f"{name}.total_s"] = (tracer.total_s(name), "s")
    exact = tracer.calls("formulas.eval_exact_ep")
    out["formulas.eval_exact_ep.true_ratio"] = (
        tracer.counts.get("formulas.eval_exact_ep.true", 0) / exact if exact else 0.0, "ratio")
    out["learners.SynthLearner.pointer_moves"] = (
        tracer.counts.get("learners.SynthLearner.pointer_moves", 0), "count")
    stages = tracer.counts.get("simulation.run_session.stages", 0)
    out["simulation.run_session.stages"] = (stages, "count")
    reads = tracer.counts.get("simulation.run_session.reads", 0)
    out["simulation.bits_read_per_stage"] = (reads / stages if stages else 0.0, "bits/stage")
    out["simulation.StageView.self_s"] = (
        tracer.self_s("simulation.StageView.target_bit")
        + tracer.self_s("simulation.StageView.informant_bit"), "s")
    out["simulation.use_principle_check.replays"] = (
        tracer.parent_calls("simulation.use_principle_check", "simulation.run_session"), "count")
    out["adversary.bc_class_membership_procedure.sessions"] = (
        tracer.parent_calls("adversary.bc_class_membership_procedure",
                            "simulation.run_session"), "count")
    return out


def cross_check(tracer: Tracer, sessions: int, replays: int) -> list[str]:
    """Span counts against counts derived from the ops' outputs.

    A binding the tracer missed shows here as a shortfall.
    """
    problems = []
    runs = tracer.calls("simulation.run_session")
    if runs != sessions + replays:
        problems.append(f"run_session spans {runs} != sessions {sessions} + replays {replays}")
    distinct = tracer.counts.get("simulation.StageView.distinct_reads", 0)
    logged = tracer.counts.get("simulation.run_session.reads", 0)
    if distinct != logged:
        problems.append(f"StageView distinct reads {distinct} != "
                        f"sum of len(trace.reads[s]) {logged}")
    return problems

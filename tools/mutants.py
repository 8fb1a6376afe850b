#!/usr/bin/env python3
"""Mutation table: each row is a small fault that its tests must catch.

    python tools/mutants.py

For each row, src, tests, README.md and pyproject.toml (the CLI tests read
both files) are copied to a temporary directory, the row's old snippet,
which must occur exactly once in its file, is replaced by the new snippet,
and `python -m pytest -x -q --hypothesis-profile=mutants` runs the row's
test selection on that copy.  The profile, registered in tests/conftest.py,
derandomizes Hypothesis, drops its deadline and skips shrinking, so a row's
verdict depends only on the code; a row that survives under it gets its
input pinned with `@example`.
A row is killed when pytest exits 1.  Exit 0 means the mutant survived;
any other exit code (2: a collection error, 4: a selected test that does
not import or exist, 5: no test collected), or an old snippet that does
not occur exactly once, means the row is broken.  The script exits 1 if
any row survives or is broken.

Rows run on os.cpu_count() worker threads, each row's pytest in its own
process and temporary directory; the report lists them in table order, each
with its own wall time, and ends with the whole run's.

A change that moves a snippet re-targets its row.  A row is dropped only
with a note in CHANGES.md naming the test that still covers its fault.
Stdlib only; each row takes a few seconds.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "README.md", "pyproject.toml")
LEARNERS = "src/limitlearn/learners.py"
SIMULATION = "src/limitlearn/simulation.py"
ADVERSARY = "src/limitlearn/adversary.py"
FORMULAS = "src/limitlearn/formulas.py"
RELATIONS = "src/limitlearn/relations.py"
WORDS = "src/limitlearn/words.py"
ERRORS = "src/limitlearn/errors.py"
CLI = "src/limitlearn/cli.py"

# (file, old snippet, new snippet, pytest selection, what the mutant breaks)
ROWS = [
    (LEARNERS, "        for a, b in self.use:\n", "        for a, b in self.use[:-1]:\n",
     "tests/test_learners.py::test_synth_use_bound_is_the_code_use_bound",
     "the per-stage use bound skips the last pair"),
    (LEARNERS, "        n = horizon + 1\n", "        n = horizon\n",
     "tests/test_learners.py::test_cycling_learner",
     "the bulk schedule stops one stage short"),
    (LEARNERS, "min(self.use[0]) < 0", "min(self.use[0]) < -1",
     "tests/test_learners.py::test_use_bounds_never_go_below_zero",
     "the pair (1, -1) takes the column path, so its bulk schedule starts at -1"),
    (LEARNERS, "min(self.use[0]) < 0", "self.use[0][1] < 0",
     "tests/test_learners.py::test_use_bounds_never_go_below_zero",
     "the column path takes a pair with a < 0, so its bulk schedule falls below 0"),
    (LEARNERS, "(a, b - len(prefix))", "(a, b - len(prefix) - 1)",
     "tests/test_learners.py::test_step_never_mutates_its_state",
     "the transported schedule shifts by one position too many"),
    (LEARNERS, "        self.start_state, self.pointer_at = base.start_state, base.pointer_at\n",
     "        self.pointer_at = base.pointer_at\n",
     "tests/test_learners.py::test_transport_agrees_with_base_on_images",
     "a transported learner starts from None, not from its base's start state"),
    (LEARNERS, "        self.start_state, self.pointer_at = base.start_state, base.pointer_at\n",
     "        self.start_state = base.start_state\n",
     "tests/test_learners.py::test_transport_runs_the_base_on_the_images",
     "a transported learner reports no pointer"),
    (LEARNERS, "self.use, self.start_state, self.pointer_at = inner.use, inner.start_state, inner.pointer_at",
     "self.use, self.start_state = inner.use, inner.start_state",
     "tests/test_learners.py::test_bc_to_ex_keeps_the_inner_pointer",
     "a bc2ex learner reports no pointer"),
    (LEARNERS, "    pointer_at = 0\n", "    pointer_at = None\n",
     "tests/test_simulation.py::test_reference_session_trace",
     "the synth learner reports no pointer"),
    (LEARNERS, "if j < 0 or self.size is not None and j >= self.size:", "if j < 0:",
     "tests/test_learners.py::test_informant_explicit",
     "an explicit informant answers an index past its last word"),
    (LEARNERS, "        if 0 <= pos < k:\n            return int(self._prefix[pos])\n",
     "        if pos < k:\n            return int(self._prefix[pos])\n",
     "tests/test_learners.py::test_transport_agrees_with_base_on_images",
     "the prefixed view answers target position -1 with the prefix's last bit"),
    (LEARNERS, "    use = ()\n", "    use = ((1, 1),)\n",
     "tests/test_simulation.py::test_run_session_surfaces_use_violations",
     "a learner that declares no schedule may read"),
    (LEARNERS, "        if len(blocks[true_class]) < 2:\n", "        if len(blocks[true_class]) < 1:\n",
     "tests/test_learners.py::test_cycling_learner",
     "cycling:N accepts a one-index class block"),
    (LEARNERS, "        if not self.block:\n            raise ConfigError(\"cycling learner needs a nonempty block\")\n",
     "", "tests/test_learners.py::test_cycling_learner",
     "a cycling learner accepts an empty block"),
    (LEARNERS, "        if not rows:\n            raise ConfigError(\"rows file holds no rows\")\n", "",
     "tests/test_learners.py::test_learner_from_string_errors",
     "countable:FILE accepts a file that holds no rows"),
    (SIMULATION, "            seen = view.reads = set()\n", "",
     "tests/test_simulation.py::test_reference_session_trace",
     "the view keeps the set it handed over, so every stage that read shares one set of all reads"),
    (SIMULATION, "j * self._stride + pos", "j * (self._stride - 1) + pos",
     "tests/test_simulation.py::test_read_keys_decode_to_the_tuple_log",
     "informant rows are keyed one position too close, so a row's last read decodes as the next row's"),
    (SIMULATION, "            if key < 0:\n", "            if key >= 0:\n",
     "tests/test_simulation.py::test_stage_view_logs_reads",
     "the decode reads informant keys as target entries and target keys as informant entries"),
    (SIMULATION, "        if pointer is not None and last_pointer is not None and pointer < last_pointer:\n",
     "        if False:\n",
     "tests/test_simulation.py::test_run_session_asserts_pointer_monotonicity",
     "a pointer that retreats is not refused"),
    (SIMULATION, "pointer = None if at is None else state[at]", "pointer = 0 if at is None else state[at]",
     "tests/test_cli.py::test_pointer_free_transcripts "
     "tests/test_simulation.py::test_session_tables_match_the_lazy_reference_view",
     "a learner without a pointer gets pointer 0 at every stage"),
    (SIMULATION, "    def informant_bit(self, j: int, pos: int) -> int:\n"
     "        if not 0 <= pos < self._bound:\n            check_read(self._stage, pos, self._bound)\n",
     "    def informant_bit(self, j: int, pos: int) -> int:\n",
     "tests/test_simulation.py::test_stage_view_enforces_the_bound",
     "the stage view answers informant reads at or past the use bound"),
    (SIMULATION, "run_session(learner, trace.target, Informant.explicit(completion), horizon)",
     "run_session(learner, trace.target, trace.informant, horizon)",
     "tests/test_simulation.py::test_use_principle_replays_reach_the_learner",
     "use-principle replays run on the original informant"),
    (ADVERSARY, "(j < last or j <= i_s)", "(j <= last or j <= i_s)",
     "tests/test_adversary.py::test_membership_values_match_the_slot_reference",
     "the membership procedure also pins slot `last` itself"),
    (ADVERSARY, "    def informant_bit(self, j, pos):\n"
     "        if not 0 <= pos < self._bound:\n            check_read(self._stage, pos, self._bound)\n",
     "    def informant_bit(self, j, pos):\n",
     "tests/test_adversary.py::test_diagonalize_view_rejects_what_the_stage_view_rejects[informant-at-bound]",
     "the diagonalizer's view answers informant reads at or past the use bound"),
    (FORMULAS, "(turn,) if dn else ()", "()",
     "tests/test_formulas.py::test_exact_least_witness",
     "an le atom whose mask names n is taken as n-free, so e0's search stops after n = 0"),
    (FORMULAS, "        if not (isinstance(sx, list) and len(sx) == 4 and sx[0] == \"ix\"):\n"
     "            raise ConfigError(f\"expected (ix cN cM c), got {sx!r}\")\n", "",
     "tests/test_formulas.py::test_parse_errors",
     "the parser takes any s-expression for an index term"),
    (FORMULAS, "    if not isinstance(sx, list) or not sx:\n"
     "        raise ConfigError(f\"expected a {what} form, got {sx!r}\")\n", "",
     "tests/test_formulas.py::test_parse_errors",
     "the parser takes an atom or an empty list for a predicate or formula form"),
    (RELATIONS, "range(on_branch + 1, len(node))", "range(on_branch, len(node))",
     "tests/test_relations.py::test_prefix_closure_matches_the_per_prefix_check",
     "the prefix-closure check starts at the shared length, not one past it"),
    (RELATIONS, "cut = (u[-1] if u else 0) + 1", "cut = (u[-1] + 1 if u else 0)",
     "tests/test_relations.py::test_branch_word_bits_enumerate_the_branch",
     "a branch word with an empty stem is cut one bit short"),
    (WORDS, "pre[-1 - k] == per[-1 - k % p]", "pre[-1 - k] == per[-1]",
     "tests/test_words.py::test_canonicalization_preserves_bits",
     "absorption compares every tail bit with the period's last bit"),
    (WORDS, "return s[:(s + s).find(s, 1)]", "return s",
     "tests/test_words.py::test_canonical_form_minimal",
     "a period is never reduced to its primitive root"),
    (WORDS, "if value.bit_length() <= n:", "if value.bit_length() < n:",
     "tests/test_formulas.py::test_kept_bit_ints_stay_exact",
     "a kept bit-int one bit too short is not rebuilt, so its marker reads as bit n - 1"),
    (WORDS, "[pos + 1 for pos in bits]", "[pos for pos in bits]",
     "tests/test_words.py::test_with_bits_sets_exactly_the_given_bits",
     "a bit patched past the preperiod lands in the period, so it repeats"),
    (WORDS, "or not set(bits.values()) <= {0, 1}", "",
     "tests/test_words.py::test_with_bits_rejects_bad_bits",
     "with_bits writes a bit value other than 0 or 1 as a 1"),
    (WORDS, "text[2 * h + 1::2]", "text[2 * h::2]",
     "tests/test_words.py::test_split_parts_sample_the_right_positions",
     "the odd part's period samples the even positions"),
    (RELATIONS, "with_bits(x, {0: 0}) == with_bits(y, {0: 0})",
     "with_bits(x, {1: 0}) == with_bits(y, {1: 0})",
     "tests/test_relations.py::test_sim3_sim4_sim5_values",
     "sim3 ignores bit 1 instead of bit 0"),
    (ADVERSARY, "committed = words.finite_support_word(sum(1 << p for p in view.ones))",
     "committed = words.finite_support_word(sum(1 << p + 1 for p in view.ones))",
     "tests/test_adversary.py::test_diagonalize_forces_the_synthesized_learner",
     "the committed target puts each one a position past where it was committed"),
    (ADVERSARY, "if w.size == total:", "if w.size <= total:",
     "tests/test_adversary.py::test_enumerate_words_prefix_and_canonicality",
     "the word enumeration keeps descriptions that canonicalization shortened"),
    (FORMULAS, 'op = "and" if isinstance(p, And) else "or"', 'op = "&" if isinstance(p, And) else "|"',
     "tests/test_formulas.py::test_compile_reads_what_eval_pred_reads_in_its_order",
     "a lowered and/or reads both sides instead of short-circuiting"),
    (FORMULAS, '"view.informant_bit(j, {})"', '"view.informant_bit(0, {})"',
     "tests/test_learners.py::test_synth_step_matches_the_reference_walk",
     "the range test reads informant word 0 whatever pair it tests"),
    (FORMULAS, "(1 << {_clamp(dn, dc + 1)})", "(1 << {_clamp(dn, dc)})",
     "tests/test_formulas.py::test_least_refutation_matches_eval_pred_at_every_m",
     "the low range of an le atom with negative slope misses its last m"),
    (FORMULAS, '    And: ("and", "ff"),\n    Or: ("or", "ff"),\n',
     '    And: ("or", "ff"),\n    Or: ("and", "ff"),\n',
     "tests/test_formulas.py::test_parse_format_round_trip",
     "the parser reads a formula-level and as or, and or as and"),
    (LEARNERS, "if a else (b + 1, 0)", "if a else (b, 0)",
     "tests/test_learners.py::test_synth_step_matches_the_reference_walk",
     "the synth learner's pair walk never leaves its first diagonal"),
    (SIMULATION, "[m + 1 for _, _, m in refutations", "[m for _, _, m in refutations",
     "tests/test_simulation.py::test_certificates_on_random_codes",
     "a certificate's stabilization stage is one short of its last refuting m"),
    (ADVERSARY, "lambda j: z if j == 0", "lambda j, pins=dict(pins): z if j == 0",
     "tests/test_adversary.py::test_membership_values_match_the_slot_reference",
     "the membership informant reads the pins as they were before the first stage"),
    (SIMULATION, "reversed([0] + changes)", "reversed(changes)",
     "tests/test_simulation.py::test_bc_without_ex_convergence",
     "summarize never decides the first run of one hypothesis, so BC starts after it"),
    (SIMULATION, "ex_correct = bc_start is not None and last_change < trace.horizon",
     "ex_correct = bc_start is not None",
     "tests/test_simulation.py::test_bc_without_ex_convergence",
     "a mind change at the horizon does not spoil EX correctness"),
    (SIMULATION, "reversed([0] + changes)", "reversed(range(len(hyps)))",
     "tests/test_simulation.py::test_summarize_decides_once_per_hypothesis_run",
     "summarize decides the hypothesis at every stage, not once per run"),
    (RELATIONS, "x.prefix(start + p)[start:] == y.prefix(start + p)[start:]",
     "x.prefix(start + p)[start + 1:] == y.prefix(start + p)[start + 1:]",
     "tests/test_relations.py::test_id_and_e0_values",
     "e0 skips the first position past both preperiods"),
    (RELATIONS, "return len(y.per) == p and x.prefix", "return x.prefix",
     "tests/test_relations.py::test_id_and_e0_values",
     "e0 reads only the first word's period length, so a longer period agreeing there is related"),
    (RELATIONS, '"NO" if branches else "YES"', '"NO" if params.generators else "YES"',
     "tests/test_relations.py::test_learnability_follows_the_branches_the_relation_reads",
     "a tree is labelled NO for a generator that enumerates no word"),
    (FORMULAS, "return big_l + period, mu, kappa + 1 + period, outer",
     "return big_l, mu, kappa + 1 + period, outer",
     "tests/test_formulas.py::test_exact_witness_matches_a_wider_brute_force_scan",
     "the exact search's inner floor drops its + P, so it misses a refutation at m = L + P - 1"),
    (FORMULAS, "outer = max(classical, big_l + 3 * period + 2 * kappa + 2)", "outer = big_l + 1",
     "tests/test_formulas.py::test_exact_witness_matches_a_wider_brute_force_scan",
     "the exact search stops its outer scan at L + 1"),
    (FORMULAS, "range({_at(lo)}, {_at(hi)})", "range({_at(lo)}, {_at(hi)} + 1)",
     "tests/test_formulas.py::test_countle_counts_a_window",
     "a lowered cntle atom counts one position past hi"),
    (FORMULAS, "    for m in range(lo, hi):\n        if not {holds}:\n            return False\n    return True\n",
     "    ok = True\n    for m in range(lo, hi):\n        if not {holds}:\n            ok = False\n    return ok\n",
     "tests/test_formulas.py::test_compile_reads_what_eval_pred_reads_in_its_order",
     "the range test runs on past the first false m"),
    (SIMULATION, "    length = max(bounds)\n", "    length = max(bounds) - 1\n",
     "tests/test_cli.py::test_pointer_free_transcripts",
     "a session's bit tables stop one position short of the largest use bound"),
    (SIMULATION, "w = self._informant.word(j)", "w = self._informant.word(j + 1)",
     "tests/test_simulation.py::test_reference_session_trace",
     "a session's informant row j is built from word j + 1"),
    (SIMULATION, "max([k] + [m + 1", "max([k - 1] + [m + 1",
     "tests/test_simulation.py::test_reference_certificate",
     "a certificate's stabilization stage counts from the pair before the limit pair"),
    (LEARNERS, "    def step(self, state, stage: int, view):\n        recent = range(",
     "    start_state = []\n\n    def step(self, state, stage: int, view):\n"
     "        state.append(stage)\n        recent = range(",
     "tests/test_learners.py::test_step_never_mutates_its_state",
     "recent-ones keeps a list state and appends to it in step"),
    (FORMULAS, "    @functools.cached_property\n    def lowered(self) -> Lowered:\n"
     "        \"\"\"lower(pred), built once per node",
     "    @property\n    def lowered(self) -> Lowered:\n"
     "        \"\"\"lower(pred), built once per node",
     "tests/test_formulas.py::test_each_code_node_keeps_one_lowering",
     "an EF code lowers its predicate again on every read of .lowered"),
    (SIMULATION, "        row = self[j] = self._row(w)\n", "        row = self._row(w)\n",
     "tests/test_adversary.py::test_diagonalize_fetches_each_informant_word_once",
     "the informant store builds a row on every read instead of once per index"),
    (ADVERSARY, "InformantRows(informant, lambda w: w)", 'InformantRows(informant, lambda w: Word("", "1"))',
     "tests/test_adversary.py::test_diagonalize_fetches_each_informant_word_once",
     "the diagonalizer's informant reads answer from the word at index 0 whatever the index"),
    (RELATIONS, r"(?:^|\.)", r"\.",
     "tests/test_relations.py::test_parse_tree_file",
     "a tree path drops its first component"),
    (ERRORS, "raw.partition(comment)[0].strip()", "raw.partition(comment)[0]",
     "tests/test_cli.py::test_text_formats_share_one_comment_rule",
     "the text reader keeps a line of blanks and the blanks around its content"),
    (ERRORS, "raw.partition(comment)", 'raw.partition("#")',
     "tests/test_cli.py::test_text_formats_share_one_comment_rule",
     "the text reader cuts comments at # even in formula text, whose comments start at ;"),
    (CLI, "\n            and learner.lowered.profile[2] is None):", "):",
     "tests/test_cli.py::test_simulate_skips_certification_when_exact_evaluation_refuses",
     "simulate certifies a synth code whose lowering refuses exact evaluation, so it exits 2"),
    (ADVERSARY, "                if witness.is_inf or relation.decide(witness, one_rep):\n"
     "                    raise ContractViolation(\n", "                if False:\n"
     "                    raise ContractViolation(\n",
     "tests/test_adversary.py::test_diagonalize_checks_the_stuck_witness",
     "the diagonalizer reports a stuck witness that does not refute the parked claim"),
    (CLI, "            return 4\n", "            return 0\n",
     "tests/test_cli.py::test_wrong_code_disagrees_with_exit_4",
     "crosscheck reports a disagreement but exits 0"),
    (CLI, 'evaluator={got}", file=sys.stderr)', 'evaluator={got}")',
     "tests/test_cli.py::test_wrong_code_disagrees_with_exit_4",
     "crosscheck prints its disagreement line to stdout"),
    (SIMULATION, 'cert = "-" if certificate is None else str(certificate.limit_index)', 'cert = "-"',
     "tests/test_simulation.py::test_record_formats",
     "the summary record prints certified=- whatever the certificate"),
    (ADVERSARY, "    @functools.cache\n    def b_checked", "    def b_checked",
     "tests/test_adversary.py::test_membership_checks_b_eagerly",
     "the membership procedure calls b again for every pin, not once per n"),
    (CLI, "            if name in readers:\n", "            if True:\n",
     "tests/test_cli.py::test_unread_flags_are_usage_errors",
     "every subcommand takes every flag, so a flag it does not read is accepted and ignored"),
    (CLI, "    if extra:\n        args.parser.error(", "    if False:\n        args.parser.error(",
     "tests/test_cli.py::test_unread_flags_are_usage_errors",
     "main drops the flags no parser takes, so a stray flag is silently accepted"),
    (CLI, '(1, HORIZON_CAP), None, ("simulate",)', "(1, HORIZON_CAP), None, ()",
     "tests/test_cli.py::test_simulate_reference_output",
     "simulate does not take --horizon, so a session with a horizon flag is a usage error"),
    (FORMULAS, 'return f"(h{len(parts) - 1} & full)"', 'return f"h{len(parts) - 1}"',
     "tests/test_formulas.py::test_hoisted_search_matches_the_unhoisted_mask",
     "the search reads a hoisted n-free part at the widest width, without & full"),
    (FORMULAS, '_WIDEST = "    full = (1 << max(floor, mu * outer + lift)) - 1\\n"',
     '_WIDEST = "    full = (1 << max(floor, lift)) - 1\\n"',
     "tests/test_formulas.py::test_hoisted_search_matches_the_unhoisted_mask",
     "the search computes its hoisted parts at the first width, not the widest"),
    (SIMULATION, "    if k > HORIZON_CAP:\n", "    if k >= HORIZON_CAP:\n",
     "tests/test_simulation.py::test_certificate_refuses_a_limit_past_the_horizon_cap",
     "certification refuses a limit pair at the horizon cap, not only past it"),
    (FORMULAS, "    if (outer if mu else 1) * width > SCAN_CAP:\n", "    if False:\n",
     "tests/test_formulas.py::test_exact_search_refuses_past_its_scan_cap",
     "the exact search runs whatever its size, past the scan cap too"),
    (FORMULAS, "_affine(0, -slope, -dc)", "_affine(0, -slope, 1 - dc)",
     "tests/test_formulas.py::test_hoisted_search_matches_the_unhoisted_mask",
     "an le atom with dn = 1 turns one n late, so the search jumps past e0's witness"),
    (FORMULAS, "        if any(t.coeff_n for _, t, _ in reads):\n", "        if False:\n",
     "tests/test_formulas.py::test_hoisted_search_matches_the_unhoisted_mask",
     "the search jumps past a failed n although a bit atom names n, so it skips a witness"),
    (FORMULAS, "_affine(0, slope, dc + 1)", "_affine(0, -slope, dc + 1)",
     "tests/test_formulas.py::test_hoisted_search_matches_the_unhoisted_mask",
     "an le atom with dn = -1 turns at dc - slope*m + 1, so not (le n m) never turns"),
]


def run_row(row) -> tuple[str, str]:
    """The row's verdict (killed, SURVIVED or BROKEN) and pytest's output."""
    path, old, new, selection, _ = row
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, Path(tmp) / name,
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy(ROOT / name, Path(tmp) / name)
        target = Path(tmp) / path
        text = target.read_text()
        if text.count(old) != 1:
            return "BROKEN", f"old snippet occurs {text.count(old)} times in {path}"
        target.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(Path(tmp) / "src"), os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               "--hypothesis-profile=mutants", *selection.split()],
                              cwd=tmp, env=env, capture_output=True, text=True)
    verdict = {1: "killed", 0: "SURVIVED"}.get(done.returncode, "BROKEN")
    return verdict, f"pytest exit {done.returncode}\n{done.stdout[-2000:]}{done.stderr[-2000:]}"


def timed_row(row) -> tuple[str, str, float]:
    """run_row's verdict and output, and the row's own wall time in seconds."""
    start = time.perf_counter()
    return (*run_row(row), time.perf_counter() - start)


def main() -> int:
    start, workers, failures = time.perf_counter(), os.cpu_count() or 1, 0
    with ThreadPoolExecutor(workers) as pool:  # map yields in table order
        for number, (row, (verdict, output, seconds)) in enumerate(
                zip(ROWS, pool.map(timed_row, ROWS)), 1):
            print(f"{verdict:8} {seconds:5.1f} s  row {number:2}: {row[4]}", flush=True)
            if verdict != "killed":
                failures += 1
                print(output, flush=True)
    print(f"{len(ROWS) - failures} of {len(ROWS)} rows killed in "
          f"{time.perf_counter() - start:.0f} s on {workers} workers")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

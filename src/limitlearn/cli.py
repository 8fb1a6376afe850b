"""Command line experiment runner.

Five subcommands: catalog, simulate, adversary, falsify, crosscheck.  Each
takes only the flags it reads.  A flat key = value config file can hold any
subcommand's keys and is checked whole; flags win on conflict.
All randomness flows from the single seed through one generator, so equal
configs emit byte-identical records.

Exit codes: 0 success, 2 config error, 3 contract violation, 4 crosscheck
disagreement.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path
from types import SimpleNamespace

from .adversary import (
    candidate_codes,
    diagonalize_inf,
    falsify_inf_classifier,
    format_adversary_record,
    inf_family_informant,
)
from .errors import (
    ConfigError,
    ContractViolation,
    UnsupportedAtomError,
    content_lines,
    natural,
    read_text,
)
from .formulas import eval_exact_ep, parse_formula
from .learners import Informant, SynthLearner, learner_from_string
from .relations import (
    catalog_rows,
    make_relation,
    oscillation_display_holds,
    parse_tree_file,
)
from .sampling import crosscheck_pair
from .simulation import (
    HORIZON_CAP,
    certify_convergence,
    format_stage_record,
    format_summary_record,
    run_session,
    summarize,
)
from .words import finite_support_word, parse_word

# Each option once: attribute (flag --attribute, - for _), config key, default,
# accepted range (None: unbounded), help, and readers: the subcommands that
# take its flag.  An int default marks a natural number.  A config file may hold
# any key, whichever subcommand reads it, and every value is checked.
# maxSize stops at 7: 544,644 pairs, which falsify sweeps in 2.0-2.3 s
# on e0 and 1.1-1.2 s on id (four runs each, 2026-10-21) on a 2-core Xeon host
# under Python 3.11.7.  horizon stops at 1,000,000, where README's e0 simulate
# session takes 5.4-7.1 s and peaks at 382 MiB RSS on that host: a session
# builds its use bounds and bit tables for the whole horizon before stage 0, so
# 10^9 would need gigabytes first.
# The budgets stop where a run still ends in seconds on that host: patience at
# 1,000,000 (adversary against constant:0, 1.0 s; 10^7 takes 6.9 s), rounds at
# 1,000 (recent-ones, 1.0 s; its use bound is the stage, so a run is quadratic
# in it and 3,000 take 8.2 s), samples at 100,000 (crosscheck on e0, 3.8 s;
# 10^6 take 36 s).
_OPTIONS = (
    ("relation", "relation", None, None, "catalog name or tree:PATH",
     ("simulate", "adversary", "falsify", "crosscheck")),
    ("target", "target", None, None, "word literal PRE|PER", ("simulate",)),
    ("informant", "informant", None, None, "word literals, or one generator name",
     ("simulate",)),
    ("learner", "learner", None, None, "learner selection string", ("simulate", "adversary")),
    ("horizon", "horizon", 100, (1, HORIZON_CAP), None, ("simulate",)),
    ("seed", "seed", 0, (0, None), None, ("crosscheck",)),
    ("patience", "patience", 64, (0, 1_000_000), None, ("adversary",)),
    ("rounds", "rounds", 10, (0, 1_000), None, ("adversary",)),
    ("max_size", "maxSize", 6, (1, 7), None, ("falsify",)),
    ("samples", "samples", 100, (1, 100_000), None, ("crosscheck",)),
    ("code", "code", None, None, "formula file", ("falsify", "crosscheck")),
)
_CONFIG_KEYS = {key for _, key, *_ in _OPTIONS}

_GENERATORS = {
    "finite-support": lambda: Informant(finite_support_word),
    "inf-family": inf_family_informant,
}


def parse_config_file(text: str) -> dict:
    out = {}
    for lineno, raw, line in content_lines(text, "#"):
        key, eq, value = line.partition("=")
        if not eq:
            raise ConfigError(f"config line {lineno}: expected key = value, got {raw!r}")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"config line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _merge(args) -> SimpleNamespace:
    """Each option from its flag, else its config line, else its default."""
    file_cfg, base_dir = {}, Path.cwd()
    if args.config:
        path = Path(args.config)
        file_cfg, base_dir = parse_config_file(read_text(path, "config")), path.parent
    cfg = SimpleNamespace(base_dir=base_dir)
    for attr, key, default, bounds, *_ in _OPTIONS:
        value = getattr(args, attr, None)
        if value is None:
            value = file_cfg.get(key, default)
        if isinstance(default, int):
            value = natural(value, key, *bounds)
        setattr(cfg, attr, value)
    return cfg


def _require(cfg: SimpleNamespace, field: str):
    value = getattr(cfg, field)
    if value is None:
        raise ConfigError(f"missing required field {field!r}")
    return value


def _relation_of(cfg: SimpleNamespace):
    name = _require(cfg, "relation")
    if name.startswith("tree:"):
        text = read_text(cfg.base_dir / name[len("tree:"):], "tree file")
        return make_relation("tree", parse_tree_file(text))
    return make_relation(name)


def _informant_of(cfg: SimpleNamespace) -> Informant:
    tokens = _require(cfg, "informant")
    if isinstance(tokens, str):
        tokens = tokens.split()
    if len(tokens) == 1 and tokens[0] in _GENERATORS:
        return _GENERATORS[tokens[0]]()
    return Informant.explicit([parse_word(t) for t in tokens])


def _read_code(cfg: SimpleNamespace):
    return parse_formula(read_text(cfg.base_dir / cfg.code, "code file"))


def _cmd_catalog(cfg: SimpleNamespace) -> int:
    for name, learnable, summary in catalog_rows():
        print(f"relation={name} learnable={learnable} summary={summary}")
    return 0


def _cmd_simulate(cfg: SimpleNamespace) -> int:
    relation = _relation_of(cfg)
    target = parse_word(_require(cfg, "target"))
    informant = _informant_of(cfg)
    learner = learner_from_string(_require(cfg, "learner"), relation, informant,
                                  str(cfg.base_dir))
    trace = run_session(learner, target, informant, cfg.horizon)
    certificate = None
    if (isinstance(learner, SynthLearner) and informant.size is not None
            and learner.lowered.profile[2] is None):
        certificate = certify_convergence(learner, target)
    for s in range(trace.horizon + 1):
        print(format_stage_record(s, trace.hypotheses[s], trace.pointers[s],
                                  len(trace.read_keys[s])))
    print(format_summary_record(summarize(trace, relation), certificate))
    return 0


def _cmd_adversary(cfg: SimpleNamespace) -> int:
    relation = _relation_of(cfg)
    learner = learner_from_string(_require(cfg, "learner"), relation,
                                  inf_family_informant(), str(cfg.base_dir))
    run = diagonalize_inf(learner, relation, cfg.patience, cfg.rounds)
    print(format_adversary_record(run))
    return 0


def _cmd_falsify(cfg: SimpleNamespace) -> int:
    relation = _relation_of(cfg)
    if cfg.code is not None:
        codes = ((Path(cfg.code).stem, _read_code(cfg)),)
    else:
        codes = candidate_codes()
    for name, code in codes:
        pair = falsify_inf_classifier(code, relation, cfg.max_size)
        if pair is None:
            print(f"code={name} counterexample=NONE")
        else:
            print(f"code={name} counterexample x={pair[0].literal} y={pair[1].literal}")
    return 0


def _cmd_crosscheck(cfg: SimpleNamespace) -> int:
    relation = _relation_of(cfg)
    if relation.name == "oscillation":
        if cfg.code is not None:
            raise ConfigError("oscillation crosschecks against the display evaluation, not a code")
        check = oscillation_display_holds
    else:
        code = _read_code(cfg) if cfg.code is not None else relation.code
        if code is None:
            raise ConfigError(f"relation {relation.name} has no exact code to crosscheck")
        def check(x, y, code=code):
            return eval_exact_ep(code, x, y)
    rng = random.Random(cfg.seed)
    for i in range(cfg.samples):
        x, y = crosscheck_pair(rng, relation)
        expected = relation.decide(x, y)
        got = check(x, y)
        if got != expected:
            print(f"disagreement: sample {i}: x={x.literal} y={y.literal} "
                  f"oracle={expected} evaluator={got}", file=sys.stderr)
            return 4
    print(f"crosscheck relation={relation.name} samples={cfg.samples} "
          f"seed={cfg.seed} agreement=ok")
    return 0


_COMMANDS = {
    "catalog": _cmd_catalog,
    "simulate": _cmd_simulate,
    "adversary": _cmd_adversary,
    "falsify": _cmd_falsify,
    "crosscheck": _cmd_crosscheck,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="limitlearn",
        description="Learning-in-the-limit experiments over eventually periodic words",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.set_defaults(parser=p)  # leftover flags get this subcommand's usage line
        p.add_argument("--config", help="key = value config file")
        for attr, _, _, _, help_text, readers in _OPTIONS:
            if name in readers:
                p.add_argument("--" + attr.replace("_", "-"), help=help_text,
                               nargs="+" if attr == "informant" else None)
    return parser


def main(argv=None) -> int:
    args, extra = _build_parser().parse_known_args(argv)
    if extra:
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        cfg = _merge(args)
        return _COMMANDS[args.command](cfg)
    except (ConfigError, UnsupportedAtomError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ContractViolation as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

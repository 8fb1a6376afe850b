"""Command line experiment runner.

Five subcommands: catalog, simulate, adversary, falsify, crosscheck.  A flat
key = value config file can stand in for any flag; flags win on conflict.
All randomness flows from the single seed through one generator, so equal
configs emit byte-identical records.

Exit codes: 0 success, 2 config error, 3 contract violation, 4 crosscheck
disagreement.
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass
from pathlib import Path

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
    CrosscheckDisagreement,
    UnsupportedAtomError,
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
    certify_convergence,
    format_stage_record,
    format_summary_record,
    run_session,
    summarize,
)
from .words import parse_word

_DEFAULTS = {
    "horizon": 100,
    "seed": 0,
    "patience": 64,
    "rounds": 10,
    "maxSize": 6,
    "samples": 100,
}
_INT_KEYS = set(_DEFAULTS)
_CONFIG_KEYS = _INT_KEYS | {"relation", "target", "informant", "learner", "code"}

_GENERATORS = {
    "finite-support": lambda: Informant.finite_support(),
    "inf-family": inf_family_informant,
}


@dataclass(frozen=True)
class ExperimentConfig:
    relation: str | None
    target: str | None
    informant: tuple | None
    learner: str | None
    horizon: int
    seed: int
    patience: int
    rounds: int
    max_size: int
    samples: int
    code: str | None
    base_dir: Path


def parse_config_file(text: str) -> dict:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ConfigError(f"config line {lineno}: expected key = value, got {raw!r}")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        out[key] = value
    return out


def _to_int(key: str, value) -> int:
    try:
        n = int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a natural number, got {value!r}") from None
    if n < 0:
        raise ConfigError(f"{key} must be nonnegative, got {n}")
    return n


def _merge(args) -> ExperimentConfig:
    file_cfg = {}
    base_dir = Path.cwd()
    if getattr(args, "config", None):
        path = Path(args.config)
        try:
            file_cfg = parse_config_file(path.read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        base_dir = path.parent

    def pick(flag_name, key):
        flag = getattr(args, flag_name, None)
        if flag is not None:
            return flag
        if key in file_cfg:
            return file_cfg[key]
        return _DEFAULTS.get(key)

    informant = pick("informant", "informant")
    if isinstance(informant, str):
        informant = tuple(informant.split())
    elif informant is not None:
        informant = tuple(informant)
    return ExperimentConfig(
        relation=pick("relation", "relation"),
        target=pick("target", "target"),
        informant=informant,
        learner=pick("learner", "learner"),
        horizon=_to_int("horizon", pick("horizon", "horizon")),
        seed=_to_int("seed", pick("seed", "seed")),
        patience=_to_int("patience", pick("patience", "patience")),
        rounds=_to_int("rounds", pick("rounds", "rounds")),
        max_size=_to_int("maxSize", pick("max_size", "maxSize")),
        samples=_to_int("samples", pick("samples", "samples")),
        code=pick("code", "code"),
        base_dir=base_dir,
    )


def _require(cfg: ExperimentConfig, field: str):
    value = getattr(cfg, field)
    if value is None:
        raise ConfigError(f"missing required field {field!r}")
    return value


def _relation_of(cfg: ExperimentConfig):
    name = _require(cfg, "relation")
    if name.startswith("tree:"):
        path = cfg.base_dir / name[len("tree:"):]
        try:
            return make_relation("tree", parse_tree_file(path.read_text()))
        except OSError as exc:
            raise ConfigError(f"cannot read tree file {path}: {exc}") from exc
    return make_relation(name)


def _informant_of(cfg: ExperimentConfig) -> Informant:
    tokens = _require(cfg, "informant")
    if len(tokens) == 1 and tokens[0] in _GENERATORS:
        return _GENERATORS[tokens[0]]()
    return Informant.explicit([parse_word(t) for t in tokens])


def _read_code(cfg: ExperimentConfig):
    path = cfg.base_dir / cfg.code
    try:
        return parse_formula(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read code file {path}: {exc}") from exc


def _cmd_catalog(cfg: ExperimentConfig, out) -> int:
    for name, learnable, summary in catalog_rows():
        print(f"relation={name} learnable={learnable} summary={summary}", file=out)
    return 0


def _cmd_simulate(cfg: ExperimentConfig, out) -> int:
    relation = _relation_of(cfg)
    target = parse_word(_require(cfg, "target"))
    informant = _informant_of(cfg)
    learner = learner_from_string(_require(cfg, "learner"), relation, informant,
                                  str(cfg.base_dir))
    if cfg.horizon < 1:
        raise ConfigError("horizon must be at least 1")
    trace = run_session(learner, target, informant, cfg.horizon)
    certificate = None
    if isinstance(learner, SynthLearner) and informant.is_explicit:
        certificate = certify_convergence(learner, target)
    for s in range(trace.horizon + 1):
        print(format_stage_record(s, trace.hypotheses[s], trace.pointers[s],
                                  len(trace.reads[s])), file=out)
    report = summarize(trace, relation, certificate)
    print(format_summary_record(report), file=out)
    return 0


def _cmd_adversary(cfg: ExperimentConfig, out) -> int:
    relation = _relation_of(cfg)
    learner = learner_from_string(_require(cfg, "learner"), relation,
                                  inf_family_informant(), str(cfg.base_dir))
    run = diagonalize_inf(learner, relation, cfg.patience, cfg.rounds)
    print(format_adversary_record(run), file=out)
    return 0


def _cmd_falsify(cfg: ExperimentConfig, out) -> int:
    relation = _relation_of(cfg)
    if cfg.max_size < 1:
        raise ConfigError("maxSize must be at least 1")
    if cfg.code is not None:
        codes = ((Path(cfg.code).stem, _read_code(cfg)),)
    else:
        codes = candidate_codes()
    for name, code in codes:
        pair = falsify_inf_classifier(code, relation, cfg.max_size)
        if pair is None:
            print(f"code={name} counterexample=NONE", file=out)
        else:
            print(f"code={name} counterexample x={pair[0].literal} y={pair[1].literal}",
                  file=out)
    return 0


def _cmd_crosscheck(cfg: ExperimentConfig, out) -> int:
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
    if cfg.samples < 1:
        raise ConfigError("samples must be at least 1")
    rng = random.Random(cfg.seed)
    for i in range(cfg.samples):
        x, y = crosscheck_pair(rng, relation)
        expected = relation.decide(x, y)
        got = check(x, y)
        if got != expected:
            raise CrosscheckDisagreement(
                f"sample {i}: x={x.literal} y={y.literal} oracle={expected} evaluator={got}",
                witness=(x, y),
            )
    print(f"crosscheck relation={relation.name} samples={cfg.samples} "
          f"seed={cfg.seed} agreement=ok", file=out)
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
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--relation", help="catalog name or tree:PATH")
        p.add_argument("--target", help="word literal PRE|PER")
        p.add_argument("--informant", nargs="+",
                       help="word literals, or one generator name")
        p.add_argument("--learner", help="learner selection string")
        p.add_argument("--horizon", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--patience", type=int)
        p.add_argument("--rounds", type=int)
        p.add_argument("--max-size", dest="max_size", type=int)
        p.add_argument("--samples", type=int)
        p.add_argument("--code", help="formula file")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _merge(args)
        return _COMMANDS[args.command](cfg, sys.stdout)
    except (ConfigError, UnsupportedAtomError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ContractViolation as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 3
    except CrosscheckDisagreement as exc:
        print(f"disagreement: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

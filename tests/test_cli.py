"""Command line surface: subcommands, config merging, record output, exit
codes, and the README's transcripts.  Most tests call main() in process;
one builds the console script that pyproject.toml declares in a temporary
directory and runs it by name.
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import limitlearn
from limitlearn import cli
from limitlearn.cli import _OPTIONS, main, parse_config_file
from limitlearn.errors import ConfigError, natural
from limitlearn.formulas import parse_formula
from limitlearn.learners import learner_from_string
from limitlearn.relations import parse_tree_file

E0_CODE_TEXT = "(ef (or (le (ix 0 1 1) (ix 1 0 0)) (eq (ix 0 1 0) (ix 0 1 0))))\n"
ID_CODE_TEXT = "(ef (eq (ix 0 1 0) (ix 0 1 0)))\n"

CATALOG_LINES = [
    "relation=id learnable=YES summary=equality of sequences",
    "relation=e0 learnable=YES summary=eventual equality of tails",
    "relation=oscillation learnable=YES summary=mutually bounded one-counts over zero blocks",
    "relation=sim0 learnable=NO summary=both infinite support, or equal",
    "relation=sim1 learnable=NO summary=same side of the infinite-support divide",
    "relation=sim3 learnable=NO summary=equal, or both infinite and equal past position 0",
    "relation=sim4 learnable=NO summary=as sim3, or both finite starting with 1",
    "relation=sim5 learnable=NO summary=as sim3, or both finite agreeing at 0",
    "relation=tree learnable=N/A summary=equal, or even parts on tree branches with infinite odd parts",
]

SIMULATE_LINES = [
    "stage=0 hypothesis=0 pointer=0 bitsReadCount=0",
    "stage=1 hypothesis=0 pointer=0 bitsReadCount=2",
    "stage=2 hypothesis=0 pointer=2 bitsReadCount=4",
    "stage=3 hypothesis=2 pointer=3 bitsReadCount=2",
    "stage=4 hypothesis=1 pointer=4 bitsReadCount=0",
    "stage=5 hypothesis=1 pointer=4 bitsReadCount=8",
    "stage=6 hypothesis=1 pointer=4 bitsReadCount=2",
    "stage=7 hypothesis=1 pointer=4 bitsReadCount=2",
    "stage=8 hypothesis=1 pointer=4 bitsReadCount=2",
    "summary mindChanges=2 lastChangeStage=4 exCorrectAtHorizon=true "
    "bcCorrectSuffixStart=4 certified=1",
]


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "e0.s2f").write_text(E0_CODE_TEXT)
    (tmp_path / "idcode.s2f").write_text(ID_CODE_TEXT)
    (tmp_path / "run.cfg").write_text(
        "# reference experiment\n"
        "relation = e0\n"
        "target = 1|0\n"
        "informant = |1 |0\n"
        "learner = synth:e0.s2f\n"
        "horizon = 3\n"
    )
    return tmp_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------- subcommands

def test_catalog_output(capsys):
    code, out, err = run_cli(capsys, "catalog")
    assert code == 0 and err == ""
    assert out.splitlines() == CATALOG_LINES


def test_simulate_reference_output(capsys, workdir):
    code, out, _ = run_cli(
        capsys, "simulate",
        "--relation", "e0", "--target", "1|0", "--informant", "|1", "|0",
        "--learner", "synth:e0.s2f", "--horizon", "8",
        "--config", str(workdir / "run.cfg"),
    )
    assert code == 0
    assert out.splitlines() == SIMULATE_LINES


def test_simulate_from_config_alone(capsys, workdir):
    code, out, _ = run_cli(capsys, "simulate", "--config", str(workdir / "run.cfg"))
    assert code == 0
    # horizon 3 from the file: four stage records and the summary
    assert out.splitlines()[:4] == SIMULATE_LINES[:4]
    assert len(out.splitlines()) == 5


def test_simulate_generator_informant_skips_certification(capsys, workdir):
    code, out, _ = run_cli(
        capsys, "simulate",
        "--relation", "e0", "--target", "1|0", "--informant", "finite-support",
        "--learner", "synth:e0.s2f", "--horizon", "4",
        "--config", str(workdir / "run.cfg"),
    )
    assert code == 0
    assert out.splitlines()[-1].endswith("certified=-")


def test_simulate_bounds_the_exact_work_it_certifies(capsys, workdir):
    """Certification refuses at once, with one error line and no stage, a
    limit pair past the horizon cap (least witness 30,001, Cantor index
    450,075,002) and an exact search past the scan cap (periods 401 and 405).
    Periods 101 and 105 stay under both: their session certifies nothing."""
    def simulate(target, word, horizon):
        return run_cli(capsys, "simulate", "--relation", "e0", "--target", target,
                       "--informant", word, "--learner", f"synth:{workdir / 'e0.s2f'}",
                       "--horizon", horizon)

    for target, word in (("0" * 30000 + "1|0", "|0"), ("|1" + "0" * 400, "|1" + "0" * 404)):
        code, out, err = simulate(target, word, "1")
        assert code == 2 and out == "", err
        assert err.startswith("error:") and err.count("\n") == 1, err
    code, out, err = simulate("|1" + "0" * 100, "|1" + "0" * 104, "5")
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 7 and out.splitlines()[-1].endswith("certified=-")


# codes whose lowering refuses exact evaluation: a counting atom, a coefficient of 2
REFUSED_CODES = {
    "cnt.s2f": "(ef (cntle y (ix 0 1 0) (ix 0 1 1) (ix 0 0 1)))\n",
    "steep.s2f": "(ef (eq (ix 0 2 0) (ix 0 2 0)))\n",
}


def test_simulate_skips_certification_when_exact_evaluation_refuses(capsys, tmp_path):
    """The session still runs: its records are those of the same learner
    behind the identity transport, which is never certified."""
    for name, text in REFUSED_CODES.items():
        path = tmp_path / name
        path.write_text(text)
        runs = []
        for spec in (f"synth:{path}", f"transport:identity:synth:{path}"):
            code, out, err = run_cli(
                capsys, "simulate", "--relation", "e0", "--target", "1|0",
                "--informant", "|1", "|0", "--horizon", "4", "--learner", spec)
            assert code == 0 and err == "", (spec, err)
            runs.append(out)
        assert runs[0] == runs[1], name
        assert runs[0].splitlines()[-1].endswith("certified=-")
        # falsify and crosscheck need exact values, so they still refuse the code
        for argv in (("falsify", "--max-size", "1"), ("crosscheck", "--samples", "1")):
            code, out, err = run_cli(capsys, *argv, "--relation", "e0", "--code", str(path))
            assert code == 2 and out == "" and err.startswith("error:"), (name, argv)


def test_adversary_output(capsys):
    code, out, _ = run_cli(
        capsys, "adversary", "--relation", "sim1",
        "--learner", "constant:0", "--patience", "4", "--rounds", "2",
    )
    assert code == 0
    assert out == "verdict=LEARNER_STUCK stages= target=|0 witness=|0\n"


TRANSPORT_SIMULATE_LINES = [
    "stage=0 hypothesis=0 pointer=0 bitsReadCount=0",
    "stage=1 hypothesis=0 pointer=0 bitsReadCount=0",
    "stage=2 hypothesis=0 pointer=0 bitsReadCount=2",
    "stage=3 hypothesis=2 pointer=3 bitsReadCount=5",
    "stage=4 hypothesis=1 pointer=4 bitsReadCount=0",
    "stage=5 hypothesis=0 pointer=5 bitsReadCount=2",
    "stage=6 hypothesis=3 pointer=6 bitsReadCount=2",
    "stage=7 hypothesis=2 pointer=7 bitsReadCount=0",
    "stage=8 hypothesis=1 pointer=8 bitsReadCount=0",
    "stage=9 hypothesis=1 pointer=8 bitsReadCount=14",
    "stage=10 hypothesis=1 pointer=8 bitsReadCount=2",
    "stage=11 hypothesis=1 pointer=8 bitsReadCount=2",
    "stage=12 hypothesis=1 pointer=8 bitsReadCount=2",
    "summary mindChanges=6 lastChangeStage=8 exCorrectAtHorizon=true "
    "bcCorrectSuffixStart=8 certified=-",
]


def test_transport_transcripts(capsys, workdir):
    """A transported learner reads its input behind the reduction's fixed
    bits; bitsReadCount counts the input bits it reached."""
    code, out, _ = run_cli(
        capsys, "simulate", "--config", str(workdir / "run.cfg"),
        "--learner", "transport:prefix1:synth:e0.s2f", "--informant", "|1", "|0",
        "--horizon", "12",
    )
    assert code == 0
    assert out.splitlines() == TRANSPORT_SIMULATE_LINES
    code, out, _ = run_cli(
        capsys, "adversary", "--relation", "sim0",
        "--learner", "transport:prefix1:recent-ones:3", "--patience", "8", "--rounds", "3",
    )
    assert code == 0
    assert out == "verdict=FORCED(3) stages=1,5,6,9 target=100010001|0\n"


# learners that declare no pointer: recent-ones, and separators whose set
# codes are "finite support" (index 0, word |0) and "has a one" (index 1, |1)
RECENT_ONES_LINES = [
    "stage=0 hypothesis=1 pointer=- bitsReadCount=0",
    "stage=1 hypothesis=1 pointer=- bitsReadCount=1",
    "stage=2 hypothesis=1 pointer=- bitsReadCount=2",
    "stage=3 hypothesis=1 pointer=- bitsReadCount=3",
    "stage=4 hypothesis=0 pointer=- bitsReadCount=3",
    "stage=5 hypothesis=0 pointer=- bitsReadCount=2",
    "stage=6 hypothesis=0 pointer=- bitsReadCount=1",
    "stage=7 hypothesis=2 pointer=- bitsReadCount=7",
    "stage=8 hypothesis=2 pointer=- bitsReadCount=8",
    "summary mindChanges=2 lastChangeStage=7 exCorrectAtHorizon=false "
    "bcCorrectSuffixStart=- certified=-",
]
SEPARATORS_LINES = [
    "stage=0 hypothesis=0 pointer=- bitsReadCount=0",
    "stage=1 hypothesis=0 pointer=- bitsReadCount=1",
    "stage=2 hypothesis=2 pointer=- bitsReadCount=2",
    "stage=3 hypothesis=3 pointer=- bitsReadCount=2",
    "stage=4 hypothesis=4 pointer=- bitsReadCount=2",
] + [f"stage={s} hypothesis=1 pointer=- bitsReadCount=2" for s in range(5, 11)] + [
    "summary mindChanges=4 lastChangeStage=5 exCorrectAtHorizon=true "
    "bcCorrectSuffixStart=5 certified=-",
]


def test_pointer_free_transcripts(capsys, tmp_path):
    """A learner that declares no pointer prints pointer=- at every stage."""
    code, out, _ = run_cli(
        capsys, "simulate", "--relation", "sim1", "--target", "0001|0",
        "--informant", "|1", "|0", "--learner", "recent-ones:3", "--horizon", "8",
    )
    assert code == 0
    assert out.splitlines() == RECENT_ONES_LINES
    seps = tmp_path / "seps.s2f"
    seps.write_text("(ef (not (bit x (ix 1 1 0))))\n(ef (bit x (ix 1 0 0)))\n")
    code, out, _ = run_cli(
        capsys, "simulate", "--relation", "sim1", "--target", "01|1",
        "--informant", "|0", "|1", "--learner", f"separators:{seps}", "--horizon", "10",
    )
    assert code == 0
    assert out.splitlines() == SEPARATORS_LINES


def test_falsify_all_candidates(capsys):
    code, out, _ = run_cli(capsys, "falsify", "--relation", "sim0", "--max-size", "3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert all("counterexample x=" in line for line in lines)
    assert lines[2].startswith("code=identity counterexample")


def test_falsify_single_code(capsys, workdir):
    code, out, _ = run_cli(
        capsys, "falsify", "--relation", "sim1", "--max-size", "3",
        "--code", "e0.s2f", "--config", str(workdir / "run.cfg"),
    )
    assert code == 0
    assert out == "code=e0 counterexample x=|1 y=|01\n"


def test_falsify_honest_code_reports_none(capsys, workdir):
    code, out, _ = run_cli(
        capsys, "falsify", "--relation", "e0", "--max-size", "3",
        "--code", "e0.s2f", "--config", str(workdir / "run.cfg"),
    )
    assert code == 0
    assert out == "code=e0 counterexample=NONE\n"


def test_falsify_against_a_tree_file(capsys, tmp_path):
    (tmp_path / "t.tree").write_text("node 0\nnode 0.1\n")
    (tmp_path / "idcode.s2f").write_text(ID_CODE_TEXT)
    (tmp_path / "c.cfg").write_text("relation = tree:t.tree\n")
    code, out, _ = run_cli(
        capsys, "falsify", "--config", str(tmp_path / "c.cfg"),
        "--code", "idcode.s2f", "--max-size", "2",
    )
    assert code == 0
    assert out == "code=idcode counterexample=NONE\n"


def test_crosscheck_agreements(capsys, workdir):
    for args in (
        ("--relation", "e0", "--samples", "60", "--seed", "0"),
        ("--relation", "id", "--samples", "60", "--seed", "1"),
        ("--relation", "oscillation", "--samples", "60", "--seed", "2"),
    ):
        code, out, _ = run_cli(capsys, "crosscheck", *args)
        assert code == 0
        relation = args[1]
        assert out == (f"crosscheck relation={relation} samples=60 "
                       f"seed={args[5]} agreement=ok\n")


def test_crosscheck_determinism(capsys):
    a = run_cli(capsys, "crosscheck", "--relation", "e0", "--samples", "40", "--seed", "9")
    b = run_cli(capsys, "crosscheck", "--relation", "e0", "--samples", "40", "--seed", "9")
    assert a == b


# ---------------------------------------------------------------- exit codes

def test_wrong_code_disagrees_with_exit_4(capsys, workdir):
    code, out, err = run_cli(
        capsys, "crosscheck", "--relation", "e0", "--samples", "200", "--seed", "0",
        "--code", "idcode.s2f", "--config", str(workdir / "run.cfg"),
    )
    assert code == 4
    assert out == ""
    assert err.startswith("disagreement: sample 2:")
    assert "oracle=True evaluator=False" in err


def test_config_errors_exit_2(capsys, workdir, tmp_path):
    deep = workdir / "deep.s2f"
    deep.write_text("(ef " + "(not " * 1000 + "(bit x (ix 1 0 0))" + ")" * 1001 + "\n")
    wide = workdir / "wide.tree"
    wide.write_text("gen 100000000 : 1\n")
    cases = [
        ("crosscheck", "--relation", "sim0", "--samples", "5"),           # no code
        ("crosscheck", "--relation", "oscillation", "--samples", "5",
         "--code", "e0.s2f", "--config", str(workdir / "run.cfg")),       # code forbidden
        ("simulate", "--relation", "e0", "--informant", "|0",
         "--learner", "constant:0"),                                      # missing target
        ("simulate", "--relation", "e0", "--target", "012|",
         "--informant", "|0", "--learner", "constant:0"),                 # bad literal
        ("simulate", "--relation", "mystery", "--target", "|0",
         "--informant", "|0", "--learner", "constant:0"),                 # unknown relation
        ("simulate", "--relation", "e0", "--target", "|0", "--informant", "|0",
         "--learner", "synth:absent.s2f"),                                # missing file
        ("simulate", "--relation", "e0", "--target", "|0", "--informant", "|0",
         "--learner", "constant:0", "--horizon", "0"),                    # bad horizon
        ("adversary", "--relation", "e0", "--learner", "constant:0"),     # wrong relation
        ("falsify", "--relation", "e0", "--code", str(deep),
         "--max-size", "1"),                                              # nested too deep
        ("simulate", "--relation", "e0", "--target", "|0", "--informant", "|0",
         "--learner", "transport:identity:" * 2000 + "constant:0"),      # wrapped too deep
        ("falsify", "--relation", f"tree:{wide}", "--max-size", "1"),     # branch too long
        ("falsify", "--relation", "e0", "--code", "e0.s2f",
         "--config", str(workdir / "run.cfg"), "--max-size", "0"),        # no word pair
        ("crosscheck", "--relation", "e0", "--samples", "0"),             # no sample
        ("falsify", "--relation", "e0", "--code", "e0.s2f",
         "--config", str(workdir / "run.cfg"), "--max-size", "8"),        # pool too big
        ("adversary", "--relation", "sim0", "--learner", "constant:0",
         "--patience", "1000001", "--rounds", "1"),                       # patience past cap
        ("adversary", "--relation", "sim0", "--learner", "recent-ones",
         "--rounds", "1001"),                                             # rounds past cap
        ("crosscheck", "--relation", "e0", "--samples", "100001"),        # samples past cap
    ]
    for argv in cases:
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error:"), argv
    # a config file is checked whole, whichever subcommand reads it
    (tmp_path / "h.cfg").write_text("horizon = 0\n")
    code, _, err = run_cli(capsys, "catalog", "--config", str(tmp_path / "h.cfg"))
    assert code == 2
    assert err.startswith("error: horizon must be at least 1")
    # a bad learner argument is reported under its learner kind
    for spec in ("constant:-2", "recent-ones:abc"):
        code, _, err = run_cli(capsys, "simulate", "--relation", "e0", "--target", "|0",
                               "--informant", "|0", "--learner", spec, "--horizon", "2")
        assert code == 2, spec
        assert err.startswith(f"error: {spec.split(':')[0]} argument"), spec


def test_program_faults_are_not_config_errors(monkeypatch):
    """A ValueError raised inside a command is a fault, not exit 2."""
    def broken(cfg):
        raise ValueError("fault inside a command")

    monkeypatch.setitem(cli._COMMANDS, "catalog", broken)
    with pytest.raises(ValueError, match="fault inside a command"):
        main(["catalog"])


def test_unknown_config_key_exits_2(capsys, tmp_path):
    for line in ("wibble = 3\n", "depth = 4\n"):
        (tmp_path / "bad.cfg").write_text(line)
        code, _, err = run_cli(capsys, "catalog", "--config", str(tmp_path / "bad.cfg"))
        assert code == 2, line
        assert "unknown key" in err, line


def test_contract_violation_exits_3(capsys, workdir):
    code, _, err = run_cli(
        capsys, "simulate", "--relation", "e0", "--target", "|0",
        "--informant", "|0", "1|0", "--learner", "bc2ex:constant:5",
        "--horizon", "4",
    )
    assert code == 3
    assert err.startswith("contract violation:")
    # the synth pointer's capped pair (2, 0) at stage 3 names index 2, past
    # the two informant words, so bc2ex:synth: fails on this informant
    code, _, err = run_cli(
        capsys, "simulate", "--relation", "e0", "--target", "1|0",
        "--informant", "|1", "|0", "--learner", "bc2ex:synth:e0.s2f",
        "--horizon", "4", "--config", str(workdir / "run.cfg"),
    )
    assert code == 3
    assert err == "contract violation: hypothesis 2 outside the class structure over 2 indices\n"


def test_argparse_rejects_unknown_commands():
    with pytest.raises(SystemExit) as exc:
        main(["conjure"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit) as exc:
        main(["catalog", "--depth", "4"])
    assert exc.value.code == 2


# ------------------------------------------------------------ config parser

def test_parse_config_file_values():
    cfg = parse_config_file("relation = e0 # tail\n\n# note\nhorizon = 12\n")
    assert cfg == {"relation": "e0", "horizon": "12"}
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_file("relation e0\n")
    with pytest.raises(ConfigError, match="line 2: duplicate key 'horizon'"):
        parse_config_file("horizon = 3\nhorizon = 5\n")


def test_text_formats_share_one_comment_rule(tmp_path):
    """Config, tree, rows and formula files read CRLF line endings, blank and
    indented lines and a comment glued to a token as the bare text; errors
    still quote the raw line and count every line."""
    def rows(text):
        (tmp_path / "rows.txt").write_text(text, newline="")
        return learner_from_string("countable:rows.txt", base_dir=str(tmp_path)).rows

    cases = [
        (parse_config_file, "relation = e0\nhorizon = 3\n",
         "# head\r\n   \r\n  relation = e0\r\nhorizon = 3#c\r\n"),
        (parse_tree_file, "node 0.1\ngen 0 : 2\n",
         "  # head\r\n\r\n  node 0.1#c\r\n   gen 0 : 2 # c\r\n"),
        (rows, "|0 1|0\n|1\n", "# head\r\n \t \r\n|0 1|0#c\r\n  |1\r\n"),
        (parse_formula, E0_CODE_TEXT, "; head\r\n  \r\n  " + E0_CODE_TEXT.strip() + ";c\r\n"),
    ]
    for parse, plain, noisy in cases:
        assert parse(noisy) == parse(plain), noisy
    with pytest.raises(ConfigError, match=r"^config line 3: expected key = value, got ' horizon 3#c'$"):
        parse_config_file("# head\r\n\r\n horizon 3#c\r\n")
    with pytest.raises(ConfigError, match=r"^bad tree line: '  bogus 1 # c'$"):
        parse_tree_file("node 0\r\n  bogus 1 # c\r\n")


def test_merge_rejects_bad_numbers(capsys, tmp_path):
    (tmp_path / "n.cfg").write_text("samples = many\n")
    code, _, err = run_cli(capsys, "catalog", "--config", str(tmp_path / "n.cfg"))
    assert code == 2 and "samples" in err
    (tmp_path / "m.cfg").write_text("seed = -3\n")
    code, _, err = run_cli(capsys, "catalog", "--config", str(tmp_path / "m.cfg"))
    assert code == 2 and "nonnegative" in err


def test_numbers_are_plain_ascii_digits(capsys, workdir):
    # int() alone would read each of these as a number
    for text in ("1_0", "+7", " 7", "\u0663"):
        with pytest.raises(ConfigError, match="horizon must be a natural number"):
            natural(text, "horizon")
    with pytest.raises(ConfigError, match="natural number"):
        natural(True, "horizon")
    assert natural("07", "horizon") == natural(7, "horizon") == 7
    # int() reads "-0" as 0, so a leading minus is refused before it
    for text in ("-0", "-00", "-5", -5):
        with pytest.raises(ConfigError, match="horizon must be nonnegative"):
            natural(text, "horizon")
    code, out, err = run_cli(capsys, "crosscheck", "--relation", "e0", "--samples", "3",
                             "--seed=-0")
    assert code == 2 and out == "" and "seed must be nonnegative" in err
    with pytest.raises(ConfigError, match="tree path component"):
        parse_tree_file("node 1_0")
    with pytest.raises(ConfigError, match="index term component"):
        parse_formula("(ef (bit x (ix +1 0 0)))")
    # past the cap a session would build its tables for the whole horizon first
    for horizon, want, message in (("10", 0, ""), ("1000001", 2, "at most 1000000"),
                                   ("1_0", 2, "a natural number")):
        code, out, err = run_cli(capsys, "simulate", "--config", str(workdir / "run.cfg"),
                                 "--horizon", horizon)
        assert code == want, horizon
        assert not want or out == "" and err.startswith(f"error: horizon must be {message}")


def test_experiment_config_defaults(capsys):
    # the defaults samples=100 and seed=0 flow into the record unprompted
    code, out, _ = run_cli(capsys, "crosscheck", "--relation", "e0")
    assert code == 0
    assert out == "crosscheck relation=e0 samples=100 seed=0 agreement=ok\n"


# ------------------------------------------------------------ console script

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def write_console_script(bin_dir, name):
    """Write the launcher that pip installs for the [project.scripts] entry
    `name`: a shebang to this interpreter, then import and call the entry
    point."""
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"][name]
    module, func = (part.strip() for part in entry.split(":"))
    bin_dir.mkdir()
    script = bin_dir / name
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {func}\n"
        f"sys.exit({func}())\n"
    )
    script.chmod(0o755)


def test_installed_console_script(tmp_path):
    bin_dir = tmp_path / "bin"
    write_console_script(bin_dir, "limitlearn")
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join([str(bin_dir), env.get("PATH", "")])
    # The directory holding the package under test, so the script runs this
    # code and not whatever copy may be installed.
    env["PYTHONPATH"] = str(Path(limitlearn.__file__).resolve().parents[1])
    proc = subprocess.run(
        ["limitlearn", "catalog"], capture_output=True, text=True, timeout=60,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == CATALOG_LINES
    assert proc.stderr == ""


def test_module_invocation_matches(capsys):
    proc = subprocess.run(
        [sys.executable, "-m", "limitlearn.cli", "catalog"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == CATALOG_LINES


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_transcripts():
    """Each `$ ` command in README.md's code blocks, with the lines shown after it.

    A trailing backslash continues a command; its output ends at a blank
    line, the next command or the end of the block.
    """
    transcripts, in_block, current = [], False, None
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_block, current = not in_block, None
        elif not in_block or not line.strip():
            current = None
        elif line.startswith("$ "):
            current = [line[2:], []]
            transcripts.append(current)
        elif current is not None and current[0].endswith("\\"):
            current[0] = current[0][:-1] + line.strip()
        elif current is not None:
            current[1].append(line)
    return transcripts


def test_readme_transcripts(capsys, tmp_path, monkeypatch):
    """Every `$ limitlearn ...` transcript in the README prints what it shows.

    The files the README makes are written in a temporary directory as it
    writes them: `cat FILE` shows a file's text, `printf 'TEXT' > FILE`
    writes one.  A last output line `...` stands for the remaining lines.
    """
    monkeypatch.chdir(tmp_path)
    ran = 0
    for command, expected in readme_transcripts():
        argv = shlex.split(command)
        if argv[0] == "cat":
            (tmp_path / argv[1]).write_text("\n".join(expected) + "\n")
            continue
        if argv[0] == "printf":
            assert argv[2] == ">" and len(argv) == 4 and not expected, command
            (tmp_path / argv[3]).write_text(argv[1].replace("\\n", "\n"))
            continue
        assert argv[0] == "limitlearn", command
        assert main(argv[1:]) == 0, command
        out = capsys.readouterr().out.splitlines()
        if expected[-1] == "...":
            expected = expected[:-1]
            out = out[:len(expected)]
        assert out == expected, command
        ran += 1
    assert ran == 8


UNREAD_FLAGS = [(command, "--" + attr.replace("_", "-"))
                for command in cli._COMMANDS
                for attr, *_, readers in _OPTIONS if command not in readers]


def test_readme_keys_and_help_flags_match_the_option_table(capsys):
    """The README's config keys are the table's, and each subcommand's --help
    lists --config and the flag of every row that names it as a reader, each
    once, and no other table flag."""
    keys = README.read_text().split("Keys are", 1)[1].split(".", 1)[0]
    assert re.findall(r"`(\w+)`", keys) == [key for _, key, *_ in _OPTIONS]
    for command in ("catalog", "simulate", "adversary", "falsify", "crosscheck"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        heads = [line.split()[0] for line in capsys.readouterr().out.splitlines()
                 if line.strip()]
        assert heads.count("--config") == 1, command
        for attr, *_, readers in _OPTIONS:
            want = 1 if command in readers else 0
            assert heads.count("--" + attr.replace("_", "-")) == want, (command, attr)
    # 16 of the 55 (subcommand, flag) pairs are read, and catalog reads none
    assert len(UNREAD_FLAGS) == 39
    assert not any("catalog" in readers for *_, readers in _OPTIONS)


@pytest.mark.parametrize("command, flag", UNREAD_FLAGS)
def test_unread_flags_are_usage_errors(capsys, command, flag):
    """A flag its subcommand does not read exits 2 through argparse, as an
    unknown flag does, instead of being accepted and ignored, and the usage
    line shown is that subcommand's."""
    with pytest.raises(SystemExit) as exc:
        main([command, flag, "1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(f"usage: limitlearn {command} ")

"""Exception types shared across the package, and the readers of outside
input that raise ConfigError."""

from pathlib import Path


class LimitlearnError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(LimitlearnError):
    """Malformed configuration, formula text, tree file, or CLI argument."""


class ContractViolation(LimitlearnError):
    """A component broke a stated interface contract (e.g. hypothesis range)."""


class UseViolation(ContractViolation):
    """A learner read an informant bit beyond its declared use bound."""

    def __init__(self, stage, position, bound):
        self.stage = stage
        self.position = position
        self.bound = bound
        super().__init__(
            f"stage {stage}: read position {position} beyond use bound {bound}"
        )


class UnsupportedAtomError(LimitlearnError):
    """Exact evaluation hit an atom it has no finite decision procedure for."""


def natural(text, what: str, lo: int = 0, hi: int | None = None) -> int:
    """`text`, an int or a string of ASCII digits, as a natural number in
    lo..hi (hi None: unbounded), or a ConfigError naming `what`."""
    digits = isinstance(text, str) and text.isascii() and text.removeprefix("-").isdigit()
    if type(text) is not int and not digits:
        raise ConfigError(f"{what} must be a natural number, got {text!r}")
    if str(text).startswith("-"):  # "-0" too, which int() reads as 0
        raise ConfigError(f"{what} must be nonnegative, got {text}")
    n = int(text)
    if n < lo:
        raise ConfigError(f"{what} must be at least {lo}, got {n}")
    if hi is not None and n > hi:
        raise ConfigError(f"{what} must be at most {hi}, got {n}")
    return n


def read_text(path: Path, what: str) -> str:
    """The text of the file at `path`, or a ConfigError naming `what`."""
    try:
        return path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def content_lines(text: str, comment: str):
    """(line number from 1, raw line, content) for each line of `text` whose
    text before the first `comment` character, stripped, is not empty."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        content = raw.partition(comment)[0].strip()
        if content:
            yield lineno, raw, content

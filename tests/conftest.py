"""Hypothesis profiles for the suite.

`mutants` is the profile `tools/mutants.py` runs every row under: its draws
are derandomized and it has no deadline, so a row's verdict depends only on
the code, not on how loaded the host is, and it has no shrink phase, since a
row needs a failing input, not the smallest one.
No profile is loaded by default, so a plain run's draws stay random.
"""

from hypothesis import Phase, settings

settings.register_profile(
    "mutants", derandomize=True, deadline=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate))

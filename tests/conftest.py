"""Hypothesis profiles. ``--hypothesis-profile=ci`` replays the same examples
on every run, so a property test that fails in CI fails the same way
locally; runs without the flag keep the default, randomized profile."""
from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)

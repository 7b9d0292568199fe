"""Hypothesis profiles and shared fixtures. ``--hypothesis-profile=ci``
replays the same examples on every run, so a property test that fails in CI
fails the same way locally; runs without the flag keep the default,
randomized profile."""
import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)


@pytest.fixture
def factor_calls(monkeypatch):
    """The design shape (p, N) of every ``NodeFactor.of`` call made while
    the test runs, in call order: the node factorizations it does."""
    from mfbsde.condexp import NodeFactor

    calls = []
    real_of = NodeFactor.of
    monkeypatch.setattr(NodeFactor, "of", lambda at, *args: calls.append(at.shape) or real_of(at, *args))
    return calls

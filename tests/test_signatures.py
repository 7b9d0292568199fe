"""No public callable takes both a time grid and an ensemble: the ensemble
carries its grid, so a second one could only disagree with it."""
import inspect

import pytest

import mfbsde

# run_scheme keeps its positional grid for existing callers and refuses any
# grid other than its ensemble's
ALLOWED = {"run_scheme"}


def grid_and_ensemble(obj) -> bool:
    """Whether the callable's signature names both ``grid`` and ``paths``."""
    try:
        params = inspect.signature(obj).parameters
    except (TypeError, ValueError):
        return False
    return {"grid", "paths"} <= set(params)


def test_detector_flags_only_both_names():
    assert grid_and_ensemble(lambda grid, paths, engine: None)
    assert not grid_and_ensemble(lambda paths, engine: None)
    assert not grid_and_ensemble(lambda grid, increments, seed: None)


@pytest.mark.parametrize("name", sorted(set(mfbsde.__all__) - ALLOWED))
def test_public_callable_takes_no_grid_next_to_its_ensemble(name):
    obj = getattr(mfbsde, name)
    assert not (callable(obj) and grid_and_ensemble(obj)), f"{name} takes both grid and paths"

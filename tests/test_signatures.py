"""No public callable takes a fact twice: a value that another of its
arguments already fixes could only disagree with it."""
import inspect

import pytest

import mfbsde

# (parameter, parameters that it fixes): the ensemble carries its grid, an
# iterate its window, a certificate its window constants and a solution its
# component count
PAIRS = [
    ("grid", {"paths"}),
    ("input_sol", {"k_lo", "k_hi"}),
    ("cert", {"consts"}),
    ("sol", {"n"}),
]

# run_scheme keeps its positional grid and refuses any grid other than its
# ensemble's; check_envelope keeps its n; the benchmark harness calls both so
ALLOWED = {("run_scheme", "grid"), ("check_envelope", "sol")}
CASES = [(name, carrier, fixed) for carrier, fixed in PAIRS for name in sorted(mfbsde.__all__) if (name, carrier) not in ALLOWED]


def takes_twice(obj, carrier: str, fixed: set) -> bool:
    """Whether the callable's signature names ``carrier`` and any of ``fixed``."""
    try:
        params = inspect.signature(obj).parameters
    except (TypeError, ValueError):
        return False
    return carrier in params and not fixed.isdisjoint(params)


def test_detector_flags_only_a_listed_pair():
    assert takes_twice(lambda grid, paths, engine: None, "grid", {"paths"})
    assert not takes_twice(lambda paths, engine: None, "grid", {"paths"})
    assert not takes_twice(lambda grid, increments, seed: None, "grid", {"paths"})
    assert takes_twice(lambda input_sol, paths, k_hi=None: None, "input_sol", {"k_lo", "k_hi"})
    assert not takes_twice(lambda spec, paths, k_lo=0: None, "input_sol", {"k_lo", "k_hi"})


@pytest.mark.parametrize("name, carrier, fixed", CASES, ids=[f"{carrier}-{name}" for name, carrier, _ in CASES])
def test_public_callable_takes_no_fact_twice(name, carrier, fixed):
    obj = getattr(mfbsde, name)
    assert not (callable(obj) and takes_twice(obj, carrier, fixed)), f"{name} takes {carrier} and one of {sorted(fixed)}"

import time
from importlib import resources

import pytest

from blamelogic import Game, GameValidationError, load
from blamelogic.generate import SWEEP_SHAPE, GenParams

SESSION_T0 = time.monotonic()

# The acceptance sweep's parameters: what `fuzz --seed 20260822` sweeps.
ACCEPTANCE = GenParams(20260822, **SWEEP_SHAPE)

# The one-agent rescue scenario used throughout the docs, in a deliberately
# non-canonical layout so save() has something to normalize.
LOPEZ_DOC = (
    b'{"agents": ["lopez"], "actions": ["hide","expose"], "outcomes": ["alive","dead"],'
    b' "plays": [{"profile": {"lopez":"hide"}, "outcome":"alive"},'
    b' {"profile": {"lopez":"expose"}, "outcome":"alive"},'
    b' {"profile": {"lopez":"expose"}, "outcome":"dead"}],'
    b' "valuation": {"dead": [2]}}'
)


def replace(record, **changes):
    """A copy of a package record with the given fields changed."""
    fields = {name: getattr(record, name) for name in record.__slots__}
    return type(record)(**{**fields, **changes})


def violations(*fields):
    """The violations that building a Game from these fields reports."""
    with pytest.raises(GameValidationError) as caught:
        Game(*fields)
    assert str(caught.value) == "; ".join(caught.value.violations)
    return caught.value.violations


def canonical_lopez_bytes():
    return resources.files("blamelogic").joinpath("data/lopez.json").read_bytes()


@pytest.fixture(scope="session")
def lopez():
    return load(LOPEZ_DOC)


@pytest.fixture
def lopez_file(tmp_path):
    path = tmp_path / "lopez.json"
    path.write_bytes(canonical_lopez_bytes())
    return path

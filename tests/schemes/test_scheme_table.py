"""The scheme name table: every name builds a scheme that runs, the same
way each time, and an unknown name is refused with the table's names."""

import pytest
from oracle import state_bytes

from repro.data import make_dataset
from repro.network.topology import complete
from repro.protocols.classification import build_classification_network
from repro.schemes import SCHEMES, make_scheme

BINNING = {"histogram": {"low": -12.0, "high": 12.0, "bins": 32}}


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_same_seed_same_bytes(name):
    values = make_dataset("paper", 8, 4)
    runs = []
    for _ in range(2):
        kernel, nodes = build_classification_network(
            values, make_scheme(name, **BINNING.get(name, {})), 2, complete(8), seed=4
        )
        kernel.run(3)
        runs.append([state_bytes(node) for node in nodes])
    assert runs[0] == runs[1]
    assert any(len(state) > 1 for state in runs[0])


def test_unknown_name_lists_the_table():
    with pytest.raises(ValueError, match="unknown scheme 'kmeans'") as error:
        make_scheme("kmeans")
    assert all(repr(name) in str(error.value) for name in SCHEMES)


def test_histogram_binning_is_required():
    with pytest.raises(TypeError):
        make_scheme("histogram", low=0.0, high=1.0)

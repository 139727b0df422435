"""Built-in cell runners: the early-exit knob, runner resolution and the
cells' inputs."""

import pytest

from repro.experiments.ablations import ablation_cell
from repro.experiments.common import FAST
from repro.sweep.cells import classification_cell, push_sum_cell, resolve_runner


class TestResolveRunner:
    def test_short_name(self):
        assert resolve_runner("classification") is classification_cell

    def test_bad_reference_rejected(self):
        with pytest.raises(ValueError, match="runner reference"):
            resolve_runner("not-a-path")


class TestEarlyExit:
    BASE = {
        "seed": 4,
        "n": 12,
        "k": 2,
        "rounds": 10,
        "dataset": "outlier",
    }

    def test_default_omits_quiescence_fields(self):
        result = classification_cell(dict(self.BASE))
        assert "quiescent" not in result
        assert "rounds_saved" not in result

    @pytest.mark.parametrize("engine", ["rounds", "async"])
    def test_early_exit_reports_rounds_saved(self, engine):
        params = dict(self.BASE, early_exit=True, engine=engine)
        result = classification_cell(params)
        assert isinstance(result["quiescent"], bool)
        assert result["rounds_saved"] == 10 - result["rounds_run"]
        assert result["rounds_saved"] >= 0

    def test_early_exit_result_matches_full_run_when_not_quiescent(self):
        # Continuous-valued datasets never freeze bytes, so the probe
        # cannot fire and the early-exit cell must reproduce the plain
        # cell's measurements exactly.
        full = classification_cell(dict(self.BASE))
        early = classification_cell(dict(self.BASE, early_exit=True))
        assert not early["quiescent"]
        assert early["rounds_saved"] == 0
        for key, value in full.items():
            assert early[key] == value


@pytest.mark.parametrize(
    "cell, params",
    [
        (classification_cell, {"rounds": 2}),
        (push_sum_cell, {"rounds": 2}),
        (ablation_cell, {"mode": "topology", "scale": FAST.as_dict()}),
    ],
    ids=["classification", "push_sum", "ablation"],
)
def test_grid_cell_keeps_whole_rows(cell, params):
    """A grid never has more nodes than the cell asks for: at n = 10 it
    is the 3 x 3 lattice, and the cell draws one reading per node."""
    result = cell(dict(params, n=10, seed=3, topology="grid"))
    assert result["n"] == 9

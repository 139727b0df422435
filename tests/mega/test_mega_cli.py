"""The arena CLI, ``python -m repro.mega``, on the paper's own inputs."""

from __future__ import annotations

import json

from repro.mega.cli import main


def test_cli_runs_the_papers_inputs(capsys):
    assert main(["--nodes", "60", "--data", "paper", "--rounds", "2", "--json", "-"]) == 0
    out = capsys.readouterr().out
    summary = json.loads(out[out.index("\n{") + 1 :])
    assert summary["data"] == "paper"
    assert summary["rounds_executed"] == 2
    assert summary["stats"]["receivers"] > 0

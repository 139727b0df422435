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


def test_cli_reports_each_arenas_interner(capsys):
    for shards in (0, 2):
        argv = ["--nodes", "60", "--data", "paper", "--rounds", "12", "--shards", str(shards)]
        assert main(argv + ["--json", "-"]) == 0
        out = capsys.readouterr().out
        summary = json.loads(out[out.index("\n{") + 1 :])
        interners = summary["interners"]
        assert [entry["nodes"] for entry in interners] == ([30, 30] if shards else [60])
        for entry in interners:
            assert entry["live_ids"] <= entry["interned"] <= 2 * entry["nodes"] * summary["k"]
            assert entry["compactions"] >= 1
        assert "interner ids / live / compactions" in out

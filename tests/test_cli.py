"""Tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, main


class TestArgs:
    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_registry_covers_paper(self):
        for name in ("tables", "fig1", "fig2", "fig4", "fig5", "fig7",
                     "fig8", "fig9", "fig10", "fig11", "headline"):
            assert name in EXPERIMENTS

    def test_extensions_registered(self):
        for name in ("ablations", "motivation", "boost"):
            assert name in EXPERIMENTS


class TestRuns:
    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "Table III" in out

    def test_fig4_scaled_subset(self, capsys, tmp_path):
        assert main(["fig4", "--scale", "0.15",
                     "--kernels", "lavaMD,cfd-2",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "lavaMD" in out and "cfd-2" in out
        assert "cutcp" not in out

    def test_headline_scaled_subset(self, capsys, tmp_path):
        assert main(["headline", "--scale", "0.15",
                     "--kernels", "lavaMD",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "equalizer_performance" in out

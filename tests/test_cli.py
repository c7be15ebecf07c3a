"""covcast command-line interface."""

import importlib.metadata
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from covcast.cli import main
from covcast.config import parse_config_text
from covcast.harness import read_csv

CONFIG = """
n_antennas = 3
n_scatterers = 8
n_realizations = 24
dict_sizes = 3
n_queries = 2
schemes = nearest_neighbor:euclidean
baselines = no_conversion
master_seed = 11
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(CONFIG)
    return path


class TestRun:
    def test_writes_csv(self, config_path, tmp_path, capsys):
        out = tmp_path / "results.csv"
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        records = read_csv(out)
        assert len(records) == 2 * 2  # Q x (schemes + baselines)
        assert "wrote 4 records" in capsys.readouterr().out

    def test_runtime_zeroed_by_default(self, config_path, tmp_path):
        out = tmp_path / "results.csv"
        main(["run", "--config", str(config_path), "--out", str(out)])
        assert all(r.runtime_ns == 0 for r in read_csv(out))

    def test_timings_flag_keeps_wall_times(self, config_path, tmp_path):
        out = tmp_path / "results.csv"
        main(["run", "--config", str(config_path), "--out", str(out), "--timings"])
        assert any(r.runtime_ns > 0 for r in read_csv(out))

    def test_seed_override_changes_results(self, config_path, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["run", "--config", str(config_path), "--out", str(out1)])
        main(["run", "--config", str(config_path), "--out", str(out2), "--seed", "999"])
        assert out1.read_bytes() != out2.read_bytes()

    def test_bad_config_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("frobnicate = 1\n")
        out = tmp_path / "x.csv"
        assert main(["run", "--config", str(bad), "--out", str(out)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_config_exits_nonzero(self, tmp_path):
        assert (
            main(
                [
                    "run",
                    "--config",
                    str(tmp_path / "nope.cfg"),
                    "--out",
                    str(tmp_path / "x.csv"),
                ]
            )
            == 2
        )

    def test_unwritable_output_exits_nonzero(self, config_path, tmp_path, capsys):
        out = tmp_path / "missing-dir" / "x.csv"
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 2
        assert "error" in capsys.readouterr().err

    def test_zero_workers_is_a_usage_error(self, config_path, tmp_path, capsys):
        out = tmp_path / "results.csv"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(config_path), "--out", str(out),
                  "--workers", "0"])
        assert exc.value.code == 2
        assert "--workers: expected an integer >= 1" in capsys.readouterr().err
        assert not out.exists()


class TestValidate:
    def test_echoes_effective_config(self, config_path, capsys):
        assert main(["validate", "--config", str(config_path)]) == 0
        echoed = capsys.readouterr().out
        cfg = parse_config_text(echoed)
        assert cfg.n_antennas == 3
        assert cfg.master_seed == 11
        assert "ula_spacing" in echoed  # resolved default is echoed

    def test_seed_override_echoed(self, config_path, capsys):
        main(["validate", "--config", str(config_path), "--seed", "123"])
        assert "master_seed = 123" in capsys.readouterr().out


class TestBench:
    def test_prints_timing_table(self, config_path, capsys):
        assert main(["bench", "--config", str(config_path), "--calls", "3"]) == 0
        out = capsys.readouterr().out
        assert "median" in out
        assert "nearest_neighbor/euclidean" in out
        assert "no_conversion" in out

    def test_zero_calls_is_a_usage_error(self, config_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--config", str(config_path), "--calls", "0"])
        assert exc.value.code == 2
        assert "--calls: expected an integer >= 1" in capsys.readouterr().err


class TestEntryPoint:
    def test_module_invocation(self, config_path, tmp_path):
        out = tmp_path / "results.csv"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "covcast.cli",
                "run",
                "--config",
                str(config_path),
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert out.exists()

    def test_console_script(self, config_path):
        # The declared entry point, checked without an install: resolve it
        # from pyproject.toml and run its target the way an installer's
        # wrapper script does.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        entry = importlib.metadata.EntryPoint(
            name="covcast", value=scripts["covcast"], group="console_scripts"
        )
        assert entry.load() is main
        wrapper = (
            f"import sys; from {entry.module} import {entry.attr}; "
            f"sys.argv[0] = 'covcast'; sys.exit({entry.attr}())"
        )
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, "validate", "--config", str(config_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "n_antennas = 3" in proc.stdout

    @pytest.mark.skipif(
        shutil.which("covcast") is None, reason="covcast script not installed"
    )
    def test_installed_console_script(self, config_path):
        proc = subprocess.run(
            ["covcast", "validate", "--config", str(config_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "n_antennas = 3" in proc.stdout

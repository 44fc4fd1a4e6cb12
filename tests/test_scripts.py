"""The example scripts run end to end, each in its own process, and write
their outputs."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def _data_rows(path):
    return len(path.read_text().splitlines()) - 1


def test_fit_opioid_snapshot(tmp_path):
    _run_script("fit_opioid_snapshot.py", "--iters", "40", "--burnin", "10",
                "--thin", "1", "--out", str(tmp_path))
    for tag in ("mean_1_over_3K", "mean_1_over_2K", "mean_1_over_K"):
        out = tmp_path / tag
        assert _data_rows(out / "samples.csv") == 30
        assert _data_rows(out / "predictive.csv") == 30 * 2 * 6
        assert (out / "summary.json").is_file() and (out / "plot_data.csv").is_file()


def test_gamma_shape_sim(tmp_path):
    _run_script("gamma_shape_sim.py", "--n", "20", "--out", str(tmp_path))
    assert _data_rows(tmp_path / "shape_draws.csv") == 500
    assert _data_rows(tmp_path / "shape_posterior_density.csv") > 100

"""The benchmark's traced run rebinds names of the package in place (see
`bench/spans.py`). These tests keep every name it rebinds present and
looked up at call time, so `bench/run.py --trace 1` keeps measuring every
layer."""

import importlib
import pathlib
import types

import pytest

from polyaig.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "data" / "opioid_deaths.csv"


def _load_spans():
    # compiled from the source text, so nothing is written under bench/
    path = ROOT / "bench" / "spans.py"
    module = types.ModuleType("bench_spans")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
         module.__dict__)
    return module


spans = _load_spans()


@pytest.mark.parametrize("module_name, attr",
                         [entry[:2] for entry in spans.WRAPPED]
                         + list(spans.GENERATOR_FACTORIES))
def test_rebound_name_exists(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


def test_traced_fits_reach_every_sampler_layer(tmp_path):
    reals = tmp_path / "y.csv"
    reals.write_text("value\n" + "".join(f"{0.5 + 0.1 * i}\n" for i in range(20)))
    tracer = spans.Tracer()
    tracer.install()
    try:
        fit = ("--iters", "20", "--burnin", "5", "--thin", "1", "--trunc", "16")
        assert main(["fit-dirichlet", "--data", str(FIXTURE), "--id-cols", "2",
                     *fit, "--out", str(tmp_path / "a")]) == 0
        assert main(["fit-dirichlet", "--data", str(FIXTURE), "--id-cols", "2",
                     "--homogeneous", *fit, "--out", str(tmp_path / "b")]) == 0
        assert main(["fit-gamma-shape", "--data", str(reals), "--beta", "2",
                     *fit, "--out", str(tmp_path / "c")]) == 0
        assert main(["predict", "--samples", str(tmp_path / "a" / "samples.csv"),
                     "--out", str(tmp_path / "d")]) == 0
    finally:
        tracer.uninstall()
    names = {s[3] for s in tracer.spans}
    # gig_rvs draws only terms above the split, which these small fits
    # need not reach
    assert {entry[2] for entry in spans.WRAPPED} - names <= {"rng.gig_rvs"}
    assert tracer.variates > 0


def _children(tracer, parent, child):
    """For each span named `parent`, the number of its direct `child` spans."""
    names = {s[0]: s[3] for s in tracer.spans}
    per_parent = {sid: 0 for sid, name in names.items() if name == parent}
    for s in tracer.spans:
        if s[3] == child and names.get(s[1]) == parent:
            per_parent[s[1]] += 1
    return list(per_parent.values())


def test_one_batched_draw_per_update(tmp_path):
    """`update_p` draws the whole p matrix and `update_alpha` every category
    in one call each, and `predict` draws every simplex in one call. The
    alpha kernel makes one truncated-normal call per rejection pass, none
    when no alpha takes its normal hat, and may take a second pass, so its
    calls are counted as at most 1.5 per update on average."""
    sweeps = 12
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert main(["fit-dirichlet", "--data", str(FIXTURE), "--id-cols", "2",
                     "--iters", str(sweeps), "--burnin", "2", "--thin", "1",
                     "--trunc", "16", "--out", str(tmp_path / "a")]) == 0
        assert main(["predict", "--samples", str(tmp_path / "a" / "samples.csv"),
                     "--draws-per-sample", "3", "--out", str(tmp_path / "p")]) == 0
    finally:
        tracer.uninstall()

    assert _children(tracer, "dirichlet.update_p",
                     "rng.dirichlet_log_sample") == [1] * sweeps
    alpha_draws = _children(tracer, "dirichlet.update_alpha",
                            "rng.truncated_normal_sample")
    assert len(alpha_draws) == sweeps
    assert sum(alpha_draws) <= 1.5 * sweeps
    assert _children(tracer, "dirichlet.posterior_predictive",
                     "rng.dirichlet_log_sample") == [1]
    assert sum(s[3] == "rng.dirichlet_log_sample" for s in tracer.spans) == sweeps + 1


def test_one_pig_call_per_shared_tilt_update(tmp_path):
    """The gamma-shape, shared-alpha and per-category chains draw the totals
    of their same-tilt auxiliaries in one `pig_sample_with_tilts` call per
    sweep, plus one for the start state."""
    sweeps = 15
    reals = tmp_path / "y.csv"
    reals.write_text("value\n" + "".join(f"{0.5 + 0.1 * i}\n" for i in range(20)))
    fit = ("--iters", str(sweeps), "--burnin", "5", "--thin", "1", "--trunc", "16")
    for args in (["fit-gamma-shape", "--data", str(reals), "--beta", "2"],
                 ["fit-dirichlet", "--data", str(FIXTURE), "--id-cols", "2",
                  "--homogeneous"],
                 ["fit-dirichlet", "--data", str(FIXTURE), "--id-cols", "2"]):
        tracer = spans.Tracer()
        tracer.install()
        try:
            assert main([*args, *fit, "--out", str(tmp_path / args[0])]) == 0
        finally:
            tracer.uninstall()
        calls = sum(s[3] == "pig.pig_sample_with_tilts" for s in tracer.spans)
        assert calls == sweeps + 1, args


def test_gamma_shape_updates_call_their_rebound_samplers(tmp_path):
    """`update_alpha_shape` and `update_w_shape` draw through the names that
    `bench/spans.py` rebinds in `polyaig.gammashape`: one truncated-normal
    draw per alpha update and one P-IG call per w update (the start state's
    included), so a name kept only as an unused import fails here."""
    sweeps = 15
    reals = tmp_path / "y.csv"
    reals.write_text("value\n" + "".join(f"{0.5 + 0.1 * i}\n" for i in range(20)))
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert main(["fit-gamma-shape", "--data", str(reals), "--beta", "2",
                     "--iters", str(sweeps), "--burnin", "5", "--thin", "1",
                     "--trunc", "16", "--out", str(tmp_path / "g")]) == 0
    finally:
        tracer.uninstall()
    assert _children(tracer, "gammashape.update_alpha_shape",
                     "rng.truncated_normal_sample") == [1] * sweeps
    assert _children(tracer, "gammashape.update_w_shape",
                     "pig.pig_sample_with_tilts") == [1] * (sweeps + 1)


def test_shared_alpha_fit_runs_the_gibbs_sweep(tmp_path):
    """The `--homogeneous` fit runs `gibbs_sweep` once a sweep, and its
    `update_p` draws the whole p matrix in one call."""
    sweeps = 12
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert main(["fit-dirichlet", "--data", str(FIXTURE), "--id-cols", "2",
                     "--homogeneous", "--iters", str(sweeps), "--burnin", "2",
                     "--thin", "1", "--trunc", "16", "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    assert _children(tracer, "dirichlet.run_chain_homogeneous",
                     "dirichlet.gibbs_sweep") == [sweeps]
    assert _children(tracer, "dirichlet.update_p",
                     "rng.dirichlet_log_sample") == [1] * sweeps

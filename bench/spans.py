"""Tracing for the benchmark's per-layer run.

The program is not changed. `Tracer.install` rebinds public functions of
each `polyaig` module in the namespace where their callers look them up,
so every call through that name opens a span. Spans are kept in memory
and written out by `write_csv` when the run ends.

Random generators handed out by `make_rng` and `child_rng` are wrapped in
`CountingGenerator`, which forwards every call unchanged and counts the
variates returned, so the random streams and outputs stay byte-identical.
"""

from __future__ import annotations

import importlib
import time

import numpy as np


def _pig_terms(args, kwargs, result):
    # pig_sample_with_tilts(params, tilts, config, rng): tilts x trunc_terms
    return int(np.size(args[1])) * int(args[2].trunc_terms)


def _result_size(args, kwargs, result):
    return int(np.size(result))


def _chain_sweeps(args, kwargs, result):
    # run_chain*(counts, prior, config, rng=None)
    return int(args[2].iterations)


def _predictive_draws(args, kwargs, result):
    return int(np.shape(result)[0])


# (module, attribute, span name, work count of one call or None).
# The attribute is rebound in the module whose code calls it.
WRAPPED = (
    ("polyaig.cli", "cmd_fit_dirichlet", "cli.fit-dirichlet", None),
    ("polyaig.cli", "cmd_fit_gamma_shape", "cli.fit-gamma-shape", None),
    ("polyaig.cli", "cmd_predict", "cli.predict", None),
    ("polyaig.cli", "parse_counts_csv", "io.parse", None),
    ("polyaig.cli", "parse_reals_csv", "io.parse", None),
    ("polyaig.cli", "read_samples_csv", "io.parse", None),
    ("polyaig.cli", "write_samples_csv", "io.write", None),
    ("polyaig.cli", "write_summary_json", "io.write", None),
    ("polyaig.cli", "write_long_csv", "io.write", None),
    ("polyaig.cli", "summarize_samples", "summarize.summarize_samples", None),
    ("polyaig.cli", "run_chain", "dirichlet.run_chain", _chain_sweeps),
    ("polyaig.cli", "run_chain_homogeneous", "dirichlet.run_chain_homogeneous",
     _chain_sweeps),
    ("polyaig.cli", "posterior_predictive", "dirichlet.posterior_predictive",
     _predictive_draws),
    ("polyaig.cli", "run_shape_chain", "gammashape.run_shape_chain",
     _chain_sweeps),
    ("polyaig.cli", "shape_posterior_grid", "gammashape.oracle", None),
    ("polyaig.cli", "shape_posterior_quadrature", "gammashape.oracle", None),
    ("polyaig.dirichlet", "gibbs_sweep", "dirichlet.gibbs_sweep", None),
    ("polyaig.dirichlet", "update_eta", "dirichlet.update_eta", None),
    ("polyaig.dirichlet", "update_w", "dirichlet.update_w", None),
    ("polyaig.dirichlet", "update_p", "dirichlet.update_p", None),
    ("polyaig.dirichlet", "update_alpha", "dirichlet.update_alpha", None),
    ("polyaig.dirichlet", "pig_sample_with_tilts", "pig.pig_sample_with_tilts",
     _pig_terms),
    ("polyaig.dirichlet", "dirichlet_log_sample", "rng.dirichlet_log_sample",
     None),
    ("polyaig.dirichlet", "truncated_normal_sample",
     "rng.truncated_normal_sample", None),
    ("polyaig.gammashape", "update_w_shape", "gammashape.update_w_shape", None),
    ("polyaig.gammashape", "update_alpha_shape", "gammashape.update_alpha_shape",
     None),
    ("polyaig.gammashape", "pig_sample_with_tilts", "pig.pig_sample_with_tilts",
     _pig_terms),
    ("polyaig.gammashape", "truncated_normal_sample",
     "rng.truncated_normal_sample", None),
    ("polyaig.pig", "gig_rvs", "rng.gig_rvs", _result_size),
)

# Generator factories, rebound wherever a command or sampler calls them.
GENERATOR_FACTORIES = (
    ("polyaig.cli", "make_rng"),
    ("polyaig.cli", "child_rng"),
    ("polyaig.dirichlet", "make_rng"),
    ("polyaig.gammashape", "make_rng"),
)


class CountingGenerator:
    """Pass-through proxy of a numpy Generator that counts variates drawn."""

    def __init__(self, generator, tracer):
        self._generator = generator
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._generator, name)
        if not callable(attr):
            return attr
        tracer = self._tracer

        def counted(*args, **kwargs):
            out = attr(*args, **kwargs)
            tracer.variates += np.size(out)
            return out

        return counted


class Tracer:
    """In-memory spans: (id, parent, command, name, start, end, count,
    variates). A command's root span (a `cli.cmd_*` call) gives its id as
    `command` to every span inside it; `count` is the work of one call and
    `variates` the Generator output inside the span."""

    FIELDS = ("id", "parent", "command", "name", "start_s", "end_s", "self_s",
              "count", "variates")

    def __init__(self):
        self.spans = []
        self.variates = 0
        self.command = 0
        self._stack = []
        self._next_id = 1
        self._saved = []

    def _wrap(self, fn, name, count):
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else 0
            if not parent:
                tracer.command = sid
            tracer._stack.append(sid)
            v0 = tracer.variates
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                n = count(args, kwargs, result) if count and result is not None else 1
                tracer.spans.append((sid, parent, tracer.command, name, t0, t1, n,
                                     tracer.variates - v0))

        return traced

    def _counting_factory(self, factory):
        def make(*args, **kwargs):
            return CountingGenerator(factory(*args, **kwargs), self)
        return make

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name, count in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, count))
        for module_name, attr in GENERATOR_FACTORIES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._counting_factory(fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved = []

    def write_csv(self, path):
        child = child_times(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(self.FIELDS) + "\n")
            for sid, parent, command, name, t0, t1, n, v in self.spans:
                fh.write(f"{sid},{parent},{command},{name},{t0:.9f},{t1:.9f},"
                         f"{t1 - t0 - child.get(sid, 0.0):.9f},{n},{v}\n")


def child_times(spans):
    """Time each span's direct children cover, by span id. A span's self
    time is its duration minus this."""
    out = {}
    for s in spans:
        if s[1]:
            out[s[1]] = out.get(s[1], 0.0) + (s[5] - s[4])
    return out


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(spans, rounds):
    """Per-layer metrics from the spans of `rounds` traced rounds.

    Counts are per round, so they repeat exactly for one seed. Times are
    per call unless the name says otherwise. A layer the workload does not
    reach reports 0.
    """
    by_id = {s[0]: s for s in spans}
    by_name = {}
    for s in spans:
        by_name.setdefault(s[3], []).append(s)
    child_time = child_times(spans)

    def select(name, parent=None):
        return [s for s in by_name.get(name, ()) if parent is None
                or (s[1] in by_id and by_id[s[1]][3] == parent)]

    def total(ss, field=None):
        return sum(s[field] if field else s[5] - s[4] for s in ss)

    def per_call(name, scale):
        ss = select(name)
        return _ratio(total(ss), len(ss), scale)

    m = {}
    sweeps = select("dirichlet.gibbs_sweep")
    sweep_ms = [(s[5] - s[4]) * 1e3 for s in sweeps]
    m["dirichlet.gibbs_sweep.calls"] = len(sweeps) / rounds
    for q in (50, 99):
        m[f"dirichlet.gibbs_sweep.p{q}_ms"] = (
            float(np.percentile(sweep_ms, q)) if sweeps else 0.0)
    for update in ("update_eta", "update_w", "update_p", "update_alpha"):
        ss = select(f"dirichlet.{update}", parent="dirichlet.gibbs_sweep")
        m[f"dirichlet.{update}.ms"] = _ratio(total(ss), len(ss), 1e3)
        m[f"dirichlet.{update}.share"] = _ratio(total(ss), total(sweeps))
    homo = select("dirichlet.run_chain_homogeneous")
    m["dirichlet.run_chain_homogeneous.ms_per_sweep"] = _ratio(
        total(homo), total(homo, 6), 1e3)
    pred = select("dirichlet.posterior_predictive")
    m["dirichlet.posterior_predictive.us_per_draw"] = _ratio(
        total(pred), total(pred, 6), 1e6)

    m["gammashape.update_w_shape.ms"] = per_call("gammashape.update_w_shape", 1e3)
    m["gammashape.update_alpha_shape.us"] = per_call(
        "gammashape.update_alpha_shape", 1e6)
    m["gammashape.oracle.ms"] = _ratio(total(select("gammashape.oracle")),
                                       len(select("cli.fit-gamma-shape")), 1e3)

    pig = select("pig.pig_sample_with_tilts")
    terms = total(pig, 6)
    m["pig.pig_sample_with_tilts.calls"] = len(pig) / rounds
    m["pig.pig_sample_with_tilts.terms"] = terms / rounds
    m["pig.pig_sample_with_tilts.ns_per_term"] = _ratio(total(pig), terms, 1e9)
    m["pig.pig_sample_with_tilts.self_share"] = _ratio(
        total(pig) - sum(child_time.get(s[0], 0.0) for s in pig), total(pig))

    gig = select("rng.gig_rvs")
    draws = total(gig, 6)
    m["rng.gig_rvs.draws"] = draws / rounds
    m["rng.gig_rvs.ns_per_draw"] = _ratio(total(gig), draws, 1e9)
    m["rng.gig_rvs.variates_per_draw"] = _ratio(total(gig, 7), draws)
    for sampler in ("dirichlet_log_sample", "truncated_normal_sample"):
        m[f"rng.{sampler}.calls"] = len(select(f"rng.{sampler}")) / rounds
        m[f"rng.{sampler}.us_per_call"] = per_call(f"rng.{sampler}", 1e6)

    m["summarize.summarize_samples.ms"] = per_call("summarize.summarize_samples", 1e3)
    m["io.parse.ms"] = per_call("io.parse", 1e3)
    m["io.write.ms"] = per_call("io.write", 1e3)
    for command in ("fit-dirichlet", "fit-gamma-shape", "predict"):
        m[f"cli.{command}.s"] = per_call(f"cli.{command}", 1.0)
    return m

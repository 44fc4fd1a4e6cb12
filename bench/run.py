#!/usr/bin/env python3
"""polyaig benchmark: named workloads run in-process through `polyaig.cli.main`.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The program is imported from `src/` next to
this directory and sees only the input files written here and CLI flags,
so the `cli`, `io`, `summarize`, `dirichlet`/`gammashape`, `pig` and `rng`
layers all do the work the `polyaig` command does.

Load: one process, one thread (BLAS thread variables are set to 1 before
numpy loads), closed loop: each command starts when the previous one
returns. A round is one pass over the workload's commands; rounds repeat
until the next one would end after `--seconds`. Round r's chains use seeds
derived from (seed, r), so two runs of one seed repeat each other's rounds
byte for byte, and `--seed` alone fixes every input.

Workloads (why each was chosen is in BENCHMARK.json):
  dirichlet-snapshot  4 fit-dirichlet chains, 1 --homogeneous fit and 1
                      predict on data/opioid_deaths.csv (M=6, K=6)
  gamma-shape         fit-gamma-shape on Gamma(0.4, 1) n=60, Gamma(3, 2)
                      n=200 and Gamma(20, 5) n=200 data, beta known, 600,
                      1000 and 600 sweeps; each round takes the next of 8
                      data sets per fit

Every command invocation is one operation. An operation fails when the
command exits non-zero, when a chain misses its quadrature oracle
(|mean - oracle mean| > ORACLE_Z * oracle_sd / sqrt(ess)), when the
snapshot chains disagree (split-R-hat > RHAT_LIMIT), or when its output is
malformed: a missing or unreadable file, a draw that is non-finite or not
> 0, a predictive row off the simplex. `correct` is false when any output
was malformed or when tracing changed an output; a statistical miss or a
refused command counts in `failed` only.

End-to-end metrics (--trace 0):
  setup_s      imports, plus the median of 3 repeats of writing the inputs
               and a warm-up pass of each command on a small input, scaled
               to reference host speed like wall_s
  wall_s       median over rounds of the time spent inside the commands,
               each command's time scaled to reference host speed by the
               probe in hostspeed.py (unscaled times are in the run record)
  sweeps_per_s Gibbs sweeps requested per round (burn-in included) / wall_s
  ess_per_s    per round, the minimum ESS over parameters (summary.json)
               of each fit that passed its checks, summed; mean over
               rounds / wall_s
  peak_rss_mb  peak resident memory of this process

--trace 1 alternates an untraced round with a traced round on the same
seeds, checks that both wrote byte-identical files, and reports per-layer
metrics from the traced rounds (see spans.py; span times are not scaled)
plus the tracing overhead, trace.overhead_s: traced minus untraced wall_s.

Outputs: the last stdout line is the JSON result. bench/out/ keeps, per
run, a JSON record (metrics, failures, SHA-256 of every output file per
round, environment) and, with --trace 1, the spans as CSV.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parents[1]
OUT = ROOT / "bench" / "out"
SNAPSHOT_CSV = ROOT / "data" / "opioid_deaths.csv"
SETUP_REPEATS = 3


def _declared_metrics():
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}}."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


METRICS = _declared_metrics()


def _import_program():
    src = ROOT / "src"
    if not (src / "polyaig" / "cli.py").is_file():
        raise SystemExit(f"error: no program source at {src}/polyaig")
    sys.path.insert(0, str(src))
    import polyaig.cli
    if pathlib.Path(polyaig.cli.__file__).resolve().parent != src / "polyaig":
        raise SystemExit(f"error: imported {polyaig.cli.__file__}, not {src}")
    return polyaig.cli


# Import order matters: the program must come from this checkout's src/.
cli = _import_program()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from checks import (ORACLE_Z, RHAT_LIMIT, CheckError, check_predictive,  # noqa: E402
                    min_ess, oracle_z, read_samples, read_summary, split_rhat)
from hostspeed import KERNEL_S, HostProbe, kernel_seconds  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

T_IMPORTED = time.perf_counter()


def derived_seed(*key):
    """A 32-bit seed for a command, fixed by the workload seed and `key`."""
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


class Op:
    """One command invocation and what its outputs must satisfy."""

    def __init__(self, name, argv, outdir, sweeps=0, oracle=None, simplex_k=None):
        self.name = name
        self.argv = argv + ["--out", str(outdir)]
        self.outdir = outdir
        self.sweeps = sweeps        # Gibbs sweeps a fit requests
        self.oracle = oracle        # (mean, sd), or "meta" for summary.meta.oracle
        self.simplex_k = simplex_k  # predict: categories per draw


def fit_flags(iters, burnin, seed):
    return ["--iters", str(iters), "--burnin", str(burnin), "--thin", "1",
            "--trunc", "200", "--seed", str(seed)]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    def check_round(self, ops, results):
        """Checks across one round's commands; marks results failed."""


class Snapshot(Workload):
    name = "dirichlet-snapshot"
    CHAINS = 4
    ITERS, BURNIN = 1000, 100

    def prepare(self, seed, indir):
        if not SNAPSHOT_CSV.is_file():
            raise SystemExit(f"error: missing bundled data {SNAPSHOT_CSV}")
        self.seed = seed
        self.data = indir / "opioid_deaths.csv"
        shutil.copyfile(SNAPSHOT_CSV, self.data)
        from polyaig.dirichlet import (AlphaPrior, grid_mean_sd,
                                       homogeneous_posterior_grid,
                                       quadrature_posterior)
        from polyaig.io import parse_counts_csv
        counts = parse_counts_csv(self.data, id_cols=2)
        prior = AlphaPrior.for_categories(counts.n_categories)
        grid = homogeneous_posterior_grid(counts, prior)
        self.oracle = grid_mean_sd(grid, quadrature_posterior(counts, prior, grid))
        self.k = counts.n_categories

    def ops(self, r, rdir, warmup=False):
        iters, burnin = (3, 1) if warmup else (self.ITERS, self.BURNIN)
        data = ["--data", str(self.data), "--id-cols", "2"]
        ops = [Op(f"chain{c}", ["fit-dirichlet"] + data
                  + fit_flags(iters, burnin, derived_seed(self.seed, r, c)),
                  rdir / f"chain{c}", sweeps=iters)
               for c in range(self.CHAINS)]
        ops.append(Op("homogeneous", ["fit-dirichlet", "--homogeneous"] + data
                      + fit_flags(iters, burnin, derived_seed(self.seed, r, 99)),
                      rdir / "homogeneous", sweeps=iters, oracle=self.oracle))
        ops.append(Op("predict", ["predict", "--samples",
                                  str(rdir / "chain0" / "samples.csv"),
                                  "--seed", str(derived_seed(self.seed, r, 98))],
                      rdir / "predict", simplex_k=self.k))
        return ops

    def warmup_ops(self, rdir):
        return self.ops(0, rdir, warmup=True)

    def check_round(self, ops, results):
        """Split-R-hat across the chains; a miss fails every chain."""
        chains = [res for op, res in zip(ops, results)
                  if op.name.startswith("chain") and not res["failed"]]
        if len(chains) < 2:
            return
        draws = [res["draws"] for res in chains]
        worst = max(split_rhat([d[:, j] for d in draws])
                    for j in range(draws[0].shape[1]))
        for res in chains:
            res["rhat"] = worst
            if worst > RHAT_LIMIT:
                res["failed"] = True
                res["reason"] = f"split-R-hat {worst:.4f} > {RHAT_LIMIT}"


class GammaShape(Workload):
    name = "gamma-shape"
    # (label, shape, rate, n, sweeps); --beta is the known rate. The
    # Gamma(3, 2) fit is the one whose ESS counts at the seed commit, so it
    # runs longest: ESS estimates steady with the number of draws.
    FITS = (("shape0.4", 0.4, 1.0, 60, 600), ("shape3", 3.0, 2.0, 200, 1000),
            ("shape20", 20.0, 5.0, 200, 600))
    BURNIN = 50
    # Round r fits data set r mod DATASETS: a chain's mixing depends on its
    # data, so a run averages ESS over several data sets, not one.
    DATASETS = 8

    def prepare(self, seed, indir):
        self.seed = seed
        self.data = {}
        for i, (label, shape, rate, n, _) in enumerate(self.FITS):
            for d in range(self.DATASETS):
                rng = np.random.default_rng(np.random.SeedSequence([seed, 2, i, d]))
                y = rng.gamma(shape, 1.0 / rate, size=n)
                path = indir / f"{label}-{d}.csv"
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write("y\n" + "".join(f"{v:.17g}\n" for v in y))
                self.data[label, d] = path

    def ops(self, r, rdir, warmup=False):
        d = r % self.DATASETS
        return [Op(label, ["fit-gamma-shape", "--data", str(self.data[label, d]),
                           "--beta", repr(rate)]
                   + (fit_flags(3, 1, 1) if warmup else
                      fit_flags(iters, self.BURNIN, derived_seed(self.seed, r, i))),
                   rdir / label, sweeps=iters, oracle="meta")
                for i, (label, _, rate, _, iters) in enumerate(self.FITS)]

    def warmup_ops(self, rdir):
        return self.ops(0, rdir, warmup=True)


WORKLOADS = {w.name: w for w in (Snapshot, GammaShape)}


# ---------------------------------------------------------------------------
# running and checking commands
# ---------------------------------------------------------------------------

def run_command(argv):
    """cli.main(argv) with its console output captured: (rc, t0, t1, err)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, not a stop
            rc, err = -1, io.StringIO(f"{type(exc).__name__}: {exc}")
        t1 = time.perf_counter()
    return rc, t0, t1, err.getvalue().strip()


def check_op(op, res):
    """Fill res with the op's outcome. Raises CheckError on malformed output."""
    if op.simplex_k is not None:
        check_predictive(op.outdir / "predictive.csv", op.simplex_k)
        return
    _, res["draws"] = read_samples(op.outdir / "samples.csv")
    summary = read_summary(op.outdir / "summary.json")
    if op.oracle is not None:
        mean_sd = op.oracle
        if op.oracle == "meta":
            o = summary["meta"]["oracle"]
            mean_sd = (o["quadrature_mean"], o["quadrature_sd"])
        p = summary["parameters"][0]
        z = oracle_z(p["mean"], p["ess"], *mean_sd)
        res["oracle_z"] = z
        if z > ORACLE_Z:
            res["failed"] = True
            res["reason"] = (f"mean {p['mean']:.6g} vs oracle {mean_sd[0]:.6g}"
                             f" (sd {mean_sd[1]:.3g}, ess {p['ess']:.1f}):"
                             f" {z:.1f} > {ORACLE_Z} MC errors")
    res["ess"] = min_ess(summary)


def digests(outdir):
    if not outdir.is_dir():
        return {}
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(outdir.iterdir()) if f.is_file()}


def run_round(workload, ops, probe):
    """Run ops in order; returns per-op results (checks done outside timing).

    `seconds` is a command's wall time less the probe's, `scaled_s` that
    time at the probe's reference host speed.
    """
    results = []
    for op in ops:
        rc, t0, t1, err = run_command(op.argv)
        seconds, scaled, kernel = probe.scaled(t0, t1)
        res = {"op": op.name, "rc": rc, "seconds": seconds, "kernel_s": kernel,
               "scaled_s": scaled, "failed": rc != 0,
               "malformed": False, "reason": err.splitlines()[-1] if rc else "",
               "ess": 0.0, "sweeps": op.sweeps}
        if rc == 0:
            try:
                check_op(op, res)
            except CheckError as exc:
                res.update(failed=True, malformed=True, reason=str(exc))
        res["sha256"] = digests(op.outdir)
        results.append(res)
    workload.check_round(ops, results)
    for res in results:
        res.pop("draws", None)
        if res["failed"]:
            res["ess"] = 0.0
    return results


def run_pass(workload, r, workdir, probe, tracer=None):
    rdir = workdir / f"r{r}{'t' if tracer else ''}"
    ops = workload.ops(r, rdir)
    if tracer is not None:
        tracer.install()
    try:
        results = run_round(workload, ops, probe)
    finally:
        if tracer is not None:
            tracer.uninstall()
    shutil.rmtree(rdir, ignore_errors=True)
    return {"round": r, "traced": tracer is not None,
            "wall_s": sum(res["scaled_s"] for res in results),
            "raw_wall_s": sum(res["seconds"] for res in results),
            "sweeps": sum(res["sweeps"] for res in results),
            "ess": sum(res["ess"] for res in results),
            "ops": results}


def setup(workload, seed, workdir):
    """Write the inputs and warm every command up.

    Returns (setup_s, unscaled seconds): the imports plus the median of
    SETUP_REPEATS passes, scaled to reference host speed by kernel timings
    taken before and after the passes.
    """
    kernel = kernel_seconds()
    times = []
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        indir = workdir / "inputs"
        indir.mkdir(parents=True, exist_ok=True)
        workload.prepare(seed, indir)
        wdir = workdir / f"warmup{i}"
        for op in workload.warmup_ops(wdir):
            run_command(op.argv)  # failures are counted when measuring
        shutil.rmtree(wdir, ignore_errors=True)
        times.append(time.perf_counter() - t0)
    kernel = (kernel + kernel_seconds()) / 2.0
    raw = (T_IMPORTED - T_START) + statistics.median(times)
    return raw * KERNEL_S / kernel, raw


def environment():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "platform": platform.platform()}


def measure(workload, workdir, seconds, trace):
    """Repeat passes until the next one would end after `seconds`."""
    tracer = Tracer() if trace else None
    passes = []
    deadline = time.perf_counter() + seconds
    r = 0
    with HostProbe() as probe:
        while True:
            t0 = time.perf_counter()
            passes.append(run_pass(workload, r, workdir, probe))
            if tracer is not None:
                passes.append(run_pass(workload, r, workdir, probe, tracer))
            r += 1
            if time.perf_counter() + (time.perf_counter() - t0) > deadline:
                return passes, tracer


def summarize_run(passes, tracer, setup_s):
    ops = [res for p in passes for res in p["ops"]]
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    mismatched = [p["round"] for p, q in zip(untraced, traced)
                  if [o["sha256"] for o in p["ops"]] != [o["sha256"] for o in q["ops"]]]
    failures = [f"round {p['round']}{' traced' if p['traced'] else ''} "
                f"{res['op']}: {res['reason']}"
                for p in passes for res in p["ops"] if res["failed"]]
    correct = not mismatched and not any(res["malformed"] for res in ops)
    if mismatched:
        failures.append(f"tracing changed outputs in rounds {mismatched}")

    if tracer is None:
        wall = statistics.median(p["wall_s"] for p in untraced)
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall,
            "sweeps_per_s": untraced[0]["sweeps"] / wall,
            "ess_per_s": statistics.mean(p["ess"] for p in untraced) / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        layers = layer_metrics(tracer.spans, len(traced))
        layers["chain.ess_per_sweep"] = (sum(p["ess"] for p in traced)
                                         / sum(p["sweeps"] for p in traced))
        layers["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in traced)
            - statistics.median(p["wall_s"] for p in untraced))
        metrics = layers
    declared = METRICS["per_layer" if tracer else "end_to_end"]
    if set(metrics) != set(declared):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(declared))} "
                           "disagree with BENCHMARK.json")
    return {"correct": correct, "attempted": len(ops),
            "failed": sum(res["failed"] for res in ops),
            "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                        for name, unit in declared.items()}}, failures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = OUT / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = WORKLOADS[args.workload]()
    setup_s, raw_setup_s = setup(workload, args.seed, workdir)
    passes, tracer = measure(workload, workdir, args.seconds, args.trace)
    result, failures = summarize_run(passes, tracer, setup_s)
    shutil.rmtree(workdir, ignore_errors=True)

    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, failures=failures,
                  raw_setup_s=raw_setup_s,
                  environment=environment(),
                  rounds=passes)
    with open(OUT / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if tracer is not None:
        tracer.write_csv(OUT / f"{tag}.spans.csv")

    env = record["environment"]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(passes)} rounds, {result['attempted']} commands, "
          f"{result['failed']} failed, correct={result['correct']}")
    print(f"  python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']}, {env['cpu']}")
    for line in failures:
        print(f"  failed: {line}")
    for name, m in result["metrics"].items():
        print(f"  {name:<46} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

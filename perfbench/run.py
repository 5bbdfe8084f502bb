"""dtspn benchmark runner.

    python3 perfbench/run.py --workload plan-20 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Runs one workload (see workloads.py and README.md) closed-loop in this one
process, checks its outputs, prints every metric by name with its unit, and
ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics; --trace 1 wraps the package's
public functions and reports per-layer metrics instead.  --workload all runs
every workload untraced and traced, and also reports the tracing overhead
and whether tracing changed any output.  A failed check exits with code 1.
"""

import os

# Pin BLAS to one thread before numpy loads: the benchmark is one
# closed-loop process, and on a shared 2-core machine a thread pool only
# competes with it.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads as W  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")


def run_record(workload, seed, seconds, trace):
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30,
                             check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown (not a git checkout)"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "git_sha": sha, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS}


def run_one(workload, seed, seconds, trace):
    """Set up, run and measure one workload; returns its report."""
    wl = W.WORKLOADS[workload]
    sizes = W.sizes_for(wl, seconds)
    probe = W.SpeedProbe()
    probe.mark()
    for _ in range(W.SETUP_REPEATS):
        inputs = W.set_up(SRC, wl, seed, sizes)
        probe.mark()
    setups = probe.stretches()
    os.makedirs(OUT, exist_ok=True)
    run = W.Run(wl, inputs, sizes, seed, OUT, probe, traced=bool(trace))
    tr = tracing.Tracer().install() if trace else None
    error = None
    t0 = time.perf_counter()
    try:
        run.execute()
    except (W.CheckFailed, W.StageFailed) as e:
        error = f"{type(e).__name__}: {e}"
    finally:
        if tr is not None:
            tr.uninstall()
    run.walls["total"] = time.perf_counter() - t0
    run.e2e["setup_s"] = (statistics.median(a for _, a in setups), "s")
    run.raw["setup_s"] = statistics.median(r for r, _ in setups)
    rep = {"record": run_record(workload, seed, seconds, trace),
           "sizes": sizes.__dict__, "error": error,
           "attempted": run.attempted, "failures": run.failures,
           "walls": run.walls, "adjusted": run.adjusted, "info": run.info,
           "outputs": run.outputs,
           "distributions": getattr(run, "dists", {}),
           "setup_samples": setups, "e2e": run.e2e, "raw": run.raw}
    if tr is not None:
        rep["missing"] = tr.missing
        if error is None:
            rep["layers"] = W.layer_metrics(tr, run)
        tr.write(os.path.join(OUT, f"spans-{workload}-{seed}.json.gz"))
    with open(os.path.join(OUT, f"run-{workload}-{seed}-trace{trace}.json"),
              "w") as f:
        json.dump(rep, f, indent=1)
    rep["tracer"] = tr
    return rep


def expected_metrics(trace):
    with open(BENCHMARK_JSON) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def print_report(rep):
    r = rep["record"]
    print(f"== {r['workload']} seed {r['seed']} trace {r['trace']}  "
          f"({r['seconds']} s budget)")
    print("run record: " + json.dumps(r))
    print(f"sizes: {json.dumps(rep['sizes'])}")
    fails = len(rep["failures"])
    print(f"operations: attempted {rep['attempted']}, failed {fails}, "
          f"fail_rate {fails / max(rep['attempted'], 1):.4f}")
    for what, seed, reason in rep["failures"]:
        print(f"  failed {what} on instance {seed}: {reason}")
    if rep["error"]:
        print(f"CHECK FAILED: {rep['error']}")
    for key, d in rep["distributions"].items():
        tail = (f"p{d['tail_pct']} {d['tail']:.3f}" if d["tail"] is not None
                else "no tail percentile (n < 20)")
        print(f"  {key}: median {d['median']:.3f} over n={d['n']}, {tail}")
    for name, (value, unit) in sorted(rep["e2e"].items()):
        raw = rep["raw"].get(name)
        note = f"   (raw {raw:.6g})" if raw is not None else ""
        print(f"  {name:<26} {value:>14.6g} {unit}{note}")
    for name, (value, unit) in sorted(rep.get("layers", {}).items()):
        print(f"  {name:<38} {value:>14.6g} {unit}")
    if rep.get("missing"):
        print(f"  not traced (name no longer exists): {rep['missing']}")
    print("walls: " + json.dumps({k: round(v, 3)
                                  for k, v in rep["walls"].items()}))
    print("setup samples (raw, adjusted): " + json.dumps(
        [(round(r, 4), round(a, 4)) for r, a in rep["setup_samples"]]))
    print("info: " + json.dumps(rep["info"]))


def result_line(rep, trace):
    """(correct, the final JSON result line) for one run."""
    source = rep.get("layers", {}) if trace else rep["e2e"]
    names = expected_metrics(trace)
    metrics = {n: {"value": source[n][0], "unit": source[n][1]}
               for n in names if n in source}
    correct = rep["error"] is None and len(metrics) == len(names)
    return correct, {"correct": correct, "attempted": rep["attempted"],
                     "failed": len(rep["failures"]), "metrics": metrics}


def run_all(seed, seconds):
    """Every workload untraced then traced; returns (all correct, summary)."""
    ok = True
    summary = {}
    for name in W.WORKLOADS:
        plain = run_one(name, seed, seconds, 0)
        traced = run_one(name, seed, seconds, 1)
        print_report(plain)
        print_report(traced)
        same = plain["outputs"] == traced["outputs"]
        print(f"-- {name}: traced outputs equal untraced: {same}")
        overhead = {k: traced["adjusted"][k] / plain["adjusted"][k] - 1.0
                    for k in plain["adjusted"]}
        print(f"-- {name}: tracing overhead (traced / untraced "
              f"speed-adjusted time - 1): "
              + json.dumps({k: round(v, 3) for k, v in overhead.items()}))
        print_shares(traced)
        ok = ok and same and plain["error"] is None and \
            traced["error"] is None
        summary[name] = {"e2e": {k: v[0] for k, v in plain["e2e"].items()},
                         "overhead": overhead, "outputs_equal": same}
    return ok, summary


def print_shares(rep):
    """Shares behind ROADMAP's baseline figures, from one traced run."""
    lay = rep.get("layers")
    if not lay:
        return
    plan_ms = lay["expert.plan.ms"][0]
    share = {k: lay[k][0] / plan_ms for k in (
        "expert.solve_atsp.ms", "dubins.length_matrix.ms",
        "expert.noon_bean.ms", "expert.stitch.ms")}
    tr = rep["tracer"]
    s = tr.summary()
    in_ppo = tr.under("ppo.ppo_finetune")
    _, _, _, dur, _ = tr.arrays()
    names = np.asarray(tr.names)
    ppo_ns = s.get("ppo.ppo_finetune", (0, 1))[1]

    def ppo_share(name):
        return float(dur[in_ppo & (names == name)].sum()) / ppo_ns

    steps = in_ppo & (names == "env.step")
    print("-- shares: plan " + json.dumps(
        {k: round(v, 3) for k, v in share.items()}) + "; PPO " + json.dumps(
        {k: round(ppo_share(k), 3) for k in (
            "env.step", "nets.forward_cached.b1", "nets.backward",
            "nets.adam_step", "nets.forward_cached.batch")}) +
        f"; env.step inside PPO {dur[steps].mean() / 1e3:.1f} us")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(W.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=W.REF_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not os.path.isdir(os.path.join(SRC, "dtspn")):
        print(f"error: no dtspn package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        ok, summary = run_all(args.seed, args.seconds)
        print(json.dumps({"correct": ok, "summary": summary}))
        return 0 if ok else 1
    rep = run_one(args.workload, args.seed, args.seconds, args.trace)
    print_report(rep)
    correct, line = result_line(rep, args.trace)
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

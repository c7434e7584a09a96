"""plapvar benchmark: `plap-var run` end to end, and a traced per-layer run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 bench/run.py --record-reference

Run from the repository root.  Each workload is one pinned config in
`bench/configs/`.  Load is a closed loop with one caller and one process:
every pipeline run is a fresh interpreter (`bench/worker.py`, with
PLAPVAR_THREADS=1 set before the import) that imports plapvar from `src/`,
parses the config and calls `plapvar.cli.main(["run", CONFIG, "--seed", N])`,
and the next run starts when it has ended.  Runs are started while the
next one is expected to end within `--seconds`; at least one always runs.
Without `--trace`, six set-up-only interpreters run first; `setup_s` comes
from them.  `--seed` is passed to the CLI as `--seed`.

The bounded times `run_s` and `setup_s` are scaled to a reference speed:
fresh interpreters time a fixed calibration loop (`worker.calibrate`) before
and after each worker, and the worker's time is multiplied by CAL_REF_S /
the mean of the two loop times.  The wall-clock figures
are printed beside them as `run_s_wall` and `setup_s_wall`.

Every run's outputs are checked against `bench/reference/<workload>.json`
(see reference.py).  With `--trace 0` the end-to-end metrics are printed;
with `--trace 1` untraced and traced runs alternate, and the per-layer
metrics of the traced runs are printed (tracing.py).  A readable block with
the environment comes first; the last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}.  The full result is
also written to `bench/_work/<workload>/result-seed<N>-trace<T>.json`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
WORKLOADS = ("demo_interval", "eigen_rect", "solve_rect", "audit_rect")
SETUP_RUNS = 6
#: bounded times are scaled to a machine on which worker.calibrate() takes
#: this long; the throughput of a shared machine drifts by up to 40% within
#: minutes, and the calibration loop drifts with it
CAL_REF_S = 0.2
SAMPLE_TIMEOUT_S = 120
LOOP = "closed, 1 caller, 1 process per pipeline run"


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed operation)."""


def worker(*args) -> dict:
    """One fresh interpreter; returns the JSON object it printed."""
    env = dict(os.environ, PLAPVAR_THREADS="1")
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *map(str, args)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=SAMPLE_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(map(str, args))} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


class Calibrated:
    """Workers bracketed by calibration loops, each in an interpreter of its
    own; a worker's `cal_s` is the mean of the loops just before and after
    it, and neighbouring workers share the loop between them."""

    def __init__(self):
        self.loops = [worker("calibrate")["cal_s"]]

    def __call__(self, *args) -> dict:
        res = worker(*args)
        self.loops.append(worker("calibrate")["cal_s"])
        res["cal_s"] = (self.loops[-2] + self.loops[-1]) / 2.0
        return res


def pipeline_run(sample, mode, config, out_dir, seed, ref) -> dict:
    """One checked pipeline run in a fresh output directory."""
    shutil.rmtree(out_dir, ignore_errors=True)
    start = time.perf_counter()
    res = sample(mode, config, out_dir, seed)
    res["wall_s"] = time.perf_counter() - start
    got = reference.read_outputs(out_dir)
    res["problems"] = ([f"raised {res['error']}"] if "error" in res else []) \
        + reference.check(ref, got, res["exit_code"])
    res["uncertified"] = got["uncertified"]
    res["same_as_reference_bytes"] = got["digest"] == ref["digest"]
    return res


def closed_loop(sample, modes, config, out_dir, seed, ref, seconds):
    """Pipeline runs cycling through `modes` until the next would overrun."""
    runs = []
    start = time.perf_counter()
    while True:
        runs.append(pipeline_run(sample, modes[len(runs) % len(modes)], config,
                                 out_dir, seed, ref))
        elapsed = time.perf_counter() - start
        if len(runs) >= len(modes) and \
                elapsed + statistics.median(r["wall_s"] for r in runs) > seconds:
            return runs


def _llc():
    best = (0, "unknown")
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        best = max(best, (level, f"L{level} {size}"))
    return best[1]


def environment(seed, versions) -> dict:
    try:
        cpu = next(line.split(":", 1)[1].strip()
                   for line in Path("/proc/cpuinfo").read_text().splitlines()
                   if line.startswith("model name"))
    except (OSError, StopIteration):
        cpu = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": src.hexdigest()[:16], "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0)), "llc": _llc(), **versions,
            "PLAPVAR_THREADS": "1", "seed": seed, "loop": LOOP}


def _tail(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def timing_line(name, values, unit):
    line = f"{name:<14} median {statistics.median(values):.6g} {unit}"
    tail = _tail(values)
    if tail is None:
        line += ", no percentile has 10 samples beyond it"
    else:
        line += f", p{tail[0]:.0f} {tail[1]:.6g} {unit}"
    return line + f" (n={len(values)})"


def calibrated(runs, key):
    """Seconds of `key` at the reference speed, one value per run."""
    return [r[key] * CAL_REF_S / r["cal_s"] for r in runs]


def end_to_end(runs, setups, ref):
    raw_run = [r["run_s"] for r in runs]
    raw_setup = [s["setup_s"] for s in setups]
    run_s = calibrated(runs, "run_s")
    setup_s = calibrated(setups, "setup_s")
    rss = [r["peak_rss_mb"] for r in runs]
    failed = sum(bool(r["problems"]) for r in runs)
    uncert = [r["uncertified"] for r in runs]
    metrics = {"run_s": (statistics.median(run_s), "s"),
               "setup_s": (statistics.median(setup_s), "s"),
               "peak_rss_mb": (statistics.median(rss), "MB")}
    cal = [r["cal_s"] for r in setups + runs]  # per worker, before/after mean
    lines = [f"times are scaled to the reference speed (calibration loop {CAL_REF_S:g} s; "
             f"here median {statistics.median(cal):.6g} s, min {min(cal):.6g} s)",
             timing_line("run_s", run_s, "s"),
             timing_line("setup_s", setup_s, "s"),
             timing_line("peak_rss_mb", rss, "MB"),
             timing_line("run_s_wall", raw_run, "s"),
             timing_line("setup_s_wall", raw_setup, "s"),
             f"{'ops_failed':<14} {failed / len(runs):.6g} share of runs "
             f"({failed} of {len(runs)})",
             f"{'uncertified':<14} median {statistics.median(uncert):g} count per run "
             f"(max {max(uncert)}, reference {ref['uncertified']}, n={len(runs)})"]
    return metrics, lines


def per_layer(traced, plain):
    """Median over traced runs of every layer metric, plus the trace
    overhead in reference-speed seconds."""
    names = traced[0]["layers"]
    metrics = {k: (statistics.median(r["layers"][k][0] for r in traced), names[k][1])
               for k in names}
    overhead = statistics.median(calibrated(traced, "run_s")) \
        - statistics.median(calibrated(plain, "run_s"))
    metrics["trace.overhead_s"] = (overhead, "s")

    m = {k: v for k, (v, _) in metrics.items()}
    lines = [f"{k} = {v:.6g} {u}" for k, (v, u) in metrics.items()]
    for solver, base in (("eigen", "first_eigenpair"), ("solver", "minimize_phi")):
        steps, trials = m[f"{solver}.steps"], m[f"{solver}.trials"]
        lines.append(f"{solver}: {steps:g} steps x {trials / steps if steps else 0:.6g} "
                     f"trials/step ({trials:g} trials) x {m[f'{solver}.s_per_trial']:.6g} "
                     f"s/trial = {trials * m[f'{solver}.s_per_trial']:.6g} s in {base}")
    lines.append(f"eigen.accept_ratio = {m['eigen.steps']:g} steps / "
                 f"{m['eigen.trials']:g} trials; solver: {m['solver.backtracks']:g} "
                 f"backtracks of {m['solver.trials']:g} trials")
    lines.append(f"conditions.check_f0.repeat_share = "
                 f"{m['conditions.check_f0.repeat_share'] * m['conditions.check_f0.calls']:g}"
                 f" repeated of {m['conditions.check_f0.calls']:g} calls")

    functions = traced[len(traced) // 2]["functions"]
    total = functions.get("cli.main", {}).get("incl_s") or 1.0
    lines.append(f"{'function (one traced run)':<48} {'calls':>7} {'self_s':>9} "
                 f"{'self%':>6} {'incl%':>6}")
    for name, row in sorted(functions.items(), key=lambda kv: -kv[1]["incl_s"]):
        lines.append(f"{name:<48} {row['calls']:>7} {row['self_s']:>9.4f} "
                     f"{100 * row['self_s'] / total:>6.1f} {100 * row['incl_s'] / total:>6.1f}")
    return metrics, lines


def measure(workload, config, ref, seed, seconds, trace) -> dict:
    """One benchmark run of a workload; returns the result with readable lines."""
    work = WORK / workload
    work.mkdir(parents=True, exist_ok=True)
    out_dir = work / "out"
    sample = Calibrated()
    setups = [] if trace else [sample("setup", config, out_dir, seed)
                               for _ in range(SETUP_RUNS)]
    modes = ("run", "trace") if trace else ("run",)
    runs = closed_loop(sample, modes, config, out_dir, seed, ref, seconds)
    plain = [r for r in runs if "layers" not in r]
    if trace:
        metrics, lines = per_layer([r for r in runs if "layers" in r], plain)
    else:
        metrics, lines = end_to_end(plain, setups, ref)
    failed = sum(bool(r["problems"]) for r in runs)
    env = environment(seed, runs[0]["versions"])
    head = [f"== {workload}  seed {seed}  trace {int(trace)}  {len(runs)} pipeline runs",
            "environment: " + ", ".join(f"{k}={v}" for k, v in env.items()),
            f"outputs depend on seed at the reference commit: "
            f"{'yes' if ref['outputs_depend_on_seed'] else 'no'} "
            f"(seeds {ref['seeds_compared']}); this run's outputs are "
            f"{'byte-identical to' if runs[-1]['same_as_reference_bytes'] else 'different from'}"
            f" the reference"]
    head += [f"FAILED run {i}: {'; '.join(r['problems'])}"
             for i, r in enumerate(runs) if r["problems"]]
    result = {"correct": failed == 0, "attempted": len(runs), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (work / f"result-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({**result, "environment": env, "setups": setups, "runs": runs},
                   indent=1) + "\n",
        encoding="utf-8")
    return {**result, "lines": head + lines}


def config_of(workload) -> Path:
    return BENCH / "configs" / f"{workload}.cfg"


def load_reference(workload) -> dict:
    return json.loads((BENCH / "reference" / f"{workload}.json").read_text(encoding="utf-8"))


def record_references(seeds=(0, 1, 2)):
    """Write bench/reference/<workload>.json from the current source tree."""
    for workload in WORKLOADS:
        out_dir = WORK / workload / "record"
        runs = {}
        for seed in seeds:
            shutil.rmtree(out_dir, ignore_errors=True)
            res = worker("run", config_of(workload), out_dir, seed)
            runs[seed] = (reference.read_outputs(out_dir), res["exit_code"])
        ref = reference.make_reference(runs)
        env = environment(min(seeds), {})
        ref["recorded_from"] = {k: env[k] for k in ("commit", "src_sha256")}
        path = BENCH / "reference" / f"{workload}.json"
        path.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "plapvar" / "__init__.py").is_file():
        print(f"error: no plapvar source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.record_reference:
            record_references()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            results[name] = measure(name, config_of(name), load_reference(name),
                                    args.seed, args.seconds, bool(args.trace))
            print("\n".join(results[name].pop("lines")), flush=True)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())

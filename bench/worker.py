"""One `plap-var run` in a fresh interpreter, timed from outside the package.

    python3 bench/worker.py MODE CONFIG OUT_DIR SEED
    python3 bench/worker.py calibrate

MODE is `setup` (import plapvar and parse CONFIG, nothing else), `run`
(setup, then `plapvar.cli.main(["run", CONFIG, ...])`) or `trace` (as `run`,
with every public function wrapped by `tracing.Tracer`).  The package is
imported from the `src/` directory next to this benchmark, and
PLAPVAR_THREADS must be set before the import, so it is required in the
environment.  `calibrate` times a fixed loop that does not touch plapvar, in
an interpreter of its own so that its time follows the machine's speed and
not the state a pipeline run left behind.  The last line of standard output
is one JSON object.
"""

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def calibrate():
    """Seconds taken by a fixed mix of work: arithmetic on arrays that fit in
    cache, small numpy calls, and streaming over arrays that do not."""
    import numpy as np
    a = np.linspace(0.0, 1.0, 200_000)
    buf = np.empty_like(a)
    big = np.ones(4_000_000)
    big_out = big.copy()
    start = time.perf_counter()
    total = 0.0
    for _ in range(100):
        np.abs(a, out=buf)
        np.power(buf, 2.5, out=buf)
        total += float(buf.sum())
    for i in range(100_000):
        total += float(np.sin(i * 1e-3))
    for _ in range(10):
        np.multiply(big, 1.0001, out=big_out)
        np.add(big_out, big, out=big_out)
    return time.perf_counter() - start


def main(argv):
    if argv == ["calibrate"]:
        print(json.dumps({"cal_s": calibrate()}))
        return
    mode, config, out_dir, seed = argv
    if os.environ.get("PLAPVAR_THREADS") != "1":
        sys.exit("worker: PLAPVAR_THREADS=1 must be set before plapvar is imported")
    sys.path.insert(0, SRC)

    t0 = time.perf_counter()
    import plapvar
    from plapvar.cli import parse_config
    with open(config, encoding="utf-8") as fh:
        parse_config(fh.read())
    result = {"setup_s": time.perf_counter() - t0}
    if not os.path.abspath(plapvar.__file__).startswith(SRC + os.sep):
        sys.exit(f"worker: imported plapvar from {plapvar.__file__}, not from {SRC}")
    if mode == "setup":
        print(json.dumps(result))
        return

    tracer = None
    if mode == "trace":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    t1 = time.perf_counter()
    try:
        code = plapvar.cli.main(["run", config, "--out", out_dir,
                                 "--seed", seed, "--quiet"])
    except Exception as exc:  # a raising pipeline is a failed operation
        import traceback
        traceback.print_exc()
        code = None
        result["error"] = repr(exc)
    result["run_s"] = time.perf_counter() - t1
    result["exit_code"] = code
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import numpy
    import scipy
    result["versions"] = {"python": sys.version.split()[0],
                          "numpy": numpy.__version__, "scipy": scipy.__version__}
    if tracer is not None:
        tracer.write_spans(out_dir.rstrip("/") + ".spans.csv")
        result["layers"] = tracing.layer_metrics(tracer.spans)
        result["functions"] = {name: {k: v for k, v in row.items() if k != "notes"}
                               for name, row in tracing.function_table(tracer.spans).items()}
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])

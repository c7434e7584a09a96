"""Reading `plap-var run` outputs and checking them against a recorded reference.

A reference (`bench/reference/<workload>.json`) holds what the recorded
commit produced: the exit code, lambda1, the minimized energy, every verdict
row of conditions.csv and incomparability.csv, the exclusive-diagonal line,
the number of uncertified stages, the output file names, and whether the
outputs changed with `--seed`.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

#: relative tolerances on reported numbers; verdicts must match exactly
LAMBDA_RTOL = 1e-7
PHI_RTOL = 1e-6


def _lines(path: Path):
    return path.read_text(encoding="utf-8").splitlines() if path.is_file() else []


def read_outputs(out_dir) -> dict:
    """The checked facts of one run's output directory."""
    out = Path(out_dir)
    report = _lines(out / "report.txt")
    got = {"files": sorted(p.name for p in out.iterdir()) if out.is_dir() else [],
           "lambda1": None, "solve_phi": None, "exclusive_diagonal": None}
    for line in report:
        if line.startswith("lambda1 = "):
            got["lambda1"] = float(line.split()[2])
        elif line.startswith("solve: phi = "):
            got["solve_phi"] = float(line.split()[3].rstrip(","))
        elif line.startswith("incomparability exclusive diagonal: "):
            got["exclusive_diagonal"] = line.rsplit(" ", 1)[1]
    # a stage is uncertified when its solve is not verified or a verdict is
    # inconclusive; these are the stages that make `plap-var run` exit 2
    got["uncertified"] = sum("verified = NO" in line or "inconclusive" in line
                             for line in report)
    got["verdicts"] = _lines(out / "conditions.csv")
    got["incomparability"] = _lines(out / "incomparability.csv")
    got["manifest"] = dict(line.split(" = ", 1) for line in _lines(out / "manifest.txt")
                           if " = " in line)
    digest = hashlib.sha256()
    for name in got["files"]:
        if name == "report.txt" or name.endswith(".csv"):
            digest.update(name.encode() + b"\0" + (out / name).read_bytes())
    got["digest"] = digest.hexdigest()
    return got


def _close(a, b, rtol) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=rtol, abs_tol=0.0)


def interval_p2_error(n: int) -> float:
    """Relative error of the P1 first eigenvalue against pi^2 on (0, 1) with
    n uniform elements: 6/h^2 (1 - cos(pi h)) / (2 + cos(pi h)) / pi^2 - 1."""
    h = 1.0 / n
    lam_h = 6.0 / h ** 2 * (1.0 - math.cos(math.pi * h)) / (2.0 + math.cos(math.pi * h))
    return lam_h / math.pi ** 2 - 1.0


def check(ref: dict, got: dict, exit_code) -> list:
    """Problems found in one run's outputs; empty when the run is correct."""
    problems = []
    if exit_code not in (0, 2):
        problems.append(f"exit code {exit_code}")
    if got["files"] != ref["files"]:
        problems.append(f"output files {got['files']} != {ref['files']}")
    if not _close(got["lambda1"], ref["lambda1"], LAMBDA_RTOL):
        problems.append(f"lambda1 {got['lambda1']!r} != {ref['lambda1']!r}")
    if not _close(got["solve_phi"], ref["solve_phi"], PHI_RTOL):
        problems.append(f"solve phi {got['solve_phi']!r} != {ref['solve_phi']!r}")
    for key in ("verdicts", "incomparability", "exclusive_diagonal"):
        if got[key] != ref[key]:
            problems.append(f"{key} {got[key]!r} != {ref[key]!r}")
    # fewer uncertified stages than the reference is a fix, more is a
    # speed-up bought by stopping early
    if got["uncertified"] > ref["uncertified"]:
        problems.append(f"uncertified stages {got['uncertified']} > {ref['uncertified']}")
    want_exit = ref["exit_code"] if got["uncertified"] == ref["uncertified"] \
        else (2 if got["uncertified"] else 0)
    if exit_code in (0, 2) and exit_code != want_exit:
        problems.append(f"exit code {exit_code}, expected {want_exit}")
    man = got["manifest"]
    if (man.get("domain") == "interval" and man.get("p") == "2"
            and man.get("a") == "0" and man.get("b") == "1" and got["lambda1"] is not None):
        # closed form: lambda1 = pi^2 on (0, 1) for p = 2, up to the P1 error
        err = abs(got["lambda1"] / math.pi ** 2 - 1.0)
        bound = interval_p2_error(int(man["n"])) + LAMBDA_RTOL
        if err > bound:
            problems.append(f"lambda1 {got['lambda1']!r} is {err:.3e} from pi^2, "
                            f"beyond the P1 error {bound:.3e}")
    return problems


def make_reference(runs: dict) -> dict:
    """Reference from {seed: (outputs, exit_code)}; the lowest seed is kept."""
    seed0 = min(runs)
    got, code = runs[seed0]
    ref = {k: got[k] for k in ("files", "lambda1", "solve_phi", "verdicts",
                               "incomparability", "exclusive_diagonal", "uncertified")}
    ref["exit_code"] = code
    ref["digest"] = got["digest"]
    ref["seeds_compared"] = sorted(runs)
    ref["outputs_depend_on_seed"] = len({g["digest"] for g, _ in runs.values()}) > 1
    problems = check(ref, got, code)
    if problems:
        raise ValueError("recorded run fails its own reference: " + "; ".join(problems))
    return ref

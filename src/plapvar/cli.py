"""Command-line front end: `plap-var run` and `plap-var check-config`.

Configs are line-oriented `key = value` files with `#` comments.  All
problem data is named explicitly; every parse or validation problem in a
file is reported at once, with unknown keys called out by name.  Spatial
data (weights, load densities) is written as arithmetic expressions in
x (and y on rectangles) evaluated by a restricted interpreter — only
numbers, + - * / **, the names x, y, pi and the functions sin, cos,
exp, log, abs are admitted, so a config file cannot run code.

`run` executes one of five pipelines on the configured problem and
writes manifest.txt, report.txt and CSV tables (17 significant digits)
into the output directory.  Runs are deterministic: the same config
and package version produce byte-identical outputs; the `seed` key is
recorded in the manifest and read by no stage.  `run --explain` also
writes evidence.json, every verdict's evidence (see `plapvar.explain`).

Exit codes: 0 on success with decisive results, 2 when a hypothesis
check came back inconclusive (or a solve could not be certified), 1 on
errors.  The environment variable PLAPVAR_THREADS caps the BLAS/OpenMP
thread pools when set before the process starts.
"""

from __future__ import annotations

import argparse
import ast
import itertools
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import conditions as cond
from . import nonlinearity as nl
from .assembly import (
    DualVector,
    load_vector,
    quad_load,
    values_at_quad,
    zero_dual,
)
from .eigen import EigenConvergenceError, first_eigenpair
from .meshing import build_interval_mesh, build_rectangle_mesh
from .solver import UnboundedBelowError, minimize_phi, verify_weak_solution

__all__ = [
    "ConfigError",
    "ExpressionError",
    "ExperimentConfig",
    "compile_expression",
    "parse_config",
    "run",
    "main",
    "thread_cap",
]

PIPELINES = ("eigen", "solve", "conditions", "incomparability", "all")

#: every top-level key with its default, in manifest order; a value
#: parses as the type of its default
_DEFAULTS = {
    "p": 2.0, "domain": "interval", "a": 0.0, "b": 1.0, "n": 64,
    "ax": 0.0, "bx": 1.0, "ay": 0.0, "by": 1.0, "nx": 16, "ny": 16,
    "nonlinearity": "sine_exp", "h": "zero", "pipeline": "all", "seed": 0,
    "levels": 40,
}

#: the keys only one domain reads; the echo leaves out the other domain's
_DOMAIN_KEYS = {"interval": ("a", "b", "n"),
                "rectangle": ("ax", "bx", "ay", "by", "nx", "ny")}
DOMAINS = tuple(_DOMAIN_KEYS)

class ConfigError(ValueError):
    """All problems found in a config file, one message per line."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


class ExpressionError(ValueError):
    pass


def _finite_float(text: str) -> float:
    """float(text), rejecting inf and nan."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


#: type of a key's default -> (converter, what the value must be)
_KEY_KINDS = {
    float: (_finite_float, "a finite number"),
    int: (int, "an integer"),
    str: (str, "a string"),
}


# ---------------------------------------------------------------------------
# restricted spatial expressions
# ---------------------------------------------------------------------------

_ALLOWED_CALLS = {"sin": np.sin, "cos": np.cos, "exp": np.exp,
                  "log": np.log, "abs": np.abs}
_ALLOWED_NODES = (ast.Expression, ast.Load, ast.BinOp, ast.UnaryOp, ast.UAdd,
                  ast.USub, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


def compile_expression(text: str, ndim: int):
    """Compile an arithmetic expression in x (and y for ndim = 2).

    Returns a vectorized callable mapping point arrays of shape
    (m, ndim) to value arrays of shape (m,).  Anything outside the
    whitelist (numbers, + - * / **, x, y, pi, sin, cos, exp, log, abs)
    raises ExpressionError, and so does a constant that is not a finite
    float.  Constants are floats, so powers cannot build huge integers;
    an arithmetic error while evaluating is an ExpressionError too.
    """
    text = text.strip()
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"syntax error in expression {text!r}: {exc.msg}")

    names = {"x", "pi"} | ({"y"} if ndim == 2 else set())
    for node in ast.walk(tree):
        # an operator node is walked as well, so BinOp/UnaryOp need no check
        if isinstance(node, _ALLOWED_NODES):
            continue
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            if not abs(node.value) <= sys.float_info.max:
                raise ExpressionError(
                    f"expression {text!r} has a constant that is not finite")
            node.value = float(node.value)
            continue
        if isinstance(node, ast.Name):
            if node.id in names or node.id in _ALLOWED_CALLS:
                continue
            extra = " (y is only available on rectangle domains)" \
                if node.id == "y" and ndim == 1 else ""
            raise ExpressionError(
                f"expression {text!r} uses unknown name {node.id!r}{extra}")
        if isinstance(node, ast.Call):
            if (isinstance(node.func, ast.Name) and node.func.id in _ALLOWED_CALLS
                    and len(node.args) == 1 and not node.keywords):
                continue
            raise ExpressionError(
                f"expression {text!r} calls something outside "
                f"sin/cos/exp/log/abs")
        raise ExpressionError(
            f"expression {text!r} uses a construct that is not allowed "
            f"({type(node).__name__})")

    code = compile(tree, "<config expression>", "eval")

    def fn(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        env = {"x": pts[:, 0], "pi": math.pi, **_ALLOWED_CALLS}
        if ndim == 2:
            env["y"] = pts[:, 1]
        out = np.empty(pts.shape[0])
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                out[:] = eval(code, {"__builtins__": {}}, env)
        except (ArithmeticError, TypeError) as exc:
            raise ExpressionError(
                f"expression {text!r} could not be evaluated: {exc}") from None
        return out

    return fn


# ---------------------------------------------------------------------------
# nonlinearity catalog
# ---------------------------------------------------------------------------

_REQUIRED = object()


def _phi(P, p):
    """|s|^alpha as the comparison function; alpha defaults to (1 + p)/2."""
    return cond.power_comparison(P.get("alpha", (1.0 + p) / 2.0))


#: name -> (builder(params, lambda1, p), {param: (kind, default)}).  Kinds:
#: "number" is finite, "exponent" a number or inf, "weight" a finite number
#: or an expression.  A default of None leaves an absent parameter to the
#: builder, _REQUIRED makes it mandatory; any other default is echoed like
#: a given value.
_CATALOG = {
    "sine_exp": (lambda P, lam, p: nl.sine_exp(P["d"]),
                 {"d": ("weight", "1.0")}),
    "power_perturbation": (lambda P, lam, p: nl.power_perturbation(lam, P["beta"], p),
                           {"beta": ("number", _REQUIRED)}),
    "power_potential": (lambda P, lam, p: nl.power_potential(P["mu"], p, lam),
                        {"mu": ("number", _REQUIRED)}),
    "weighted_comparison": (
        lambda P, lam, p: nl.weighted_comparison(
            P["eta"], _phi(P, p), lam, p, P.get("eta_exponent", math.inf)),
        {"eta": ("weight", _REQUIRED), "alpha": ("number", None),
         "eta_exponent": ("exponent", None)}),
    "weighted_absval": (
        lambda P, lam, p: nl.weighted_absval(
            P["eta"], lam, p, P.get("eta_exponent", math.inf)),
        {"eta": ("weight", _REQUIRED), "eta_exponent": ("exponent", None)}),
    "modulated_resonance": (
        lambda P, lam, p: nl.modulated_resonance(P["a"], _phi(P, p), lam, p),
        {"a": ("weight", _REQUIRED), "alpha": ("number", None)}),
}


def _catalog_value(kind: str, text: str, ndim: int):
    """A catalog parameter's float, or a weight's compiled expression."""
    try:
        return math.inf if kind == "exponent" and float(text) == math.inf \
            else _finite_float(text)
    except ValueError:
        if kind == "weight":
            return compile_expression(text, ndim)
        what = "a number or inf" if kind == "exponent" else "a finite number"
        raise ValueError(f"could not parse {text!r} as {what}") from None


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def _echo(v) -> str:
    return _g17(v) if isinstance(v, float) else str(v)


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment settings: one field per config key."""

    p: float
    domain: str
    a: float
    b: float
    n: int
    ax: float
    bx: float
    ay: float
    by: float
    nx: int
    ny: int
    nonlinearity: str
    h: str
    pipeline: str
    seed: int                   # recorded in the manifest, read by no stage
    levels: int
    nl_params: tuple            # ((name, raw-string), ...) sorted by name

    @property
    def ndim(self) -> int:
        return 2 if self.domain == "rectangle" else 1

    def lines(self):
        """Normalized `key = value` echo, the manifest format."""
        skip = {k for dom, keys in _DOMAIN_KEYS.items() if dom != self.domain
                for k in keys}
        out = []
        for key in _DEFAULTS:
            if key in skip:
                continue
            out.append(f"{key} = {_echo(getattr(self, key))}")
            if key == "nonlinearity":
                out += [f"nonlinearity.{k} = {v}" for k, v in self.nl_params]
        return out


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config; raises ConfigError listing every problem."""
    errors = []
    raw: dict[str, str] = {}
    nl_raw: dict[str, str] = {}

    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        key, _, value = (part.strip() for part in body.partition("="))
        if not key or not value:
            errors.append(f"line {lineno}: expected 'key = value', got {body!r}")
            continue
        target = nl_raw if key.startswith("nonlinearity.") else raw
        name = key[len("nonlinearity."):] if target is nl_raw else key
        if name in target:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        if target is raw and key not in _DEFAULTS:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        target[name] = value

    vals = dict(_DEFAULTS)
    for key, value in raw.items():
        convert, describe = _KEY_KINDS[type(_DEFAULTS[key])]
        try:
            vals[key] = convert(value)
        except (ValueError, KeyError):
            errors.append(f"key {key!r}: could not parse {value!r} as {describe}")

    # semantic checks ------------------------------------------------------
    if not (vals["p"] > 1.0):
        errors.append(f"p must exceed 1 (got {vals['p']})")
    if vals["domain"] not in DOMAINS:
        errors.append(f"domain must be one of {', '.join(DOMAINS)} "
                      f"(got {vals['domain']!r})")
    if vals["pipeline"] not in PIPELINES:
        errors.append(f"pipeline must be one of {', '.join(PIPELINES)} "
                      f"(got {vals['pipeline']!r})")
    ndim = 2 if vals["domain"] == "rectangle" else 1
    if ndim == 1:
        if not (vals["a"] < vals["b"]):
            errors.append(f"interval needs a < b (got a={vals['a']}, b={vals['b']})")
        if vals["n"] < 2:
            errors.append(f"n must be at least 2 (got {vals['n']})")
    else:
        if not (vals["ax"] < vals["bx"]):
            errors.append(f"rectangle needs ax < bx (got ax={vals['ax']}, "
                          f"bx={vals['bx']})")
        if not (vals["ay"] < vals["by"]):
            errors.append(f"rectangle needs ay < by (got ay={vals['ay']}, "
                          f"by={vals['by']})")
        if vals["nx"] < 2 or vals["ny"] < 2:
            errors.append(f"nx and ny must be at least 2 (got nx={vals['nx']}, "
                          f"ny={vals['ny']})")
    if not (8 <= vals["levels"] <= 1000):
        errors.append(f"levels must be between 8 and 1000 (got {vals['levels']})")

    # nonlinearity parameters ---------------------------------------------
    name = vals["nonlinearity"]
    if name not in _CATALOG:
        errors.append(f"nonlinearity must be one of {', '.join(sorted(_CATALOG))} "
                      f"(got {name!r})")
    else:
        schema = _CATALOG[name][1]
        for pname in nl_raw:
            if pname not in schema:
                errors.append(f"nonlinearity {name!r} has no parameter {pname!r} "
                              f"(valid: {', '.join(sorted(schema))})")
        params = {}
        for pname, (kind, default) in schema.items():
            if pname not in nl_raw:
                if default is _REQUIRED:
                    errors.append(f"nonlinearity {name!r} needs parameter {pname!r}")
                elif default is not None:
                    nl_raw[pname] = default
                continue
            try:
                params[pname] = _catalog_value(kind, nl_raw[pname], ndim)
            except ValueError as exc:
                errors.append(f"key 'nonlinearity.{pname}': {exc}")
        beta, alpha = params.get("beta"), params.get("alpha")
        if beta is not None and not (1.0 < beta < vals["p"]):
            errors.append(f"power_perturbation needs 1 < beta < p "
                          f"(got beta={beta}, p={vals['p']})")
        if alpha is not None and not (1.0 <= alpha <= vals["p"]):
            errors.append(f"alpha must lie in [1, p] "
                          f"(got alpha={alpha}, p={vals['p']})")

    # right-hand side ------------------------------------------------------
    kind, _, arg = vals["h"].partition(":")
    if kind == "density" and arg:
        try:
            compile_expression(arg, ndim)
        except ExpressionError as exc:
            errors.append(f"h density: {exc}")
    elif kind == "phi1" and arg:
        try:
            _finite_float(arg)
        except ValueError:
            errors.append(f"h = phi1:<coeff> needs a finite numeric coefficient "
                          f"(got {arg!r})")
    elif kind != "zero" or arg:
        errors.append(f"h must be 'zero', 'density:<expr>' or 'phi1:<coeff>' "
                      f"(got {vals['h']!r})")

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(**vals, nl_params=tuple(sorted(nl_raw.items())))


# ---------------------------------------------------------------------------
# pipeline execution
# ---------------------------------------------------------------------------


def _g17(v: float) -> str:
    return f"{float(v):.17g}"


def _build_mesh(cfg: ExperimentConfig):
    if cfg.domain == "interval":
        return build_interval_mesh(cfg.a, cfg.b, cfg.n)
    return build_rectangle_mesh(cfg.ax, cfg.bx, cfg.ay, cfg.by, cfg.nx, cfg.ny)


def _build_spec(cfg: ExperimentConfig, lambda1: float):
    build, schema = _CATALOG[cfg.nonlinearity]
    params = {k: _catalog_value(schema[k][0], v, cfg.ndim) for k, v in cfg.nl_params}
    return build(params, lambda1, cfg.p)


def _build_h(cfg: ExperimentConfig, mesh, eig) -> DualVector:
    kind, _, arg = cfg.h.partition(":")
    if kind == "zero":
        return zero_dual(mesh)
    if kind == "density":
        return load_vector(mesh, compile_expression(arg, mesh.ndim))
    return quad_load(mesh, float(arg) * values_at_quad(mesh, eig.phi1))


def _write(path: Path, lines) -> None:
    with path.open("w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in lines)


def _field_csv(mesh, values, column: str):
    """The field's CSV: the header, then one string of lines per 1024 rows
    (all rows at once held 4 MB of Python objects on a 128 x 128 grid).
    The free vertices run over the grid x-major, so the rows' coordinates
    are the product of each axis' interior grid lines (`Mesh.grid_lines`,
    the vertex coordinates bit for bit), and each line is formatted once:
    a 128 x 128 grid has 16129 rows but 127 distinct x and 127 distinct y."""
    yield ("x," if mesh.ndim == 1 else "x,y,") + column
    labels = itertools.product(*[["%.17g," % x for x in xs[1:-1].tolist()]
                                 for xs in mesh.grid_lines()])
    for start in range(0, values.size, 1024):
        # the values first: zip stops on them before it takes a label
        yield "\n".join(["".join(r) + "%.17g" % v for v, r in
                         zip(values[start:start + 1024].tolist(), labels)])


def run(cfg: ExperimentConfig, out_dir, quiet: bool = False,
        explain: bool = False) -> int:
    """Execute the configured pipeline; returns the process exit code.

    With `explain` the evidence of every verdict is written to
    evidence.json (`explain.write_evidence`).
    """
    from . import __version__

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def say(msg):
        if not quiet:
            print(msg)

    manifest = [f"plapvar {__version__}", ""]
    manifest += cfg.lines()
    cap = thread_cap()
    manifest += ["", f"thread_cap = {cap if cap is not None else 'unset'}"]
    _write(out / "manifest.txt", manifest)

    report = []
    reports = g0 = table = None
    inconclusive = False
    mesh = _build_mesh(cfg)
    report.append(f"mesh: {cfg.domain}, {mesh.n_elements} elements, "
                  f"{mesh.n_free} free vertices")

    say(f"computing first eigenpair (p = {cfg.p}) ...")
    try:
        eig = first_eigenpair(mesh, cfg.p)
    except EigenConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        report.append(f"eigen: FAILED ({exc})")
        _write(out / "report.txt", report)
        return 1
    report.append(f"lambda1 = {_g17(eig.lambda1)}  "
                  f"(iterations {eig.iterations}, trials {eig.trials}, "
                  f"{eig.cg_iterations} cg iterations, "
                  f"residual {_g17(eig.residual)}, "
                  f"stop = {eig.stop_reason})")

    want = cfg.pipeline
    if want in ("eigen", "all"):
        _write(out / "eigen.csv", _field_csv(mesh, eig.phi1.values, "phi1"))
        say(f"lambda1 = {eig.lambda1:.12g}")

    if want in ("solve", "conditions", "all"):
        spec = _build_spec(cfg, eig.lambda1)
        h = _build_h(cfg, mesh, eig)

    if want in ("solve", "all"):
        say("minimizing the energy ...")
        try:
            res = minimize_phi(mesh, spec, h, cfg.p)
        except UnboundedBelowError as exc:
            print(f"error: {exc}", file=sys.stderr)
            report.append(f"solve: FAILED ({exc})")
            _write(out / "report.txt", report)
            return 1
        check = verify_weak_solution(mesh, res.u, spec, h, cfg.p)
        report += [
            f"solve: phi = {_g17(res.phi)}, {res.iterations} steps, "
            f"{res.trials} trials, {res.cg_iterations} cg iterations, "
            f"stop = {res.stop_reason}, stationarity = {_g17(res.stationarity)}",
            f"solve: weak residual (relative) = {_g17(check.max_relative)}, "
            f"lambda_u = {_g17(check.lambda_u)}, "
            f"verified = {'yes' if check.passed else 'NO'}",
        ]
        _write(out / "solution.csv", _field_csv(mesh, res.u.values, "u"))
        if not (res.converged and check.passed):
            inconclusive = True
            say("solve could not be certified")
        else:
            say(f"phi = {res.phi:.12g}, residual ok")

    if want in ("conditions", "all"):
        say("checking solvability hypotheses ...")

        def note(line):
            report.append(line)
            say("  " + line)

        reports = cond.check_theorems(spec, eig, h, mesh, cfg.p, levels=cfg.levels)
        csv = ["checker,condition,status"]
        for cname, rep in reports.items():
            note(f"{cname}: {rep.overall}")
            csv.append(f"{cname},overall,{rep.overall}")
            for key, status in rep.rows():
                csv.append(f"{cname},{key},{status}")
            if rep.overall == cond.INCONCLUSIVE:
                inconclusive = True
        if spec.autonomous:
            g0 = cond.check_superlinear_negativity(
                spec, levels=cfg.levels, lambda1=eig.lambda1, p=cfg.p)
            note(f"superlinear_negativity: {g0.status}")
            csv.append(f"superlinear_negativity,overall,{g0.status}")
            if g0.status == cond.INCONCLUSIVE:
                inconclusive = True
        _write(out / "conditions.csv", csv)

    if want in ("incomparability", "all"):
        say("running the incomparability suite ...")
        table = cond.incomparability_suite(cfg.p, mesh, levels=cfg.levels,
                                           eigenpair=eig)
        csv = ["case," + ",".join(cond.THEOREMS)]
        for case, statuses in table.rows():
            csv.append(case + "," + ",".join(statuses))
            report.append(f"incomparability {case}: "
                          + ", ".join(f"{t}={s}" for t, s in
                                      zip(cond.THEOREMS, statuses)))
            if cond.INCONCLUSIVE in statuses:
                inconclusive = True
        exclusive = table.is_exclusive_diagonal()
        report.append(f"incomparability exclusive diagonal: "
                      f"{'yes' if exclusive else 'no'}")
        _write(out / "incomparability.csv", csv)
        say(f"  exclusive diagonal: {'yes' if exclusive else 'no'}")

    _write(out / "report.txt", report)
    if explain:
        from .explain import write_evidence
        write_evidence(out, reports, g0, table)
    say(f"wrote {out}/report.txt")
    return 2 if inconclusive else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def thread_cap():
    """The PLAPVAR_THREADS cap applied when plapvar was imported, or None."""
    from . import _thread_cap
    return _thread_cap


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="plap-var",
        description="Variational audits for the Dirichlet p-Laplacian "
                    "problem -div(|grad u|^(p-2) grad u) = f(x, u) + h.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute the configured pipeline")
    p_run.add_argument("config", help="path to a key = value config file")
    p_run.add_argument("--out", default="plapvar-out",
                       help="output directory (default: plapvar-out)")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    p_run.add_argument("--quiet", action="store_true",
                       help="suppress progress output")
    p_run.add_argument("--explain", action="store_true",
                       help="also write every verdict's evidence to evidence.json")

    p_chk = sub.add_parser("check-config",
                           help="validate a config and echo its resolved form")
    p_chk.add_argument("config")

    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read {args.config}: {exc}", file=sys.stderr)
        return 1

    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 1

    if args.command == "check-config":
        for line in cfg.lines():
            print(line)
        return 0

    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    try:
        return run(cfg, args.out, quiet=args.quiet, explain=args.explain)
    except ValueError as exc:  # ExpressionError included
        print(f"error: {exc}", file=sys.stderr)
        return 1

"""Config parsing and the command-line pipelines."""
from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import plapvar as pv
from plapvar import cli
from plapvar.cli import ExpressionError, compile_expression, main, parse_config


class TestParseConfig:
    def test_empty_text_gives_defaults(self):
        cfg = parse_config("")
        assert cfg.p == 2.0
        assert cfg.domain == "interval"
        assert (cfg.a, cfg.b) == (0.0, 1.0)
        assert cfg.n == 64
        assert cfg.pipeline == "all"
        assert cfg.nonlinearity == "sine_exp"
        assert cfg.h == "zero"
        assert cfg.levels == 40
        assert cfg.ndim == 1

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# banner\n\n  p = 3.0  # trailing note\n")
        assert cfg.p == 3.0

    def test_lines_roundtrip(self):
        cfg = parse_config("p = 2.5\nn = 100\nnonlinearity = power_perturbation\n"
                           "nonlinearity.beta = 1.7\nseed = 9\n")
        again = parse_config("\n".join(cfg.lines()))
        assert again == cfg

    def test_all_errors_reported_at_once(self):
        bad = ("p = 0.5\ndomain = hexagon\nlevels = 4\nbogus_key = 1\n"
               "nonlinearity = power_perturbation\n")
        with pytest.raises(pv.ConfigError) as exc:
            parse_config(bad)
        msgs = "\n".join(exc.value.errors)
        assert len(exc.value.errors) == 5
        assert "bogus_key" in msgs
        assert "p must exceed 1" in msgs
        assert "hexagon" in msgs
        assert "levels" in msgs
        assert "beta" in msgs

    def test_duplicate_key(self):
        with pytest.raises(pv.ConfigError) as exc:
            parse_config("p = 2.0\np = 3.0\n")
        assert any("duplicate" in e for e in exc.value.errors)

    def test_line_without_equals(self):
        with pytest.raises(pv.ConfigError) as exc:
            parse_config("just some words\n")
        assert "line 1" in exc.value.errors[0]

    def test_beta_must_sit_below_p(self):
        with pytest.raises(pv.ConfigError) as exc:
            parse_config("nonlinearity = power_perturbation\n"
                         "nonlinearity.beta = 2.5\n")
        assert any("1 < beta < p" in e for e in exc.value.errors)

    def test_unknown_nonlinearity_parameter(self):
        with pytest.raises(pv.ConfigError) as exc:
            parse_config("nonlinearity = power_perturbation\n"
                         "nonlinearity.beta = 1.5\n"
                         "nonlinearity.gamma = 1.0\n")
        assert any("gamma" in e for e in exc.value.errors)

    @pytest.mark.parametrize("text", [
        "h = zero", "h = density: sin(pi*x)", "h = phi1: 0.5",
    ])
    def test_valid_h_forms(self, text):
        assert parse_config(text).h == text.split("=", 1)[1].strip()

    def test_invalid_h(self):
        with pytest.raises(pv.ConfigError):
            parse_config("h = ramp\n")
        with pytest.raises(pv.ConfigError):
            parse_config("h = phi1: lots\n")

    def test_density_leading_space_accepted(self):
        cfg = parse_config("h = density: 0.1*sin(pi*x)\n")
        assert cfg.h.startswith("density:")

    def test_config_is_frozen(self):
        cfg = parse_config("")
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.p = 3.0


class TestCompileExpression:
    def test_evaluates_vectorized(self):
        fn = compile_expression("sin(pi*x) + 1", 1)
        pts = np.array([[0.0], [0.5], [1.0]])
        assert np.allclose(fn(pts), [1.0, 2.0, 1.0], atol=1e-12)

    def test_two_dimensional(self):
        fn = compile_expression("x*y", 2)
        assert np.allclose(fn(np.array([[2.0, 3.0]])), [6.0])

    def test_rejects_attribute_access(self):
        with pytest.raises(ExpressionError):
            compile_expression("().__class__", 1)

    def test_rejects_unknown_names(self):
        with pytest.raises(ExpressionError):
            compile_expression("__import__", 1)
        with pytest.raises(ExpressionError):
            compile_expression("open", 1)

    def test_rejects_unknown_calls(self):
        with pytest.raises(ExpressionError):
            compile_expression("max(x, 1)", 1)

    def test_y_hint_in_one_dimension(self):
        with pytest.raises(ExpressionError) as exc:
            compile_expression("x*y", 1)
        assert "rectangle" in str(exc.value)

    def test_syntax_error(self):
        with pytest.raises(ExpressionError):
            compile_expression("sin(", 1)

    @pytest.mark.parametrize("text", ["10**400", "2**2**20", "1/0", "(-8)**(1/3)"])
    def test_evaluation_errors_are_expression_errors(self, text):
        fn = compile_expression(text, 1)
        with pytest.raises(ExpressionError, match="could not be evaluated"):
            fn(np.zeros((2, 1)))

    def test_rejects_non_finite_constants(self):
        with pytest.raises(ExpressionError, match="not finite"):
            compile_expression("1e400*x", 1)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestMainPipelines:
    def test_eigen_pipeline(self, tmp_path):
        cfg = write(tmp_path, "c.cfg", "pipeline = eigen\nn = 32\n")
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out), "--quiet"]) == 0
        assert (out / "eigen.csv").exists()
        assert (out / "manifest.txt").exists()
        report = (out / "report.txt").read_text()
        assert "lambda1" in report

    def test_lambda1_line_counts_cg_iterations(self, tmp_path):
        # token 3 stays lambda1; the Hessian products follow the trials,
        # as on the solve line
        cfg = write(tmp_path, "c.cfg", "pipeline = eigen\nn = 32\np = 3\n")
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out), "--quiet"]) == 0
        line = next(l for l in (out / "report.txt").read_text().splitlines()
                    if l.startswith("lambda1 = "))
        eig = pv.first_eigenpair(pv.build_interval_mesh(0.0, 1.0, 32), 3.0)
        assert float(line.split()[2]) == eig.lambda1
        assert (f"(iterations {eig.iterations}, trials {eig.trials}, "
                f"{eig.cg_iterations} cg iterations, residual ") in line
        assert line.endswith("stop = residual)")

    def test_solve_pipeline_certifies(self, tmp_path):
        cfg = write(tmp_path, "c.cfg",
                    "pipeline = solve\nn = 32\n"
                    "nonlinearity = power_perturbation\n"
                    "nonlinearity.beta = 1.9\nh = phi1: 0.05\n")
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out), "--quiet"]) == 0
        assert "verified = yes" in (out / "report.txt").read_text()
        assert (out / "solution.csv").exists()

    def test_conditions_pipeline_decisive(self, tmp_path):
        cfg = write(tmp_path, "c.cfg",
                    "pipeline = conditions\nn = 16\nlevels = 200\n"
                    "nonlinearity = power_perturbation\n"
                    "nonlinearity.beta = 1.9\n")
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out), "--quiet"]) == 0
        table = (out / "conditions.csv").read_text()
        assert "inconclusive" not in table

    def test_conditions_pipeline_shallow_is_exit_two(self, tmp_path):
        cfg = write(tmp_path, "c.cfg",
                    "pipeline = conditions\nn = 16\nlevels = 8\n"
                    "nonlinearity = power_perturbation\n"
                    "nonlinearity.beta = 1.9\n")
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out), "--quiet"]) == 2
        assert "inconclusive" in (out / "conditions.csv").read_text()

    def test_incomparability_pipeline(self, tmp_path):
        cfg = write(tmp_path, "c.cfg",
                    "pipeline = incomparability\nn = 64\nlevels = 200\n")
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out), "--quiet"]) == 0
        text = (out / "incomparability.csv").read_text()
        assert text.count("holds") == 3

    def test_bad_config_is_exit_one(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.cfg", "p = 0.5\n")
        assert main(["run", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_file_is_exit_one(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.cfg")
        assert main(["run", missing, "--out", str(tmp_path / "o")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_divergent_solve_is_exit_one(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.cfg",
                    "pipeline = solve\nn = 32\n"
                    "nonlinearity = power_potential\n"
                    "nonlinearity.mu = 25.0\nh = density: 1.0\n")
        assert main(["run", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 1
        assert "unbounded" in capsys.readouterr().err

    def test_overflowing_interval_is_exit_one(self, tmp_path, capsys):
        # both bounds are finite, so the config is valid, but b - a overflows
        cfg = write(tmp_path, "c.cfg", "pipeline = eigen\na = -1e308\nb = 1e308\nn = 16\n")
        assert main(["check-config", cfg]) == 0
        capsys.readouterr()
        assert main(["run", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 1
        assert "finite bounds and steps" in capsys.readouterr().err

    def test_check_config_echoes_resolved_form(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.cfg", "p = 2.5\nn = 100\n")
        assert main(["check-config", cfg]) == 0
        out = capsys.readouterr().out
        assert "p = 2.5" in out
        assert "n = 100" in out
        assert "pipeline = all" in out

    def test_check_config_rejects_bad_file(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.cfg", "n = -3\n")
        assert main(["check-config", cfg]) == 1

    def test_seed_override_changes_manifest(self, tmp_path):
        cfg = write(tmp_path, "c.cfg", "pipeline = eigen\nn = 16\n")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", cfg, "--out", str(out1), "--quiet"]) == 0
        assert main(["run", cfg, "--out", str(out2), "--quiet",
                     "--seed", "7"]) == 0
        m1 = (out1 / "manifest.txt").read_text()
        m2 = (out2 / "manifest.txt").read_text()
        assert "seed = 0" in m1
        assert "seed = 7" in m2


class TestDeterminism:
    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write(tmp_path, "c.cfg",
                    "pipeline = all\nn = 24\nlevels = 200\n"
                    "nonlinearity = power_perturbation\n"
                    "nonlinearity.beta = 1.9\nh = phi1: 0.05\n")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", cfg, "--out", str(out1), "--quiet"]) == 0
        assert main(["run", cfg, "--out", str(out2), "--quiet"]) == 0
        names = [p.name for p in sorted(out1.iterdir())]
        assert names == [p.name for p in sorted(out2.iterdir())]
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


class TestExplain:
    def test_evidence_json_parses_and_names_levels_used(self, tmp_path):
        cfg = write(tmp_path, "c.cfg",
                    "pipeline = all\nn = 24\nlevels = 200\n"
                    "nonlinearity = power_perturbation\n"
                    "nonlinearity.beta = 1.9\nh = phi1: 0.05\n")
        plain, explained = tmp_path / "a", tmp_path / "b"
        assert main(["run", cfg, "--out", str(plain), "--quiet"]) == 0
        assert main(["run", cfg, "--out", str(explained), "--quiet", "--explain"]) == 0
        assert not (plain / "evidence.json").exists()
        for f in plain.iterdir():
            assert (explained / f.name).read_bytes() == f.read_bytes(), f.name
        text = (explained / "evidence.json").read_text()
        data = json.loads(text, parse_constant=lambda c: pytest.fail(f"bare {c}"))
        assert set(data) == {"conditions", "superlinear_negativity", "incomparability"}
        sign = data["conditions"]["sign"]["conditions"]["nonpositive_ae"]
        assert sign["evidence"]["levels_used"] == 200
        # lim G/|s| = -inf in both directions, written as a string
        assert data["superlinear_negativity"]["evidence"]["pos"]["value"] == "-inf"
        assert set(data["incomparability"]) == {"comparison_case", "landesman_case",
                                                "sign_case"}


class TestSharedWork:
    def test_one_envelope_per_spec_one_eigenpair_tail_levels_only(
            self, tmp_path, monkeypatch):
        # pipeline = all audits the configured spec and the suite's three
        # cases: each gets one check_f0 and one tail-only pass over G, and
        # the suite reuses the run's eigenpair
        from plapvar import cli, conditions, eigen
        check_f0, first_eigenpair, G_at = (
            conditions.check_f0, eigen.first_eigenpair, conditions._G_at)
        f0_specs, eig_calls, s_seen = [], [], []

        def counting_f0(spec, *args, **kwargs):
            f0_specs.append(spec)
            return check_f0(spec, *args, **kwargs)

        def counting_eigen(*args, **kwargs):
            eig_calls.append(args)
            return first_eigenpair(*args, **kwargs)

        def recording_G(spec, c, s, *args, **kwargs):
            s_seen.append(float(s))
            return G_at(spec, c, s, *args, **kwargs)

        monkeypatch.setattr(conditions, "check_f0", counting_f0)
        monkeypatch.setattr(conditions, "_G_at", recording_G)
        monkeypatch.setattr(eigen, "first_eigenpair", counting_eigen)
        monkeypatch.setattr(cli, "first_eigenpair", counting_eigen)

        levels = 8
        cfg = write(tmp_path, "c.cfg",
                    "p = 3.0\ndomain = rectangle\nnx = 6\nny = 6\n"
                    f"pipeline = all\nlevels = {levels}\n"
                    "nonlinearity = power_perturbation\n"
                    "nonlinearity.beta = 2.0\nh = phi1: 0.1\n")
        assert main(["run", cfg, "--out", str(tmp_path / "o"), "--quiet"]) in (0, 2)

        assert len(f0_specs) == len({id(s) for s in f0_specs}) == 4
        assert len(eig_calls) == 1
        tail = [2.0 ** k for k in range(levels // 2, levels + 1)]
        # 4 specs through check_theorems + the autonomous superlinear check
        assert len(s_seen) == 5 * 2 * len(tail)
        assert sorted(set(abs(s) for s in s_seen)) == tail


    def test_run_factors_no_matrix(self, tmp_path, monkeypatch):
        # both descents apply K^-1 in closed form (solver._poisson_solve),
        # so a run that solves and certifies never calls SuperLU
        import scipy.sparse.linalg

        def refuse(*args, **kwargs):
            raise AssertionError("splu called")

        monkeypatch.setattr(scipy.sparse.linalg, "splu", refuse)
        cfg = write(tmp_path, "c.cfg",
                    "p = 3.0\ndomain = rectangle\nnx = 6\nny = 6\n"
                    "pipeline = solve\nnonlinearity = power_perturbation\n"
                    "nonlinearity.beta = 2.0\nh = phi1: 0.1\n")
        assert main(["run", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0


@pytest.mark.parametrize("key, value", [
    ("p", "inf"), ("a", "-inf"), ("b", "inf"), ("ax", "-inf"), ("bx", "inf"),
    ("ay", "-inf"), ("by", "inf"), ("b", "nan")])
def test_check_config_rejects_non_finite_numbers(tmp_path, capsys, key, value):
    # inf used to pass check-config and fail later, or not at all
    domain = "rectangle" if key in ("ax", "bx", "ay", "by") else "interval"
    cfg = write(tmp_path, "c.cfg", f"domain = {domain}\n{key} = {value}\n")
    assert main(["check-config", cfg]) == 1
    errors = capsys.readouterr().err.splitlines()
    assert errors and all(e.startswith("config error") for e in errors)
    assert any(repr(key) in e and "finite" in e for e in errors)


@pytest.mark.parametrize("key", ["multistart", "max_iter", "grad_tol", "grid_scale",
                                 "f0_radius", "quad_order"])
def test_check_config_rejects_removed_keys(tmp_path, capsys, key):
    # these keys once set solver and checker constants or the quadrature
    # rule; a config naming one is now an error, not a setting that is silently ignored
    cfg = write(tmp_path, "c.cfg", f"{key} = 1\n")
    assert main(["check-config", cfg]) == 1
    assert f"unknown key {key!r}" in capsys.readouterr().err


def test_readme_config_table_lists_every_key():
    # the key column of README's config table and cli._DEFAULTS cannot drift
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    start = lines.index("| key | default | meaning |") + 2
    keys = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        keys += [k.strip().strip("`") for k in line.split("|")[1].split(",")]
    assert sorted(keys) == sorted([*cli._DEFAULTS, "nonlinearity.<param>"])


@pytest.mark.parametrize("mesh", [
    pv.build_interval_mesh(-1.0, 2.0, 9),
    pv.build_rectangle_mesh(0.0, 1.0, -0.5, 0.5, 4, 3),
    pv.build_interval_mesh(-1.0, 2.0, 2050),
    pv.build_rectangle_mesh(-1.0, 1.0, -0.5, 0.5, 6, 4),
], ids=["interval", "rectangle", "interval-2050", "rectangle-centred"])
def test_field_csv_rows_match_per_value_formatting(mesh):
    # _field_csv yields the header, then the rows joined 1024 at a time;
    # 2049 free values fill two chunks and leave one row over
    values = np.linspace(-3.0, 7.0, mesh.n_free) / 3.0
    values[:3] = [-0.0, 1e-300, 0.1]
    coords = mesh.free_coordinates()
    ref = [("x," if mesh.ndim == 1 else "x,y,") + "u"]
    ref += [",".join(f"{float(v):.17g}" for v in [*coords[i], values[i]])
            for i in range(mesh.n_free)]
    chunks = list(cli._field_csv(mesh, values, "u"))
    assert len(chunks) == 1 + math.ceil(mesh.n_free / 1024)
    assert "\n".join(chunks).split("\n") == ref
    assert ref[1].endswith(",-0")


def test_no_splu_and_no_sparse_linalg_import(tmp_path):
    # K^-1 has a closed form and D is a pair of grid stencils, so the
    # package neither factors nor imports scipy, and a full run of the demo
    # config loads no scipy module, no numpy.random and no numpy.polynomial
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    root = os.path.join(repo, "src", "plapvar")
    sites = []
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name), encoding="utf-8") as fh:
                sites += [(name, line) for line in fh if "splu(" in line or "scipy" in line]
    assert sites == []
    probe = ("import sys, plapvar.cli\n"
             "code = plapvar.cli.main(['run', sys.argv[1], '--out', sys.argv[2], '--quiet'])\n"
             "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
             "                   or m.startswith(('numpy.random', 'numpy.polynomial'))))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(root))
    done = subprocess.run([sys.executable, "-c", probe,
                           os.path.join(repo, "demos", "experiment.cfg"), str(tmp_path / "o")],
                          env=env, capture_output=True, text=True, check=True)
    assert done.stdout.split(None, 1) == ["0", "[]\n"]


def test_check_config_rejects_non_finite_phi1_coefficient(tmp_path, capsys):
    cfg = write(tmp_path, "c.cfg", "h = phi1: inf\n")
    assert main(["check-config", cfg]) == 1
    assert "config error: h = phi1:<coeff> needs a finite" in capsys.readouterr().err


def test_catalog_exponent_accepts_inf():
    # an exponent of inf declares an L^infinity weight
    cfg = parse_config("nonlinearity = weighted_absval\nnonlinearity.eta = 1.0\n"
                       "nonlinearity.eta_exponent = inf\n")
    assert dict(cfg.nl_params)["eta_exponent"] == "inf"


@pytest.mark.parametrize("text, key", [
    ("nonlinearity = power_potential\nnonlinearity.mu = inf", "nonlinearity.mu"),
    ("nonlinearity = power_potential\nnonlinearity.mu = 1e400", "nonlinearity.mu"),
    ("nonlinearity = weighted_absval\nnonlinearity.eta = 1e400", "nonlinearity.eta"),
    ("nonlinearity = weighted_absval\nnonlinearity.eta = 1e400*x",
     "nonlinearity.eta"),
    ("nonlinearity = weighted_absval\nnonlinearity.eta = 1\n"
     "nonlinearity.eta_exponent = nan", "nonlinearity.eta_exponent"),
    ("h = density: 1e400", "h density"),
], ids=["mu-inf", "mu-1e400", "eta-1e400", "eta-expr-1e400", "eta_exponent-nan",
        "density-1e400"])
def test_check_config_rejects_non_finite_catalog_values(tmp_path, capsys, text, key):
    # these used to pass check-config and fail only in run, at a quadrature point
    cfg = write(tmp_path, "c.cfg", text + "\n")
    assert main(["check-config", cfg]) == 1
    errors = capsys.readouterr().err.splitlines()
    assert errors and all(e.startswith("config error") for e in errors)
    assert any(key in e and ("finite" in e or "inf" in e) for e in errors)


def test_expression_overflow_is_an_error_not_a_traceback(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(pv.__file__)))
    cfg = write(tmp_path, "c.cfg", "pipeline = solve\nn = 8\nh = density: 10**400\n")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "plapvar", "run", cfg, "--out", str(tmp_path / "o"),
         "--quiet"], env=env, capture_output=True, text=True)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: expression '10**400'")


GOLDEN_ECHOES = {
    "demo": (None, """\
p = 2
domain = interval
a = 0
b = 1
n = 128
nonlinearity = power_perturbation
nonlinearity.beta = 1.9
h = phi1: 0.1
pipeline = all
seed = 0
levels = 200
"""),
    "rectangle": ("""\
p = 3.0
domain = rectangle
nx = 8
ny = 8
levels = 40
nonlinearity = weighted_comparison
nonlinearity.eta = x*y - 0.2
nonlinearity.alpha = 2.0
nonlinearity.eta_exponent = inf
h = density: 0.2*sin(pi*x)*sin(pi*y)
""", """\
p = 3
domain = rectangle
ax = 0
bx = 1
ay = 0
by = 1
nx = 8
ny = 8
nonlinearity = weighted_comparison
nonlinearity.alpha = 2.0
nonlinearity.eta = x*y - 0.2
nonlinearity.eta_exponent = inf
h = density: 0.2*sin(pi*x)*sin(pi*y)
pipeline = all
seed = 0
levels = 40
"""),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_ECHOES))
def test_check_config_echo_is_pinned(tmp_path, capsys, name):
    # the manifest format bench/reference.py parses; None reads the demo config
    text, expected = GOLDEN_ECHOES[name]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cfg = (os.path.join(root, "demos", "experiment.cfg") if text is None
           else write(tmp_path, "c.cfg", text))
    assert main(["check-config", cfg]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("raw, preset", [("2", None), (" 4", None), ("+4", None),
                                         ("2", "8")],
                         ids=["2", " 4", "+4", "2-over-omp-8"])
def test_manifest_thread_cap_is_the_applied_cap(tmp_path, raw, preset):
    # the manifest reports the cap the import applied to the thread pools,
    # also when a pool variable was already set
    src = os.path.dirname(os.path.dirname(os.path.abspath(pv.__file__)))
    env = {k: v for k, v in os.environ.items()
           if not k.endswith("_NUM_THREADS") and k != "VECLIB_MAXIMUM_THREADS"}
    env["PLAPVAR_THREADS"] = raw
    if preset is not None:
        env["OMP_NUM_THREADS"] = preset
    code = ("import os, sys; sys.path.insert(0, sys.argv[1]); "
            "from plapvar.cli import parse_config, run; "
            "run(parse_config('pipeline = eigen\\nn = 8\\n'), sys.argv[2], quiet=True); "
            "print(os.environ.get('OMP_NUM_THREADS'))")
    out = subprocess.run([sys.executable, "-c", code, src, str(tmp_path)], env=env,
                         check=True, capture_output=True, text=True).stdout
    manifest = (tmp_path / "manifest.txt").read_text().splitlines()
    assert f"thread_cap = {out.strip()}" in manifest
    assert out.strip() == str(int(raw))


def test_python_dash_m_runs_the_cli():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(os.path.abspath(pv.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run(
        [sys.executable, "-m", "plapvar", "check-config",
         os.path.join(root, "demos", "experiment.cfg")],
        env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert "pipeline" in done.stdout

"""Fast self-test of the benchmark on tiny configs (about half a minute).

    python3 bench/selftest.py

Checks that one run of each mode prints every metric that BENCHMARK.json
names, with its unit; that the reference check trips when an output is
perturbed; and that the benchmark fails without a result when the source
tree is missing.
"""

import json
import re
import shutil
import subprocess
import sys
import unittest

import reference
import run

TINY = {
    # every layer does some work: eigen, solve, checkers, incomparability
    "tiny_all": """p = 2.0
domain = interval
n = 16
pipeline = all
levels = 8
nonlinearity = power_perturbation
nonlinearity.beta = 1.9
h = phi1: 0.1
""",
    "tiny_solve": """p = 2.5
domain = rectangle
nx = 4
ny = 4
pipeline = solve
nonlinearity = power_perturbation
nonlinearity.beta = 2.0
h = density: 0.2*sin(pi*x)*sin(pi*y)
""",
}

TEST_DIR = run.WORK / "selftest"


def _record(name):
    config = TEST_DIR / f"{name}.cfg"
    config.write_text(TINY[name], encoding="utf-8")
    out_dir = TEST_DIR / name
    shutil.rmtree(out_dir, ignore_errors=True)
    res = run.worker("run", config, out_dir, 0)
    got = reference.read_outputs(out_dir)
    return config, out_dir, got, reference.make_reference({0: (got, res["exit_code"])})


class BenchmarkSelfTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        shutil.rmtree(TEST_DIR, ignore_errors=True)
        TEST_DIR.mkdir(parents=True)
        cls.recorded = {name: _record(name) for name in TINY}
        cls.spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    def _assert_metrics(self, result, declared):
        self.assertTrue(result["correct"], result["lines"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in declared}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for value in result["metrics"].values():
            self.assertIsInstance(value["value"], (int, float))
        return want

    def test_end_to_end_metrics_printed_with_units(self):
        config, _, _, ref = self.recorded["tiny_all"]
        result = run.measure("tiny_all", config, ref, 0, 0.0, False)
        self._assert_metrics(result, self.spec["end_to_end"])
        text = "\n".join(result["lines"])
        for name, unit in (("run_s", " s"), ("setup_s", " s"), ("peak_rss_mb", " MB"),
                           ("run_s_wall", " s"), ("setup_s_wall", " s"),
                           ("ops_failed", "share of runs"), ("uncertified", "count per run")):
            self.assertRegex(text, rf"(?m)^{name} .*{unit}")
        self.assertIn("environment: commit=", text)

    def test_per_layer_metrics_printed_with_units(self):
        for name in TINY:
            config, _, _, ref = self.recorded[name]
            result = run.measure(name, config, ref, 0, 0.0, True)
            want = self._assert_metrics(result, self.spec["per_layer"])
            for metric, unit in want.items():
                self.assertTrue(any(line.startswith(f"{metric} = ") and line.endswith(f" {unit}")
                                    for line in result["lines"]), metric)
        m = {k: v["value"] for k, v in result["metrics"].items()}
        self.assertEqual(m["solver.trials"], m["solver.steps"] + m["solver.backtracks"])
        self.assertGreater(m["eigen.calls"], 0)

    def test_reference_check_trips_on_perturbed_outputs(self):
        _, out_dir, got, ref = self.recorded["tiny_all"]
        code = ref["exit_code"]
        self.assertEqual(reference.check(ref, got, code), [])
        self.assertNotEqual(reference.check(ref, got, 1), [])

        def perturbed(fname, pattern, new):
            copy = TEST_DIR / "perturbed"
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(out_dir, copy)
            path = copy / fname
            text, n = re.subn(pattern, new, path.read_text(encoding="utf-8"), count=1)
            self.assertEqual(n, 1, pattern)
            path.write_text(text, encoding="utf-8")
            return reference.read_outputs(copy)

        lam = r"lambda1 = \S+"
        bumped = got["lambda1"] * (1 + 1e-5)
        self.assertNotEqual(reference.check(ref, perturbed("report.txt", lam, f"lambda1 = {bumped!r}"), code), [])
        self.assertNotEqual(reference.check(ref, perturbed("conditions.csv", "holds", "fails"), code), [])
        self.assertNotEqual(reference.check(ref, perturbed("incomparability.csv", "holds", "fails"), code), [])
        self.assertNotEqual(reference.check(ref, perturbed("report.txt", "verified = yes", "verified = NO"), 2), [])

        # closed form: a reference that agrees with a wrong lambda1 still trips
        far = got["lambda1"] * (1 + 2 * reference.interval_p2_error(16))
        wrong = perturbed("report.txt", lam, f"lambda1 = {far!r}")
        problems = reference.check({**ref, "lambda1": far}, wrong, code)
        self.assertEqual(len(problems), 1)
        self.assertIn("pi^2", problems[0])

    def test_fails_without_source_tree(self):
        bare = TEST_DIR / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir()
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH, bare / run.BENCH.name,
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        proc = subprocess.run([sys.executable, *self.spec["command"][1:], "--workload",
                               "demo_interval", "--seed", "0", "--seconds", "1",
                               "--trace", "0"], cwd=bare, capture_output=True,
                              text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

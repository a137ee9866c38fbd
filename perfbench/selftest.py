"""Self-tests of the benchmark: generator, output checks, and tiny-n smoke runs.

    python3 perfbench/selftest.py

Run from the root of a checkout, like run.py.  The file is not named
test_*.py on purpose: the repository's own test suite does not collect it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (sets the BLAS caps before numpy loads)

sys.path.insert(0, str(run.SRC))
import numpy as np  # noqa: E402

import inputs  # noqa: E402
from scorecraft.model import bin_value, parse_spec  # noqa: E402

# sha256 of csv_text for seed 7, 500 continuous rows and 500 rows from 50 profiles.
DIGESTS = {
    0: "91e9a944269d9c5666fe6ea28448d9e9cf8acdcb81969db3f492a41c437d525f",
    50: "70b2d85142f2c6dbf325d686bab4953f90ce96459c66244dc3841c31913a1be1",
}


def _population():
    spec = parse_spec(run.SPEC.read_text(encoding="utf-8"))
    return inputs.population(spec, str(run.SPEC))


class GeneratorTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.pop = _population()

    def test_same_seed_same_bytes(self):
        for profiles, digest in DIGESTS.items():
            a = inputs.csv_text(self.pop, inputs.draw(self.pop, 500, 7, 1, profiles=profiles))
            b = inputs.csv_text(self.pop, inputs.draw(self.pop, 500, 7, 1, profiles=profiles))
            other = inputs.csv_text(self.pop, inputs.draw(self.pop, 500, 8, 1, profiles=profiles))
            self.assertEqual(a, b)
            self.assertNotEqual(a, other)
            self.assertEqual(hashlib.sha256(a.encode()).hexdigest(), digest)

    def test_shuffled_keeps_the_rows(self):
        sample = inputs.draw(self.pop, 400, 7, 1, profiles=40)
        moved = inputs.shuffled(sample, 9, 1, 0)
        rows = sorted(zip(*sample.text, sample.y))
        self.assertEqual(sorted(zip(*moved.text, moved.y)), rows)
        self.assertNotEqual(list(zip(*moved.text, moved.y)), list(zip(*sample.text, sample.y)))

    def test_every_value_bins_to_its_code(self):
        sample = inputs.draw(self.pop, 3000, 3, 1)
        for c, ch in enumerate(self.pop.spec.characteristics):
            got = [bin_value(ch, text) for text in sample.text[c]]
            self.assertEqual(got, sample.codes[:, c].tolist(), ch.name)

    def test_only_shadowed_char950_attributes_are_unreached(self):
        self.assertEqual(self.pop.unreached, (126, 130, 131, 132, 133, 134, 136, 137, 138, 139))
        drawn = np.unique(inputs.draw(self.pop, 20000, 5, 1).codes)
        self.assertFalse(set(drawn) & set(self.pop.unreached))


class BenchTest(unittest.TestCase):
    def setUp(self):
        (run.ROOT / ".perfbench_out").mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.ROOT / ".perfbench_out"))
        self.addCleanup(shutil.rmtree, self.work, True)

    def bench(self, name: str) -> run.Bench:
        wl = run.WORKLOADS[name]
        tiny = dataclasses.replace(wl, n=3000, samples=1, profiles=min(wl.profiles, 300))
        return run.Bench(name, 11, self.work, tiny, model_rows=3000)

    def test_each_workload_passes_a_tiny_smoke_run(self):
        for name in run.WORKLOADS:
            with self.subTest(name):
                bench = self.bench(name)
                runs = bench.closed_loop(0.0)
                self.assertEqual([r.problems for r in runs], [[]])
                values, problems = bench.traced(runs[0].wall_s)
                self.assertEqual(problems, [])
                self.assertEqual(set(values), {m for m, _, _ in run.PER_LAYER})

    def test_perturbed_beta_fails_the_check(self):
        bench = self.bench("fit-100k")
        self.assertEqual(bench.closed_loop(0.0)[0].problems, [])
        payload = json.loads(bench.model.read_text(encoding="utf-8"))
        case = bench.cases[0]
        pinned = next(r.atts[0] for r in case.cs.eq_rows if r.kind == "fixed")
        for index in (0, pinned):
            perturbed = dict(payload, beta=list(payload["beta"]))
            perturbed["beta"][index] += 1e-3
            bench.model.write_text(json.dumps(perturbed), encoding="utf-8")
            _, problems = bench.check_model(case)
            self.assertTrue(problems, f"perturbing beta[{index}] went unnoticed")


class ContractTest(unittest.TestCase):
    def test_benchmark_json_lists_what_run_reports(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual(
            [(w["name"], w["why"]) for w in spec["workloads"]],
            [(name, wl.why) for name, wl in run.WORKLOADS.items()],
        )
        for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
            self.assertEqual(listed, table)


if __name__ == "__main__":
    unittest.main()

"""Tests of the benchmark's own logic.

    python3 -m unittest discover -s lexbench/tests
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import percentile  # noqa: E402

from lexspec import boxgeom, verify  # noqa: E402
from lexspec.observable import observable_to_doc  # noqa: E402
from lexspec.spectral import check_axioms, from_observable  # noqa: E402


class FakeClock:
    def __init__(self, *ticks: float) -> None:
        self.ticks = list(ticks)

    def __call__(self) -> float:
        return self.ticks.pop(0)


class TestSelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # op [0, 10] holds a [1, 6], which holds b [2, 3]; c [7, 9] follows a.
        tracer = tracing.Tracer(clock=FakeClock(0, 1, 2, 3, 6, 7, 9, 10))
        tracer.enter("op")
        tracer.enter("a")
        tracer.enter("b")
        self.assertEqual(tracer.exit(), 1)
        self.assertEqual(tracer.exit(), 4)
        tracer.enter("c")
        self.assertEqual(tracer.exit(), 2)
        self.assertEqual(tracer.exit(), 3)
        self.assertEqual(dict(tracer.self_s), {"b": 1, "a": 4, "c": 2, "op": 3})
        self.assertEqual(dict(tracer.total_s), {"b": 1, "a": 5, "c": 2, "op": 10})
        parents = {name: parent for _, _, parent, name, _, _ in tracer.spans}
        ids = {name: sid for _, sid, _, name, _, _ in tracer.spans}
        self.assertEqual(parents, {"b": ids["a"], "a": ids["op"], "c": ids["op"], "op": None})

    def test_recursive_span_counts_once_per_level(self):
        tracer = tracing.Tracer(clock=FakeClock(0, 1, 3, 4))
        tracer.enter("boxgeom.union")
        tracer.enter("boxgeom.union")
        tracer.exit()
        tracer.exit()
        self.assertEqual(tracer.calls["boxgeom.union"], 2)
        self.assertEqual(tracer.self_s["boxgeom.union"], 4)

    def test_residual_accounts_for_the_wall_time(self):
        tracer = tracing.Tracer(clock=FakeClock(1, 2, 5, 6))
        tracer.enter("bench.op")
        tracer.enter("cli.main")
        tracer.exit()
        tracer.exit()
        values = tracing.layer_metrics(tracer, wall_s=8.0, op_span="bench.op")
        self.assertEqual(values["cli.main.self_s"], 3)
        self.assertEqual(values["trace.layer_self_s"], 3)
        self.assertEqual(values["trace.residual_s"], 2 + 8 - 5)
        tracing.check_accounting(values)
        values["trace.residual_s"] += 0.5
        with self.assertRaises(RuntimeError):
            tracing.check_accounting(values)


class TestPercentile(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(100, 0, -1))
        self.assertEqual(percentile(values, 50), 50)
        self.assertEqual(percentile(values, 90), 90)
        self.assertEqual(sum(v > percentile(values, 90) for v in values), 10)
        self.assertEqual(percentile(values, 100), 100)
        self.assertEqual(percentile(list(range(1, 11)), 90), 9)
        self.assertEqual(percentile([7.5], 90), 7.5)
        self.assertEqual(percentile([1, 2], 50), 1)

    def test_empty(self):
        with self.assertRaises(ValueError):
            percentile([], 50)


class TestInstrumentation(unittest.TestCase):
    def test_wraps_bound_names_and_restores_them(self):
        union = boxgeom.union
        init = boxgeom.Region.__init__
        tracer = tracing.Tracer()
        instrumentation = tracing.Instrumentation(tracer)
        try:
            self.assertIsNot(verify.union, union)
            self.assertIs(verify.union, boxgeom.union)
            tracer.enabled = True
            a = boxgeom.halfopen_box([0, 0], [2, 2])
            both = boxgeom.union(a, boxgeom.halfopen_box([1, 1], [3, 3]))
            tracer.enabled = False
        finally:
            instrumentation.remove()
        self.assertIs(verify.union, union)
        self.assertIs(boxgeom.Region.__init__, init)
        self.assertEqual(tracer.calls["boxgeom.union"], 1)
        self.assertEqual(tracer.calls["boxgeom.halfopen_box"], 2)
        # each halfopen_box builds one Region, the union builds the result
        self.assertEqual(tracer.calls["boxgeom.Region"], 3)
        self.assertEqual(tracer.calls["boxgeom.Region.boxes_out"], 1 + 1 + len(both.boxes))
        self.assertGreater(tracer.calls["boxgeom.Region.boxes_in"], 1 + 1 + len(both.boxes))
        union_id = next(s[1] for s in tracer.spans if s[3] == "boxgeom.union")
        self.assertEqual(
            [s[2] for s in tracer.spans if s[3] == "boxgeom.Region"][-1], union_id
        )

    def test_metric_table_matches_benchmark_json(self):
        bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual(bench["per_layer"], tracing.metric_table())
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))
        self.assertEqual(
            [(m["name"], m["unit"]) for m in bench["end_to_end"]], list(run.END_TO_END)
        )
        self.assertEqual(sorted(workloads.WORKLOADS), sorted(run.WORKLOADS))


class TestDenseObservable(unittest.TestCase):
    def test_atom_count_axioms_and_determinism(self):
        for n, m, k in ((2, 40, 5), (3, 10, 3), (2, 3, 3), (2, 6, 1)):
            x = workloads.dense_observable(workloads.op_rng(5, n, m), n, m, k)
            self.assertEqual(len(x.atoms), m)
            self.assertEqual(sum(a.weight.h for a in x.atoms), k)
            F = from_observable(x)
            self.assertEqual(len(F.values), (m + 1) ** n)
            self.assertTrue(check_axioms(F).ok)
            again = workloads.dense_observable(workloads.op_rng(5, n, m), n, m, k)
            self.assertEqual(observable_to_doc(again), observable_to_doc(x))
        other = workloads.dense_observable(workloads.op_rng(6, 2, 40), 2, 40, 5)
        self.assertNotEqual(observable_to_doc(other), observable_to_doc(x))

    def test_rejects_more_height_than_atoms(self):
        with self.assertRaises(ValueError):
            workloads.dense_observable(workloads.op_rng(1), 2, 2, 3)


class TestOpLists(unittest.TestCase):
    def specs(self, name: str, seed: int, count: int) -> list:
        with tempfile.TemporaryDirectory() as workdir:
            w = workloads.WORKLOADS[name](seed, workdir)
            return [json.dumps(w.spec(i), sort_keys=True) for i in range(count)]

    def test_seed_determines_the_op_list(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                first = self.specs(name, 3, 60)
                self.assertEqual(first, self.specs(name, 3, 60))
                self.assertNotEqual(first, self.specs(name, 4, 60))


class TestOracles(unittest.TestCase):
    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.workdir = tmp.name

    def test_suite_catches_a_corrupted_summary(self):
        w = workloads.Suite(1, self.workdir)
        config = w.inputs(0)
        summary = w.run(config)
        w.check(0, config, summary)
        summary.failures["bounds"] = 1
        with self.assertRaises(workloads.OracleError):
            w.check(0, config, summary)

    def test_extension_catches_a_disagreement(self):
        w = workloads.Extension(1, self.workdir)
        inp = w.inputs(7)
        direct, canonical, refined = w.run(inp)
        w.check(7, inp, (direct, canonical, refined))
        unit = direct.signature.unit
        with self.assertRaises(workloads.OracleError):
            w.check(7, inp, (direct, canonical, unit if refined != unit else direct.signature.zero))

    def _analysis_op(self, w, sub: str, key: str) -> int:
        return next(i for i, (k, s) in enumerate(w.ops) if k == key and s[0] == sub)

    def _corrupted(self, sub: str, key: str, corrupt) -> None:
        """The oracle passes the true output of the op and rejects ``corrupt`` of it."""
        w = workloads.Analysis(1, self.workdir)
        i = self._analysis_op(w, sub, key)
        argv = w.inputs(i)
        rc = w.run(argv)
        with open(w.out_path, "rb") as fh:
            good = fh.read()
        w.check(i, argv, rc)
        fresh = workloads.Analysis(1, self.workdir)  # no first-round output to compare with
        with open(fresh.out_path, "wb") as fh:
            fh.write(corrupt(good))
        with self.assertRaises(workloads.OracleError):
            fresh.check(i, argv, rc)

    def test_analysis_catches_corrupted_outputs(self):
        def flip_ok(data):
            doc = json.loads(data)
            doc["ok"] = not doc["ok"]
            return json.dumps(doc).encode()

        def swap_levels(data):
            doc = json.loads(data)
            levels = doc["levels"]
            levels["0"], levels["1"] = levels["1"], levels["0"]
            return json.dumps(doc).encode()

        def move_atom(data):
            doc = json.loads(data)
            doc["atoms"][0]["point"][0] = 1000
            return json.dumps(doc).encode()

        def fail_bounds(data):
            doc = json.loads(data)
            doc["bounds"]["ok"] = False
            return json.dumps(doc).encode()

        cases = (
            ("axioms", "dense2-m16", flip_ok),
            ("axioms", "patho-m16-k3", flip_ok),
            ("regions", "dense2-m16", swap_levels),
            ("regions", "patho-m16-k3", swap_levels),
            ("charpoints", "dense2-m16", fail_bounds),
            ("reconstruct", "saturate-K16", move_atom),
            ("render", "dense2-m16", lambda data: data[: len(data) // 2]),
        )
        for sub, key, corrupt in cases:
            with self.subTest(sub=sub, doc=key):
                self._corrupted(sub, key, corrupt)

    def test_analysis_catches_a_changed_repeat(self):
        w = workloads.Analysis(1, self.workdir)
        i = self._analysis_op(w, "axioms", "dense2-m16")
        argv = w.inputs(i)
        rc = w.run(argv)
        w.check(i, argv, rc)
        w.run(argv)
        with self.assertRaises(workloads.OracleError):
            w.check(i + w.round_len, argv, 1 - rc)

    def test_example_bounds(self):
        workloads._check_example("saturate/3", 0, b"bound level 1: 3 <= 3 ok\nbound total: 6 <= 6 ok")
        with self.assertRaises(workloads.OracleError):
            workloads._check_example("saturate/3", 0, b"bound total: 7 <= 6 exceeded")
        with self.assertRaises(workloads.OracleError):
            workloads._check_example("patho/9", 0, b"bound total: 3 <= 3 ok")
        with self.assertRaises(workloads.OracleError):
            workloads._check_example("patho/9", 2, b"")


if __name__ == "__main__":
    unittest.main()

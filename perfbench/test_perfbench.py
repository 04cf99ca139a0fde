"""Self-checks of the benchmark: tracing neutrality, the tracer's
bookkeeping, the calibration sampler, seeded inputs and the rendered
references.

Run from the root of a checkout: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def oracles():
    return workloads.load_oracles(ROOT)


def _cli_stdout(argv) -> str:
    from permfiber import cli
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert cli.main(argv) == 0
    return buffer.getvalue()


def test_traced_and_untraced_operation_are_byte_identical(tmp_path):
    graph = ROOT / "corpus" / "cycle4.edges"
    outputs = []
    for traced in (False, True):
        out = tmp_path / f"out-{traced}"
        spec = {"src": str(ROOT / "src"), "inputs": [str(graph)], "probe": False,
                "argv": ["fiber", "--graph", str(graph), "--checks", "all", "--pages", "2",
                         "--out", str(out)],
                "record": str(tmp_path / "record.json"), "op": "cycle4",
                "trace": str(tmp_path / "spans.jsonl") if traced else None,
                "calibrate": not traced}
        proc = subprocess.run([sys.executable, str(run.SHIM), json.dumps(spec)],
                              capture_output=True, check=True)
        record = json.loads((tmp_path / "record.json").read_text())
        assert record["code"] == 0
        if traced:
            assert record["restored"] is True
            assert record["raw"]["spans"] > 0
        exports = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        outputs.append((proc.stdout, exports))
    (plain_stdout, plain_exports), (traced_stdout, traced_exports) = outputs
    assert plain_stdout == traced_stdout
    assert sorted(plain_exports) == ["checks.csv", "cycle4.json", "dims.csv", "pages.csv"]
    assert plain_exports == traced_exports
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    ranks = [s for s in spans if s["name"] == "linalg.rank"]
    assert ranks and all({"rows", "cols", "nnz", "rank", "caller"} <= set(s) for s in ranks)


def test_uninstall_restores_every_wrapped_attribute():
    import permfiber
    from permfiber import cli, complexes, fiber, linalg
    before = {name: dict(vars(m)) for name, m in sys.modules.items()
              if name == "permfiber" or name.startswith("permfiber.")}
    method = vars(cli.Collector)["write_outputs"]
    t = tracer.Tracer()
    t.install()
    try:
        assert complexes.rank is not before["permfiber.complexes"]["rank"]
        assert linalg.rank is complexes.rank
        assert permfiber.fiber_element is fiber.fiber_element
        assert vars(cli.Collector)["write_outputs"] is not method
        assert not t.restored()
    finally:
        t.uninstall()
    assert t.restored()
    assert vars(cli.Collector)["write_outputs"] is method
    for name, namespace in before.items():
        current = vars(sys.modules[name])
        assert all(current[key] is value for key, value in namespace.items()), name


def test_self_times_add_up_to_the_traced_wall():
    from permfiber import cli
    t = tracer.Tracer()
    t.install()
    try:
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["suite", "--corpus", str(ROOT / "corpus"), "--cap", "3"])
        wall = time.perf_counter() - start
    finally:
        t.uninstall()
    metrics = tracer.layer_metrics(tracer.aggregate([t.raw_counters(wall)]), wall)
    assert sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS) == pytest.approx(wall)
    assert metrics["linalg.rank.calls"] >= metrics["linalg.rank.small_calls"] > 0
    assert metrics["polytopes.perm_to_simplex.attempt_ratio"] >= 1
    assert 0 < metrics["fiber.nondegenerate_ratio"] <= 1


def test_calibration_samples_while_work_runs():
    assert calibrate.loop() == calibrate.EXPECTED
    sampler = calibrate.Sampler()
    sampler.start()
    deadline = time.perf_counter() + 4 * calibrate.PERIOD_S
    while time.perf_counter() < deadline:
        pass
    sampler.stop()
    assert len(sampler.samples) >= 2 and sampler.wrong is None
    assert sampler.spent_s >= sum(sampler.samples)
    assert calibrate.factor(sampler.samples) > 0


def test_metric_table_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == [(name, unit, better) for name, unit, better, _ in tracer.METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name, pages", [("cycle4", 2), ("theta", 2), ("twoloop", -1)])
def test_rendered_fiber_report_matches_the_cli(oracles, name, pages):
    path = ROOT / "corpus" / f"{name}.edges"
    edges = workloads.graph_edges(path)
    want = workloads.text(workloads.fiber_report(
        name, len(edges), oracles.fiber_tree_sets(edges), pages, suite=False))
    got = _cli_stdout(["fiber", "--graph", str(path), "--checks", "all",
                       "--pages", str(pages)])
    assert got == want


def test_rendered_perm_report_matches_the_cli(oracles):
    got = _cli_stdout(["perm", "--n", "4", "--checks", "all", "--pages", "-1"])
    assert got == workloads.text(workloads.perm_report(4, ("d2", "homology", "koszul", "maps"),
                                                       oracles))


def test_same_seed_same_inputs_and_slots_filled(tmp_path, oracles):
    first = workloads.build("suite-small", 5, ROOT, tmp_path / "a", oracles)
    again = workloads.build("suite-small", 5, ROOT, tmp_path / "b", oracles)
    other = workloads.build("suite-small", 6, ROOT, tmp_path / "c", oracles)
    assert first.input_sha256 == again.input_sha256 != other.input_sha256
    assert first.operations[0].stdout == again.operations[0].stdout
    assert first.cells == other.cells
    corpus = tmp_path / "a" / "corpus"
    graphs = [workloads.graph_edges(p) for p in sorted(corpus.glob("rand*"))]
    assert len(graphs) == sum(slot[-1] for slot in workloads.SUITE_SLOTS)
    assert any(u == v for g in graphs for u, v in g)
    assert any(len(g) != len({tuple(sorted(e)) for e in g}) for g in graphs)
    manifest = json.loads((corpus / "manifest.json").read_text())
    shipped = json.loads((ROOT / "corpus" / "manifest.json").read_text())
    assert {k: manifest[k] for k in shipped} == shipped


def test_random_multigraphs_are_connected():
    from permfiber.fiber import MultiGraph
    rng = random.Random(0)
    for n in range(1, 7):
        for _ in range(3):
            assert MultiGraph.from_edges(workloads.random_multigraph(rng, n)).n == n


def test_recorded_seeds_reproduce(tmp_path, oracles):
    recorded = json.loads(workloads.REFERENCE_PATH.read_text())["inputs"]
    assert {workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED} <= {
        int(s) for seeds in recorded.values() for s in seeds}
    for name in workloads.WORKLOADS:
        for seed, want in recorded[name].items():
            wl = workloads.build(name, int(seed), ROOT, tmp_path / f"{name}-{seed}", oracles)
            assert {"inputs": wl.input_sha256,
                    "stdout": [op.stdout_sha256 for op in wl.operations]} == want

"""Benchmark of the permfiber command line, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload suite-small --seed 1 --seconds 45 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``suite-small``: ``permfiber suite --cap 5`` over the shipped corpus
  plus 40 seeded random multigraphs with 3 to 5 edges, and P1..P5.
* ``perm6``: ``permfiber perm --n 6 --checks d2,homology --pages -1
  --out DIR``.

Left out on purpose, as too long to repeat at the seed commit:
``perm --n 7`` (36 to 64 s for d2 and homology alone, about 160 s with
every check), 6-edge fibers with every check (5 to 11 s each), 8-edge
fibers and P8.  On a shared host the wall time of one run is steady
only as a mean over tens of seconds, and every workload's runs must fit
the time given to the whole benchmark, so a later benchmark change adds
them once the rank engine or the cell encoding brings them down.  The
fiber layer is measured on ``suite-small``, which checks every fiber of
its corpus in full.

Load model: a closed loop with one client.  Operations run one at a
time, each in a fresh process (``shim.py``), as a user at a shell runs
them.  Passes over the workload's operations repeat until ``--seconds``
have passed; after the first whole pass an untraced run may stop
between two operations.  Every operation is checked: exit code
0, a last line ``result: PASS``, and the sha256 of stdout and of every
export equal to the reference rendered from the oracles before any
timed pass.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (time inside
the CLI entry for one pass: the sum over the operations of each one's
mean over the run), ``cells_per_s`` (cells of one pass over ``wall_s``),
``peak_rss_mb`` (largest median peak RSS of an operation's process) and
``setup_s`` (spawn to ready, the sum over the operations of each one's
median).  The wall time is a mean, not a median: the host's speed
drifts over tens of seconds, and the mean over the whole run averages
that drift where a median of a few long operations follows it.

Every reported time is scaled to a reference host speed: it is the
measured time times ``calibrate.REFERENCE_S`` over the mean time of the
calibration loop, which the untraced operations' processes run every
``calibrate.PERIOD_S`` seconds (see ``calibrate.py``).  So drift of the
shared host between runs cancels, and the times read as seconds on a
calm host.  The summary lines print the raw times and the factor next
to them.
``--trace 1`` alternates an untraced and a traced pass and reports the
per-layer metrics of ``tracer.METRICS``; spans go to
``.perfbench_work/<run>/spans.jsonl``.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit code 2, with no result,
means the benchmark could not run (for example, no ``src/permfiber``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SHIM = HERE / "shim.py"
WORK = ROOT / ".perfbench_work"

SETUP_PROBES = 15         # extra spawn-to-ready samples per operation and run
OP_TIMEOUT_S = 170
RUN_BUDGET_S = 150        # start no pass that would end after this


@dataclass
class OpResult:
    setup_s: float
    wall_s: float = 0.0
    rss_mb: float = 0.0
    witness: str | None = None
    raw: dict | None = None
    calibration: list = field(default_factory=list)
    stdout_bytes: int = 0
    export_bytes: int = 0


@dataclass
class PassResult:
    traced: bool
    ops: list = field(default_factory=list)   # (Operation, OpResult)

    @property
    def failures(self) -> list:
        return [(op, r) for op, r in self.ops if r.witness]


def env_stamp() -> dict:
    """Interpreter, core count, CPU model and 1-minute load, read from /proc."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "load1": os.getloadavg()[0]}


def first_difference(got: str, want: str) -> str:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for i, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
        if g != w:
            return f"line {i}: got {g!r}, want {w!r}"
    i = min(len(got_lines), len(want_lines)) + 1
    if len(got_lines) > len(want_lines):
        return f"line {i}: got {got_lines[i - 1]!r}, want end of output"
    if len(got_lines) < len(want_lines):
        return f"line {i}: got end of output, want {want_lines[i - 1]!r}"
    return "same lines, different bytes (line endings)"


def check_exports(op, out: Path) -> tuple:
    """(witness or None, bytes exported) for the files left in ``out``."""
    present = sorted(p.name for p in out.iterdir()) if out.is_dir() else []
    total = sum((out / name).stat().st_size for name in present)
    if present != sorted(op.exports):
        return f"exports {present}, want {sorted(op.exports)}", total
    for name, want in sorted(op.exports.items()):
        data = (out / name).read_bytes()
        if want is not None:
            if workloads.sha256(data) != workloads.sha256(want.encode()):
                return f"{name} {first_difference(data.decode(errors='replace'), want)}", total
        else:
            ref = op.export_digests[name]
            digest = workloads.sha256(data)
            if digest != ref["sha256"]:
                return (f"{name}: sha256 {digest[:16]}.. ({len(data)} bytes), "
                        f"want {ref['sha256'][:16]}.. ({ref['bytes']} bytes)"), total
    return None, total


class Runner:
    def __init__(self, work: Path):
        self.work = work
        self.count = 0

    def spawn(self, op, probe: bool, trace_path: Path | None) -> OpResult:
        self.count += 1
        record_path = self.work / f"record-{self.count}.json"
        out = self.work / f"out-{self.count}"
        spec = {"src": str(ROOT / "src"), "inputs": op.inputs, "probe": probe,
                "argv": [a.replace("{out}", str(out)) for a in op.argv],
                "record": str(record_path), "op": f"{op.name}#{self.count}",
                "trace": str(trace_path) if trace_path else None,
                "calibrate": not probe and trace_path is None}
        spawn = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, str(SHIM), json.dumps(spec)], cwd=ROOT,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return OpResult(0.0, witness=f"timed out after {OP_TIMEOUT_S} s")
        try:
            record = json.loads(record_path.read_text(encoding="utf-8"))
            record_path.unlink()
        except (OSError, ValueError):
            tail = proc.stderr.decode(errors="replace").strip().splitlines() or ["no stderr"]
            return OpResult(0.0, witness=f"exit code {proc.returncode}, no report: {tail[-1]}")
        result = OpResult(record["ready"] - spawn)
        if probe:
            if proc.returncode != 0:
                result.witness = f"set-up probe exited with {proc.returncode}"
            return result
        result.wall_s = record["wall_s"]
        result.rss_mb = record["peak_rss_kib"] / 1024
        result.raw = record.get("raw")
        result.calibration = record.get("calibration", [])
        result.stdout_bytes = len(proc.stdout)
        stdout = proc.stdout.decode(errors="replace")
        lines = stdout.splitlines()
        if proc.returncode != 0:
            result.witness = (f"exit code {proc.returncode}; "
                              f"{first_difference(stdout, op.stdout)}")
        elif not lines or lines[-1] != "result: PASS":
            result.witness = f"last line {lines[-1] if lines else ''!r}, want 'result: PASS'"
        elif workloads.sha256(proc.stdout) != op.stdout_sha256:
            result.witness = f"stdout {first_difference(stdout, op.stdout)}"
        elif trace_path is not None and not record.get("restored"):
            result.witness = "tracer left a permfiber attribute wrapped"
        elif record.get("calibration_wrong"):
            result.witness = (f"calibration loop returned {record['calibration_wrong']}, "
                              f"want {calibrate.EXPECTED}")
        if op.exports:
            witness, result.export_bytes = check_exports(op, out)
            result.witness = result.witness or witness
        shutil.rmtree(out, ignore_errors=True)
        if result.raw is not None:
            result.raw["cli.stdout_bytes"] = result.stdout_bytes
            result.raw["cli.export_bytes"] = result.export_bytes
        return result


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run(args) -> int:
    if not (ROOT / "src" / "permfiber" / "cli.py").is_file() or \
            not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: {ROOT} holds no src/permfiber package or tests/oracles.py; "
              "run from the root of a permfiber checkout", file=sys.stderr)
        return 2
    stamp_start = env_stamp()
    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    oracles = workloads.load_oracles(ROOT)
    wl = workloads.build(args.workload, args.seed, ROOT, work / "inputs", oracles)
    reference = json.loads(workloads.REFERENCE_PATH.read_text(encoding="utf-8"))
    recorded = reference["inputs"].get(wl.name, {}).get(str(args.seed))
    made = {"inputs": wl.input_sha256, "stdout": [op.stdout_sha256 for op in wl.operations]}
    if recorded is not None and recorded != made:
        print(f"error: inputs or references for {wl.name} seed {args.seed} differ from "
              "the ones recorded in reference.json", file=sys.stderr)
        return 2

    runner = Runner(work)
    setup = {op.name: [] for op in wl.operations}
    for round_ in range(SETUP_PROBES + 1):      # the first round only warms up
        for op in wl.operations:
            probe = runner.spawn(op, probe=True, trace_path=None)
            if probe.witness:
                print(f"error: {op.name}: {probe.witness}", file=sys.stderr)
                return 2
            if round_:
                setup[op.name].append(probe.setup_s)

    spans = work / "spans.jsonl"
    kinds = (False, True) if args.trace else (False,)
    passes: list = []
    started = time.perf_counter()
    while True:
        for traced in kinds:
            result = PassResult(traced)
            passes.append(result)
            for op in wl.operations:
                op_result = runner.spawn(op, probe=False, trace_path=spans if traced else None)
                result.ops.append((op, op_result))
                if not traced and not op_result.witness:
                    setup[op.name].append(op_result.setup_s)
                # Traced and untraced passes pair up, so only an untraced
                # run stops inside a pass, and never inside the first.
                if not args.trace and len(passes) > 1 and \
                        time.perf_counter() - started >= args.seconds:
                    break
        elapsed = time.perf_counter() - started
        per_round = elapsed / (len(passes) // len(kinds))
        if elapsed >= args.seconds or elapsed + per_round > RUN_BUDGET_S:
            break
    stamp_end = env_stamp()

    failures = [(op, r) for p in passes for op, r in p.failures]
    attempted = sum(len(p.ops) for p in passes)
    plain = [(op, r) for p in passes if not p.traced for op, r in p.ops]
    per_op = {op.name: {"wall_s": [r.wall_s for o, r in plain if o is op],
                        "peak_rss_mb": [r.rss_mb for o, r in plain if o is op],
                        "setup_s": setup[op.name]}
              for op in wl.operations}
    wall = sum(statistics.fmean(v["wall_s"]) for v in per_op.values())
    setup_s = sum(statistics.median(v["setup_s"]) for v in per_op.values())
    loops = [t for _, r in plain for t in r.calibration]
    factor = calibrate.factor(loops) if loops else 1.0    # no operation reported
    values = {"wall_s": (wall * factor, "s"),
              "cells_per_s": (wl.cells / (wall * factor) if wall else 0.0, "cells/s"),
              "peak_rss_mb": (max(statistics.median(v["peak_rss_mb"])
                                  for v in per_op.values()), "MB"),
              "setup_s": (setup_s * factor, "s")}
    samples = {}
    if args.trace:
        traced = [tracer.layer_metrics(tracer.aggregate(r.raw for _, r in p.ops if r.raw),
                                       wall)
                  for p in passes if p.traced]
        samples = {name: ([t[name] for t in traced], unit)
                   for name, unit, *_ in tracer.METRICS}
        values = {name: (statistics.median(v) * (factor if unit == "s" else 1), unit)
                  for name, (v, unit) in samples.items()}
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}

    correct = not failures
    print(f"perfbench workload={wl.name} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} operations={attempted} cells={wl.cells} "
          f"inputs_sha256={wl.input_sha256[:16]}")
    print(f"env start: {json.dumps(stamp_start)}")
    print(f"env end: {json.dumps(stamp_end)}")
    print(f"host speed: calibration loop mean {calibrate.REFERENCE_S / factor:.6g} s over "
          f"{len(loops)} loops, reference {calibrate.REFERENCE_S} s; "
          f"times below marked raw are as measured, the rest are scaled by {factor:.6g}")
    for name, v in per_op.items():
        q1, q3 = quartiles(v["wall_s"])
        print(f"operation {name}: raw wall_s mean {statistics.fmean(v['wall_s']):.6g} s over "
              f"{len(v['wall_s'])} runs (q1 {q1:.6g}, q3 {q3:.6g}); "
              f"peak_rss_mb median {statistics.median(v['peak_rss_mb']):.6g} MB; "
              f"raw setup_s median {statistics.median(v['setup_s']):.6g} s "
              f"over {len(v['setup_s'])} spawns")
    for name, (value, unit) in values.items():
        if name in samples:
            q1, q3 = quartiles(samples[name][0])
            print(f"{name} = {value:.6g} {unit} (median of {len(samples[name][0])}; "
                  f"raw q1 {q1:.6g}, q3 {q3:.6g})")
        else:
            print(f"{name} = {value:.6g} {unit}")
    print(f"fail_ratio = {len(failures) / attempted:.6g} ratio ({len(failures)}/{attempted})")
    for op, r in failures[:10]:
        print(f"FAILED {op.name}: {r.witness}")
    if args.trace:
        for t in traced:
            layer_sum = sum(t[f"{layer}.self_s"] for layer in tracer.LAYERS)
            print(f"raw layer self times sum to {layer_sum:.6f} s against traced wall "
                  f"{t['trace.wall_s']:.6f} s")
            if abs(layer_sum - t["trace.wall_s"]) > 1e-6:
                print("FAILED layer self times do not add up to the traced wall time")
                correct = False
        print(f"spans in {spans.relative_to(ROOT)}")
    result = {"correct": correct, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    (work / "result.json").write_text(
        json.dumps({**result, "env_start": stamp_start, "env_end": stamp_end,
                    "speed_factor": factor, "seed": args.seed, "workload": wl.name},
                   indent=1) + "\n",
        encoding="utf-8")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())

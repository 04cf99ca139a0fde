import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from permfiber.cli import (CHECK_TOKENS, Collector, _atomic_write, _koszul_failure, _maps,
                           _run_checks, main)
from permfiber.complexes import ChainComplex, ChainMap, page_cell, unpaired_cells
from permfiber.fiber import FiberComplex
from permfiber.linalg import SparseMatrix
from permfiber.polytopes import SimplexComplex


def _with_complex(obj, c):
    """A PermComplex, SimplexComplex or FiberComplex like obj, with
    complex c in place of its own."""
    if isinstance(obj, FiberComplex):
        return FiberComplex(obj.graph, c, obj.images, obj.cells)
    return obj._replace(complex=c)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_perm_all_checks(capsys):
    code, out, _ = run_cli(capsys, "perm", "--n", "4", "--pages", "2",
                           "--checks", "all")
    assert code == 0
    assert "E1: (1,-1):4 (2,-1):6 (3,-1):4 (4,-1):1" in out
    assert "E2: (1,-1):1" in out
    assert out.rstrip().endswith("result: PASS")


def test_perm_reports_are_deterministic(capsys):
    _, first, _ = run_cli(capsys, "perm", "--n", "3")
    _, second, _ = run_cli(capsys, "perm", "--n", "3")
    assert first == second


def test_perm_out_of_cap(capsys):
    code, _, err = run_cli(capsys, "perm", "--n", "9")
    assert code == 2
    assert "cap" in err


def test_size_limits_are_not_read_from_the_environment(capsys, monkeypatch,
                                                      corpus_dir):
    # the limits are PERM_CAP, FIBER_CAP, the fiber budgets and suite's --cap,
    # no variable
    monkeypatch.setenv("PERMFIBER_CAP", "2")
    for argv in (("perm", "--n", "3", "--checks", "d2"),
                 ("simplex", "--n", "3"),
                 ("fiber", "--graph", str(corpus_dir / "path3.edges"), "--checks", "d2")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == "", argv
        assert out.endswith("result: PASS\n"), argv


def test_caps_above_the_ceiling(capsys, monkeypatch, tmp_path, corpus_dir):
    def refuse(*args, **kwargs):
        raise AssertionError("built a complex above the ceiling")

    monkeypatch.setattr("permfiber.cli.build_perm", refuse)
    monkeypatch.setattr("permfiber.cli.build_fiber", refuse)
    graph = str(corpus_dir / "path3.edges")
    path10 = tmp_path / "path10.edges"
    path10.write_text("".join(f"{v} {v + 1}\n" for v in range(10)))
    corpus = str(corpus_dir)
    cases = [
        (("perm", "--n", "20"), "--n must satisfy 1 <= n <= cap (8), got 20"),
        # fiber's ceiling is FIBER_CAP edges, and it has no --cap
        (("fiber", "--graph", str(path10)), "graph has 10 edges, above the cap 9"),
        (("fiber", "--graph", graph, "--cap", "9"), "unrecognized arguments: --cap 9"),
        (("fiber", "--graph", graph, "--cap", "-1"), "unrecognized arguments: --cap -1"),
        (("suite", "--corpus", corpus, "--cap", "10"), "--cap 10 is above the ceiling 8"),
        # and below 1: no cap admits a complex
        (("suite", "--corpus", corpus, "--cap", "0"), "--cap must be at least 1, got 0"),
    ]
    for argv, message in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err == f"error: {message}\n", argv


class _Built(Exception):
    pass


def test_maps_above_the_perm_ceiling(capsys, monkeypatch, tmp_path, corpus_dir):
    def refuse(*args, **kwargs):
        raise _Built

    monkeypatch.setattr("permfiber.cli.build_perm", refuse)
    monkeypatch.setattr("permfiber.cli.build_fiber", refuse)
    path9 = tmp_path / "path9.edges"
    path9.write_text("".join(f"{v} {v + 1}\n" for v in range(9)))
    for checks in ("maps", "all", "d2,maps"):
        code, out, err = run_cli(capsys, "fiber", "--graph", str(path9), "--checks", checks)
        assert code == 2 and out == "", checks
        assert err == "error: check maps builds P9, above the ceiling 8\n", checks
    code, out, err = run_cli(capsys, "suite", "--corpus", str(corpus_dir), "--cap", "9")
    assert code == 2 and out == ""
    assert err == "error: --cap 9 is above the ceiling 8\n"
    # without maps a 9-edge fiber is within its own ceiling, with no flag
    for checks in ("d2", "d2,koszul"):
        with pytest.raises(_Built):
            main(["fiber", "--graph", str(path9), "--checks", checks])


def test_fibers_past_the_budget_exit_2(capsys, monkeypatch, tmp_path):
    """The 9-edge star (P9, 7,087,261 trees) and K4 with three edges
    doubled are within FIBER_CAP but past the tree budget: the walk stops
    there, and fiber exits 2 with one line naming the bound.  The --out
    directories the run made are taken back, and one that was there
    before is left as it was.  Any other ValueError of build_fiber is not
    turned into exit 2."""
    import permfiber.cli as cli
    import permfiber.fiber as fiber
    graphs = {"star9": [(0, v) for v in range(1, 10)],
              "k4doubled": [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                            (0, 1), (0, 2), (0, 3)]}
    for name, edges in graphs.items():
        path = tmp_path / f"{name}.edges"
        path.write_text("".join(f"{u} {v}\n" for u, v in edges))
        code, out, err = run_cli(capsys, "fiber", "--graph", str(path), "--checks", "d2")
        assert (code, out) == (2, ""), name
        assert err == "error: fiber has more than the budget of 545835 trees\n", name
    # a budget of 100 trees refuses the star at once, after the --out checks
    monkeypatch.setattr(fiber, "TREE_BUDGET", 100)
    star9 = str(tmp_path / "star9.edges")
    refusal = (2, "", "error: fiber has more than the budget of 100 trees\n")
    (tmp_path / "kept").mkdir()
    assert run_cli(capsys, "fiber", "--graph", star9, "--checks", "d2",
                   "--out", str(tmp_path / "new" / "a" / "b")) == refusal
    assert run_cli(capsys, "fiber", "--graph", star9, "--checks", "d2",
                   "--out", str(tmp_path / "kept")) == refusal
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "k4doubled.edges", "kept", "star9.edges"]
    assert not any((tmp_path / "kept").iterdir())

    def other(graph):
        raise ValueError("some other fault")

    monkeypatch.setattr(cli, "build_fiber", other)
    with pytest.raises(ValueError, match="some other fault"):
        main(["fiber", "--graph", str(tmp_path / "star9.edges"), "--checks", "d2"])


def test_running_out_of_memory_exits_2(tmp_path):
    """perm --n 8 under an address-space limit, set on the child alone,
    exits 2 with one line naming the command and its size, prints
    nothing on stdout, and takes back the --out directories it made.
    The limit is the interpreter's own start-up size, its peak address
    space probed in a child, plus 230 MB: P8 needs about 330 MB more.
    (A child's ru_maxrss would count the RSS of the forked test process.)"""
    resource = pytest.importorskip("resource")
    status = Path("/proc/self/status")
    if not status.exists():
        pytest.skip("no /proc/self/status to probe the start-up size")
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                     env.get("PYTHONPATH")]))
    probe = ("import re, permfiber.cli; print(re.search(r'VmPeak:\\s+(\\d+) kB', "
             f"open({str(status)!r}).read())[1])")
    started = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                             text=True, env=env, timeout=120, check=True)
    limit = int(started.stdout) * 1024 + (230 << 20)

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    out = tmp_path / "new" / "a"
    done = subprocess.run([sys.executable, "-m", "permfiber", "perm", "--n", "8",
                           "--out", str(out)], capture_output=True, text=True,
                          env=env, timeout=300, preexec_fn=cap)
    assert (done.returncode, done.stdout) == (2, ""), done.stderr
    assert done.stderr == "error: out of memory in perm --n 8\n"
    assert not any(tmp_path.iterdir())


def test_memory_errors_exit_2_and_other_faults_keep_their_traceback(
        capsys, monkeypatch, tmp_path, corpus_dir):
    """A MemoryError, or the SystemError that CPython 3.11 raises when it
    loses one, exits 2 with one line for every command, taking back the
    --out directories the run made and leaving one that was there
    before; any other exception, another SystemError included, is raised."""
    import permfiber.cli as cli
    theta = str(corpus_dir / "theta.edges")
    runs = {"perm --n 8": ("perm", "--n", "8"), "simplex --n 3": ("simplex", "--n", "3"),
            f"fiber --graph {theta}": ("fiber", "--graph", theta),
            f"suite --corpus {corpus_dir}": ("suite", "--corpus", str(corpus_dir))}
    (tmp_path / "kept").mkdir()
    for fault in (MemoryError(), SystemError("error return without exception set")):
        def fail(n, fault=fault):
            raise fault
        for name in ("build_perm", "build_simplex", "build_fiber"):
            monkeypatch.setattr(cli, name, fail)
        for what, argv in runs.items():
            for out in (tmp_path / "new" / "a", tmp_path / "kept"):
                assert run_cli(capsys, *argv, "--out", str(out)) \
                    == (2, "", f"error: out of memory in {what}\n"), (fault, what)
                assert sorted(p.name for p in tmp_path.iterdir()) == ["kept"]
    for fault in (RuntimeError("a bug"), SystemError("another fault")):
        def fail(n, fault=fault):
            raise fault
        monkeypatch.setattr(cli, "build_perm", fail)
        with pytest.raises(type(fault), match=str(fault)):
            main(["perm", "--n", "3"])


def test_size_refusals_come_before_any_line_graph(capsys, monkeypatch, tmp_path,
                                                  corpus_dir):
    """A graph above the cap is refused before its line graph is formed:
    fiber still exits 2 at once, and suite still reports it too large."""
    from permfiber.fiber import MultiGraph
    path10 = tmp_path / "path10.edges"
    path10.write_text("".join(f"{v} {v + 1}\n" for v in range(10)))
    runs = [("fiber", "--graph", str(path10)),
            ("fiber", "--graph", str(path10), "--checks", "d2"),
            ("suite", "--corpus", str(corpus_dir), "--cap", "3")]
    before = [run_cli(capsys, *argv) for argv in runs]
    line_graph = MultiGraph.line_graph

    def refuse(g):
        if g.n > 3:
            raise AssertionError(f"formed the line graph of a {g.n}-edge graph")
        return line_graph(g)

    monkeypatch.setattr(MultiGraph, "line_graph", refuse)
    assert [run_cli(capsys, *argv) for argv in runs] == before
    assert [(code, err) for code, _, err in before] == [
        (2, "error: graph has 10 edges, above the cap 9\n"),
        (2, "error: graph has 10 edges, above the cap 9\n"),
        (1, "")]
    assert "check load: FAIL (graph has 4 edges, above the cap 3)" in before[2][1]


def test_pages_above_n_plus_one(capsys, monkeypatch, corpus_dir):
    import permfiber.cli as cli
    build_perm = cli.build_perm

    def refuse(*args, **kwargs):
        raise _Built

    monkeypatch.setattr(cli, "build_perm", refuse)
    monkeypatch.setattr(cli, "build_fiber", refuse)
    cases = [
        (("perm", "--n", "3", "--pages", "2000000"),
         "--pages must be at most n+1 (4), got 2000000"),
        (("perm", "--n", "1", "--pages", "3"), "--pages must be at most n+1 (2), got 3"),
        (("fiber", "--graph", str(corpus_dir / "path3.edges"), "--pages", "5"),
         "--pages must be at most n+1 (4), got 5"),
        # -1 omits the pages; nothing below it means anything
        (("perm", "--n", "3", "--pages", "-3"), "--pages must be at least -1, got -3"),
        (("fiber", "--graph", str(corpus_dir / "path3.edges"), "--pages", "-2"),
         "--pages must be at least -1, got -2"),
    ]
    for argv, message in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err == f"error: {message}\n", argv
    # page n+1 is still reported, and it is the stable page
    monkeypatch.setattr(cli, "build_perm", build_perm)
    code, out, _ = run_cli(capsys, "perm", "--n", "3", "--pages", "4", "--checks", "d2")
    assert code == 0
    pages = {line[:2]: line[4:] for line in out.splitlines() if line.startswith("E")}
    assert pages["E4"] == pages["E3"] == pages["E2"]


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "permfiber", "perm", "--n", "2"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "result: PASS"


def test_reports_do_not_depend_on_the_hash_seed(tmp_path):
    """Runs stay deterministic across processes: suite over the corpus,
    fiber with every check, and perm and fiber exporting with --out
    print the same bytes, exit with the same codes and write the same
    files, byte for byte, under two PYTHONHASHSEED values."""
    root = Path(__file__).resolve().parent.parent
    runs, exports = {}, {}
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                         env.get("PYTHONPATH")]))
        out = tmp_path / seed
        runs[seed] = [subprocess.run([sys.executable, "-m", "permfiber", *argv],
                                     capture_output=True, env=env, cwd=root, timeout=300)
                      for argv in (("suite", "--corpus", "corpus"),
                                   ("fiber", "--graph", "corpus/theta.edges",
                                    "--checks", "all", "--pages", "3"),
                                   ("perm", "--n", "5", "--checks", "all", "--pages", "2",
                                    "--out", str(out / "perm")),
                                   ("fiber", "--graph", "corpus/theta.edges", "--checks",
                                    "all", "--pages", "3", "--out", str(out / "fiber")))]
        exports[seed] = {path.relative_to(out): path.read_bytes()
                         for path in sorted(out.rglob("*")) if path.is_file()}
    for first, second in zip(runs["0"], runs["1"], strict=True):
        assert first.returncode == second.returncode == 0
        assert first.stdout.endswith(b"result: PASS\n")
        assert first.stdout == second.stdout
    assert {path.parts[0] for path in exports["0"]} == {"perm", "fiber"}
    assert exports["0"] == exports["1"]


def test_unknown_check_token(capsys):
    code, _, err = run_cli(capsys, "perm", "--n", "2", "--checks", "nonsense")
    assert code == 2
    assert "unknown check" in err


def test_simplex_command(capsys):
    code, out, _ = run_cli(capsys, "simplex", "--n", "4")
    assert code == 0
    assert "check homology: pass" in out


def test_perm_koszul_and_maps_lines_are_pinned(capsys):
    # the benchmark hashes these bytes; a drift should fail here first
    koszul = "check koszul: pass (E1 binomial row at q=-1, E2 single class at p=1)"
    maps = {
        1: "check maps: pass (blow-down [sign convention: unit], "
           "surjective=true, cone acyclic=true)",
        2: "check maps: pass (blow-down [sign convention: ordering_parity], "
           "surjective=true, cone acyclic=true)",
        3: "check maps: pass (blow-down [sign convention: ordering_parity], "
           "surjective=true, cone acyclic=true)",
    }
    for n, maps_line in maps.items():
        code, out, _ = run_cli(capsys, "perm", "--n", str(n), "--checks", "all")
        assert code == 0
        lines = out.splitlines()
        assert [line for line in lines if line.startswith("check koszul")] == [koszul]
        assert [line for line in lines if line.startswith("check maps")] == [maps_line]


def test_simplex_out_of_cap(capsys):
    for n in ("30", "9", "0"):
        code, out, err = run_cli(capsys, "simplex", "--n", n)
        assert code == 2 and out == ""
        assert err == f"error: --n must satisfy 1 <= n <= cap (8), got {n}\n"


def test_bad_arguments_are_one_error_line(capsys, corpus_dir):
    # argparse's refusals leave through main's one handler, as the others do
    for argv in (("perm", "--n", "abc"),
                 ("perm", "--n", "3", "--cap", "3"),
                 ("suite", "--corpus", str(corpus_dir), "--cap", "x"),
                 ("fiber",),
                 ("nonsense",),
                 ()):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert len(err.splitlines()) == 1 and err.startswith("error: "), argv
    code, out, err = run_cli(capsys, "perm", "--n", "3", "--cap", "3")
    assert err == "error: unrecognized arguments: --cap 3\n"
    code, out, err = run_cli(capsys, "perm", "--n", "3", "--checks", " , ")
    assert code == 2 and out == "" and err == "error: empty --checks\n"
    with pytest.raises(SystemExit) as done:
        main(["perm", "-h"])
    assert done.value.code == 0
    assert "--n N" in capsys.readouterr().out


def test_out_naming_an_existing_file(capsys, tmp_path, monkeypatch):
    taken = tmp_path / "taken"
    taken.write_text("")
    code, out, err = run_cli(capsys, "simplex", "--n", "2", "--out", str(taken))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write --out")
    assert len(err.splitlines()) == 1
    # refused before anything is built, not after the battery has run
    built = []
    monkeypatch.setattr("permfiber.cli.build_perm",
                        lambda *args, **kwargs: built.append(args))
    code, out, err = run_cli(capsys, "perm", "--n", "5", "--checks", "all",
                             "--out", str(taken))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write --out")
    assert built == []


def test_exports_honour_the_umask(capsys, tmp_path):
    for umask in (0o022, 0o077, 0o002):
        out_dir = tmp_path / oct(umask)
        out_dir.mkdir()
        old = os.umask(umask)
        try:
            code, _, _ = run_cli(capsys, "simplex", "--n", "3", "--out", str(out_dir))
            with open(out_dir / "made-by-open", "w"):
                pass
        finally:
            os.umask(old)
        assert code == 0
        want = (out_dir / "made-by-open").stat().st_mode
        for name in ("D2.json", "checks.csv", "dims.csv"):
            assert (out_dir / name).stat().st_mode == want, (oct(umask), name)


def test_exports_leave_the_umask_alone(capsys, tmp_path, monkeypatch):
    """An export takes its mode from open(), so no run reads or sets the
    process umask, and the files are the same with os.umask refusing."""
    code, _, _ = run_cli(capsys, "perm", "--n", "3", "--out", str(tmp_path / "free"))
    assert code == 0

    def refuse(*args):
        raise AssertionError("os.umask called")

    monkeypatch.setattr(os, "umask", refuse)
    code, _, _ = run_cli(capsys, "perm", "--n", "3", "--out", str(tmp_path / "refused"))
    assert code == 0
    free = sorted((tmp_path / "free").iterdir())
    refused = sorted((tmp_path / "refused").iterdir())
    assert [p.name for p in free] == [p.name for p in refused] == [
        "P3.json", "checks.csv", "dims.csv", "pages.csv"]
    assert [p.read_bytes() for p in free] == [p.read_bytes() for p in refused]


def test_export_onto_a_directory_leaves_no_temporary_file(capsys, tmp_path):
    out_dir = tmp_path / "out"
    (out_dir / "dims.csv").mkdir(parents=True)
    code, out, err = run_cli(capsys, "perm", "--n", "3", "--out", str(out_dir))
    assert code == 2 and out == ""
    assert err == f"error: cannot write --out {out_dir}: Is a directory\n"
    assert [p.name for p in out_dir.iterdir()] == ["dims.csv"]
    assert list((out_dir / "dims.csv").iterdir()) == []


def test_a_failing_writer_leaves_no_temporary_file_and_the_target_unchanged(
        capsys, tmp_path, monkeypatch):
    """A writer that raises after its first piece leaves an existing
    target byte for byte as it was, and no temporary file: called
    directly, and through --out, where a full disk exits 2."""
    target = tmp_path / "P3.json"
    old = "old export \u00e9\n".encode()
    target.write_bytes(old)

    def failing(error):
        def pieces(*args):
            yield "{\n"
            raise error
        return pieces

    with pytest.raises(RuntimeError, match="writer failed"):
        _atomic_write([(target, failing(RuntimeError("writer failed"))())])
    assert [p.name for p in tmp_path.iterdir()] == ["P3.json"]
    assert target.read_bytes() == old

    monkeypatch.setattr("permfiber.cli.complex_json_pieces",
                        failing(OSError(28, "No space left on device")))
    code, out, err = run_cli(capsys, "perm", "--n", "3", "--out", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write --out {tmp_path}: No space left on device\n"
    assert [p.name for p in tmp_path.iterdir()] == ["P3.json"]
    assert target.read_bytes() == old


def test_a_refused_export_leaves_out_as_it_found_it(capsys, tmp_path, monkeypatch):
    """A writer that runs out of memory after the first JSON piece, or
    finds the disk full, exits 2 with one error line and nothing on
    stdout: no export is moved in until all are written, so a new nested
    --out is taken back whole, and one that was there keeps its bytes
    and gains no temporary file.  So does a target that is a directory,
    though the exports before it could be moved."""
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "P3.json").write_text("old export\n")
    (kept / "dims.csv").write_text("old dims\n")
    before = {p.name: p.read_bytes() for p in kept.iterdir()}
    for error, message in ((MemoryError(), "out of memory in perm --n 3"),
                           (OSError(28, "No space left on device"),
                            "cannot write --out {}: No space left on device")):
        def pieces(c, error=error):
            yield "{\n"
            raise error
        monkeypatch.setattr("permfiber.cli.complex_json_pieces", pieces)
        for out in (tmp_path / "new" / "a" / "b", kept):
            assert run_cli(capsys, "perm", "--n", "3", "--out", str(out)) \
                == (2, "", f"error: {message.format(out)}\n"), (error, out)
            assert [p.name for p in tmp_path.iterdir()] == ["kept"], (error, out)
            assert {p.name: p.read_bytes() for p in kept.iterdir()} == before, (error, out)
    monkeypatch.undo()
    (kept / "pages.csv").mkdir()
    assert run_cli(capsys, "perm", "--n", "3", "--out", str(kept)) \
        == (2, "", f"error: cannot write --out {kept}: Is a directory\n")
    assert sorted(p.name for p in kept.iterdir()) == ["P3.json", "dims.csv", "pages.csv"]
    assert {p.name: p.read_bytes() for p in kept.iterdir() if p.is_file()} == before


def test_importing_the_cli_loads_no_dataclasses():
    """The value records are named tuples and plain classes, so start-up
    leaves out ``dataclasses`` and its class builder."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    probe = ("import sys\n"
             "before = set(sys.modules)\n"
             "import permfiber.cli\n"
             "loaded = set(sys.modules) - before\n"
             "assert 'permfiber.cli' in loaded, sorted(loaded)\n"
             "print('dataclasses' in loaded)\n")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          cwd=src, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_fiber_graph_is_a_directory(capsys, tmp_path):
    code, _, err = run_cli(capsys, "fiber", "--graph", str(tmp_path))
    assert code == 2
    assert err.startswith("error: cannot read graph file")


def test_fiber_graph_unreadable(capsys, tmp_path, monkeypatch):
    # chmod cannot lock a file against root, so a stub refuses the read
    graph = tmp_path / "locked.edges"
    graph.write_text("0 1\n")

    def refuse(path):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr("permfiber.cli.load_graph", refuse)
    code, _, err = run_cli(capsys, "fiber", "--graph", str(graph))
    assert code == 2
    assert err.startswith("error: cannot read graph file") and "Permission denied" in err


def _flip_one_sign(c: ChainComplex, degree: int, key=None) -> ChainComplex:
    """c with one entry of d_degree negated: ``key``, else the least."""
    d = c.d(degree)
    entries = dict(d.items())
    key = min(entries) if key is None else key
    entries[key] = -entries[key]
    diffs = dict(c.differentials)
    diffs[degree] = SparseMatrix.from_entries(d.rows, d.cols, entries)
    return ChainComplex.build(c.basis, diffs, c.levels)


def test_battery_reports_a_flipped_sign(perms, simplexes, corpus_fibers):
    perm = perms[3]
    fib = corpus_fibers["path3"]
    # the flipped P3 builds its own maps; the fiber maps from the intact P3
    cases = [
        ("P3", perm._replace(complex=_flip_one_sign(perm.complex, 1)),
         CHECK_TOKENS, 2, 2, None),
        ("path3", _with_complex(fib, _flip_one_sign(fib.complex, -2)),
         CHECK_TOKENS, -1, -1, _maps(perm)),
        ("D2", simplexes[3]._replace(complex=_flip_one_sign(simplexes[3].complex, 1)),
         ("d2", "homology"), 2, -1, None),
    ]
    for name, obj, checks, degree, pages, maps in cases:
        col = Collector()
        _run_checks(col, name, obj, checks, pages, maps=maps)
        assert col.failed, name
        assert f"check d2: FAIL (fails at degree {degree})" in col.lines, name
        assert "check homology: FAIL (skipped: d2 failed)" in col.lines, name
        assert all(f"{name},{check},false" in col.checks_rows for check in checks), name
        assert ("pages: skipped (d2 failed)" in col.lines) == (pages >= 0), name
        assert not any(line.startswith("E") for line in col.lines), name
        assert not col.pages_rows, name


def test_maps_check_of_a_complex_that_fails_d2(perms, corpus_fibers):
    """A commuting map joining a complex that fails d^2 gets no class
    test, since homology needs d^2 = 0: its maps line says so instead of
    raising, and every single-entry flip of P3 runs the battery."""
    perm = perms[3]
    flipped = perm._replace(complex=_flip_one_sign(perm.complex, 2, (0, 0)))
    col = Collector()
    _run_checks(col, "P3", flipped, ("maps",))
    assert col.lines[-1] == ("check maps: FAIL (blow-down [sign convention: "
                             "ordering_parity], surjective=true, cone acyclic=false; "
                             "skipped: d2 failed)")
    for r, d in sorted(perm.complex.differentials.items()):
        for key, _ in d.items():
            col = Collector()
            _run_checks(col, "P3", perm._replace(
                complex=_flip_one_sign(perm.complex, r, key)), CHECK_TOKENS, 2)
            assert col.failed, (r, key)
    # a fiber whose P_3 fails d^2 while both of its maps commute
    broken = perm._replace(complex=_flip_one_sign(perm.complex, 2, (1, 0)))
    col = Collector()
    _run_checks(col, "path3", corpus_fibers["path3"], ("maps",), maps=_maps(broken))
    assert col.lines[-1] == ("check maps: FAIL (chain maps=true, cones acyclic=false, "
                             "factorization=true, well-defined=true; skipped: d2 failed)")


def test_homology_failure_names_degree_and_cell(monkeypatch, perms):
    """P3 without d_1 is still a complex, with H_0 = 6 and H_1 = 5; the
    FAIL line names a degree-0 cell that carries a class, read off the
    cached pairs of the one reduction the homology check runs."""
    import permfiber.complexes as complexes
    reductions = []
    real = complexes._reduce
    monkeypatch.setattr(complexes, "_reduce",
                        lambda *a, **k: reductions.append(a) or real(*a, **k))
    c = perms[3].complex
    cut = ChainComplex.build(
        c.basis, {r: m for r, m in c.differentials.items() if r != 1}, c.levels)
    col = Collector()
    _run_checks(col, "P3", perms[3]._replace(complex=cut), ("d2", "homology"))
    assert "check d2: pass" in col.lines
    [line] = [line for line in col.lines if line.startswith("check homology")]
    prefix = "check homology: FAIL (H_0=6 H_1=5; unexpected class at degree 0, cell "
    assert line.startswith(prefix) and line.endswith(")")
    assert line[len(prefix):-1] in c.labels(0)
    assert len(reductions) == 1
    # no class anywhere: the line names the degree that lacks one
    acyclic = ChainComplex.build({0: ("a",), 1: ("b",)},
                                 {1: SparseMatrix.from_entries(1, 1, {(0, 0): 1})})
    col = Collector()
    _run_checks(col, "C", SimplexComplex(2, acyclic, {}), ("homology",))
    assert col.lines[-1] == "check homology: FAIL (zero; no class at degree 0)"


def test_maps_failure_names_degree_and_cell(capsys, monkeypatch, perms, corpus_fibers):
    import permfiber.polytopes as polytopes
    unit = polytopes.blowdown_coefficient
    monkeypatch.setattr(polytopes, "blowdown_coefficient",
                        lambda alpha: -unit(alpha) if len(alpha) == 3
                        else unit(alpha))
    code, out, _ = run_cli(capsys, "perm", "--n", "4", "--checks", "maps")
    assert code == 1
    [line] = [line for line in out.splitlines() if line.startswith("check maps")]
    assert line.startswith("check maps: FAIL (blow-down [sign convention: "
                           "ordering_parity], surjective=true, cone acyclic=false; ")
    assert line.endswith("; blow-down does not commute at degree 1, cell 1>2>34)")

    fib = corpus_fibers["path3"]
    flipped = _with_complex(fib, _flip_one_sign(fib.complex, -2))
    col = Collector()
    _run_checks(col, "path3", flipped, ("maps",), maps=_maps(perms[3]))
    [line] = [line for line in col.lines if line.startswith("check maps")]
    assert "; fiber->simplex does not commute at degree -2, cell ({12} ({3}))" in line
    assert line.endswith("; not well defined at tree ({12} ({3})))")


def test_maps_failure_names_the_lost_class(capsys, monkeypatch, perms):
    """With no cell in the blow-down's support the map is zero: it
    commutes, misses the first vertex of the simplex and sends the class
    of the first unpaired vertex of P3 to a boundary, which the FAIL
    line names."""
    import permfiber.polytopes as polytopes
    from permfiber.complexes import unpaired_cells
    monkeypatch.setattr(polytopes, "blowdown_table", lambda *args: {})
    code, out, _ = run_cli(capsys, "perm", "--n", "3", "--checks", "maps")
    assert code == 1
    [line] = [line for line in out.splitlines() if line.startswith("check maps")]
    v = unpaired_cells(perms[3].complex, 0)[0]
    assert line == ("check maps: FAIL (blow-down [sign convention: ordering_parity], "
                    "surjective=false, cone acyclic=false; blow-down is not onto at "
                    "degree 0, cell 1; blow-down sends the class "
                    f"of cell {v} at degree 0 to a boundary)")


# The FAIL lines of eight broken inputs, byte for byte: each names its
# witness, a degree with a cell or a tree, or a page cell.
PINNED_FAILING_LINES = {
    "P3 without d_1": [
        "check homology: FAIL (H_0=6 H_1=5; unexpected class at degree 0, cell 1>2>3)",
    ],
    # the first unpaired cell of the (level, index)-ordered reduction
    "path3 without d_-1": [
        "check homology: FAIL (H_-3=1 H_-2=1 H_-1=1; unexpected class at degree -2, "
        "cell ({23} ({1})))",
    ],
    "P3 with a zero blow-down": [
        "check maps: FAIL (blow-down [sign convention: ordering_parity], "
        "surjective=false, cone acyclic=false; blow-down is not onto at degree 0, "
        "cell 1; blow-down sends the class of cell 1>2>3 at degree 0 to a boundary)",
    ],
    "P4 with the blow-down flipped on three blocks": [
        "check maps: FAIL (blow-down [sign convention: ordering_parity], "
        "surjective=true, cone acyclic=false; blow-down does not commute at "
        "degree 1, cell 1>2>34)",
    ],
    "path3 with one sign of d_-2 flipped": [
        "check maps: FAIL (chain maps=false, cones acyclic=false, "
        "factorization=false, well-defined=false; perm->fiber does not commute "
        "at degree 1, cell 3>12; fiber->simplex does not commute at degree -2, "
        "cell ({12} ({3})); not well defined at tree ({12} ({3})))",
    ],
    # the negated map commutes, is surjective and keeps the class
    "path3 with fiber->simplex negated": [
        "check maps: FAIL (chain maps=true, cones acyclic=true, factorization=false, "
        "well-defined=true; blow-down does not factor through the fiber at degree 0, "
        "cell 1>2>3)",
    ],
    # d2 and homology pass; E1 keeps one class, at width 1
    "P3 with every level set to 1": [
        "check koszul: FAIL (E1 binomial row at q=-1, E2 single class at p=1; "
        "E1 has dim 1 at (1, -1), expected 3, cell 1>3>2 cancels before E1)",
    ],
    "P3 with one sign of d_1 flipped": [
        "check koszul: FAIL (E1 binomial row at q=-1, E2 single class at p=1; "
        "skipped: d2 failed)",
    ],
    # d2 fails, so no homology is computed
    "path3 with one sign of d_-2 flipped, koszul": [
        "check koszul: FAIL (homology skipped; pages indexed by (p, q) = "
        "(width, degree - width); the binomial row sits at q = -n-1; "
        "skipped: d2 failed)",
    ],
    "path3 without d_-1, koszul": [
        "check koszul: FAIL (homology H_-3=1 H_-2=1 H_-1=1; pages indexed by (p, q) = "
        "(width, degree - width); the binomial row sits at q = -n-1; "
        "no single class at degree -3)",
    ],
}


def _scaled(f: ChainMap, k: int, degrees=None) -> ChainMap:
    """f with every entry in ``degrees`` (default: all) multiplied by k,
    a nonzero int."""
    return ChainMap.build(f.source, f.target, f.shift, {
        r: m if degrees is not None and r not in degrees else SparseMatrix(
            m.rows, tuple({i: k * v for i, v in col.items()} for col in m.columns))
        for r, m in f.matrices.items()}, f.note)


def test_failing_lines_are_pinned(monkeypatch, perms, corpus_fibers):
    import permfiber.cli as cli
    import permfiber.polytopes as polytopes

    def failing(name, obj, checks, maps=None):
        col = Collector()
        _run_checks(col, name, obj, checks, maps=maps)
        return [line for line in col.lines if "FAIL" in line]

    def cut(obj, degree):
        c = obj.complex
        return _with_complex(obj, ChainComplex.build(
            c.basis, {r: m for r, m in c.differentials.items() if r != degree}, c.levels))

    fib, c3 = corpus_fibers["path3"], perms[3].complex
    got = {
        "P3 without d_1": failing("P3", cut(perms[3], 1), ("d2", "homology")),
        "path3 without d_-1": failing("path3", cut(fib, -1), ("d2", "homology")),
        "path3 with one sign of d_-2 flipped": failing(
            "path3", _with_complex(fib, _flip_one_sign(fib.complex, -2)),
            ("maps",), _maps(perms[3])),
        "P3 with every level set to 1": failing("P3", _with_complex(perms[3], ChainComplex(
            c3.basis, c3.differentials, {r: (1,) * c3.dim(r) for r in c3.degrees()})),
            ("d2", "homology", "koszul")),
        "P3 with one sign of d_1 flipped": failing(
            "P3", _with_complex(perms[3], _flip_one_sign(c3, 1)), ("koszul",)),
        "path3 with one sign of d_-2 flipped, koszul": failing(
            "path3", _with_complex(fib, _flip_one_sign(fib.complex, -2)), ("koszul",)),
        "path3 without d_-1, koszul": failing("path3", cut(fib, -1), ("koszul",)),
    }
    # P_n without maps builds its own blow-down, through the patched module
    with monkeypatch.context() as patch:
        patch.setattr(polytopes, "blowdown_table", lambda *args: {})
        got["P3 with a zero blow-down"] = failing("P3", perms[3], ("maps",))
    to_simplex = cli.fiber_to_simplex
    with monkeypatch.context() as patch:
        patch.setattr(cli, "fiber_to_simplex", lambda fib, simplex:
                      _scaled(to_simplex(fib, simplex), -1))
        got["path3 with fiber->simplex negated"] = failing(
            "path3", fib, ("maps",), _maps(perms[3]))
    unit = polytopes.blowdown_coefficient
    with monkeypatch.context() as patch:
        patch.setattr(polytopes, "blowdown_coefficient", lambda alpha:
                      -unit(alpha) if len(alpha) == 3 else unit(alpha))
        got["P4 with the blow-down flipped on three blocks"] = failing(
            "P4", perms[4], ("maps",))
    assert got == PINNED_FAILING_LINES


def test_a_failing_page_names_a_cell_at_its_page_cell(perms):
    """Too many dimensions at a page cell name its first cell that
    survives to the page; too few, its first cell whose pair cancels
    before it; no cell at all, none.  Levels one above the degree make
    every pair span 1, so all six vertices of P3 survive to E1; levels
    all 1 make every pair span 0, so only the unpaired class survives."""
    c3 = perms[3].complex
    head = "check koszul: FAIL (E1 binomial row at q=-1, E2 single class at p=1; "
    raised = ChainComplex(c3.basis, c3.differentials,
                          {r: (r + 1,) * c3.dim(r) for r in c3.degrees()})
    col = Collector()
    _run_checks(col, "P3", _with_complex(perms[3], raised), ("koszul",))
    assert col.lines[-1] == head + (f"E1 has dim 6 at (1, -1), expected 3, "
                                    f"cell {c3.labels(0)[0]} survives to E1)")
    flat = ChainComplex(c3.basis, c3.differentials, {r: (1,) * c3.dim(r) for r in c3.degrees()})
    assert page_cell(flat, 1, 1, -1, survives=False) == "1>3>2"
    assert page_cell(flat, 1, 1, -1, survives=True) == unpaired_cells(flat, 0)[0] != "1>3>2"
    assert page_cell(flat, 1, 5, -1, survives=False) is None
    assert _koszul_failure(flat, (1, (5, -1), 0, 3)) == "; E1 has dim 0 at (5, -1), expected 3"


def test_class_test_runs_on_each_commuting_map_whose_ends_pass_d2(
        monkeypatch, perms, corpus_fibers):
    """One gate for every map: the class test runs iff the map commutes
    and d^2 holds at its own two ends, whatever the other map does.  A
    zero fiber->simplex commutes but is not surjective, missing the
    first vertex; it is tested and loses the class, and perm->fiber is
    tested beside it.  A
    fiber->simplex that does not commute is not tested; perm->fiber is."""
    import permfiber.cli as cli
    tested = []
    real_qi, to_simplex = cli.quasi_isomorphism_report, cli.fiber_to_simplex
    monkeypatch.setattr(cli, "quasi_isomorphism_report",
                        lambda f: tested.append(f.note) or real_qi(f))
    fib = corpus_fibers["path3"]

    def zero_to_simplex(fib, simplex):
        f = to_simplex(fib, simplex)
        return ChainMap(f.source, f.target, f.shift, {}, f.note)

    monkeypatch.setattr(cli, "fiber_to_simplex", zero_to_simplex)
    col = Collector()
    _run_checks(col, "path3", fib, ("maps",), maps=_maps(perms[3]))
    assert tested == ["alpha -> t_alpha", "root block of singleton-fringe trees"]
    assert col.lines[-1] == (
        "check maps: FAIL (chain maps=false, cones acyclic=false, "
        "factorization=false, well-defined=true; fiber->simplex is not onto at "
        "degree 0, cell 1; fiber->simplex sends the "
        "class of cell ({1} ({2} ({3}))) at degree -3 to a boundary)")
    tested.clear()
    monkeypatch.setattr(cli, "fiber_to_simplex", lambda fib, simplex:
                        _scaled(to_simplex(fib, simplex), -1, degrees=(-3,)))
    col = Collector()
    _run_checks(col, "path3", fib, ("maps",), maps=_maps(perms[3]))
    assert tested == ["alpha -> t_alpha"]
    assert col.lines[-1] == (
        "check maps: FAIL (chain maps=false, cones acyclic=false, "
        "factorization=false, well-defined=true; fiber->simplex does not "
        "commute at degree -2, cell ({12} ({3})))")


def test_passing_battery_reduces_each_complex_once(monkeypatch, corpus_graphs):
    """d2, homology, pages, koszul and maps on P4 and on the cycle4 fiber
    read one reduction of each complex they touch: P4, the simplex D3
    and the fiber."""
    import permfiber.complexes as complexes
    from permfiber.fiber import build_fiber
    from permfiber.polytopes import build_perm
    reduced = []
    real = complexes._reduce
    monkeypatch.setattr(complexes, "_reduce", lambda c, *a, **k:
                        reduced.append(c) or real(c, *a, **k))
    maps = _maps(build_perm(4))
    fib = build_fiber(corpus_graphs["cycle4"])
    for name, obj in (("P4", maps.perm), ("cycle4", fib)):
        col = Collector()
        _run_checks(col, name, obj, CHECK_TOKENS, 2, maps)
        assert not col.failed and any(line.startswith("E2: ") for line in col.lines), name
    touched = (maps.perm.complex, maps.simplex.complex, fib.complex)
    assert sorted(map(id, reduced)) == sorted(map(id, touched))


def test_passing_suite_builds_no_cone_and_no_second_pushforward(
        capsys, monkeypatch, corpus_dir):
    """On a passing run the cone verdicts come from one homology class
    and well-definedness from the perm->fiber commuting check."""
    import permfiber.cli as cli
    import permfiber.complexes as complexes
    calls = []
    for module, name in ((complexes, "mapping_cone"),
                         (cli, "push_forward_well_defined")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, real=real, name=name:
                            calls.append(name) or real(*a))
    code, out, _ = run_cli(capsys, "suite", "--corpus", str(corpus_dir))
    assert code == 0 and out.count("check maps: pass") == 20
    assert calls == []


def test_suite_builds_one_simplex_and_one_blowdown_per_n(capsys, monkeypatch,
                                                         corpus_dir):
    """Every fiber with n edges and the P_n battery share one simplex on n
    vertices and one blow-down of P_n, so each is built once per n."""
    import permfiber.cli as cli
    simplexes, blowdowns = [], []
    build_simplex, perm_to_simplex = cli.build_simplex, cli.perm_to_simplex
    monkeypatch.setattr(cli, "build_simplex",
                        lambda n: simplexes.append(n) or build_simplex(n))
    monkeypatch.setattr(cli, "perm_to_simplex", lambda perm, simplex:
                        blowdowns.append(perm.n) or perm_to_simplex(perm, simplex))
    code, out, _ = run_cli(capsys, "suite", "--corpus", str(corpus_dir))
    assert code == 0 and out.count("check maps: pass") == 20
    assert sorted(simplexes) == sorted(blowdowns) == [1, 2, 3, 4, 5, 6]


def test_suite_checks_each_line_graph_once(capsys, monkeypatch, corpus_dir):
    """The 14 shipped graphs have 11 line graphs (the triangle, the 3-star
    and the theta graph share one, as do the 2-path and the 2-star), so
    the suite builds and checks 11 fibers."""
    import permfiber.cli as cli
    build_fiber, built = cli.build_fiber, []
    monkeypatch.setattr(cli, "build_fiber", lambda g: built.append(g.n) or build_fiber(g))
    code, out, _ = run_cli(capsys, "suite", "--corpus", str(corpus_dir))
    assert code == 0 and out.count("check dims-manifest: pass") == 14
    assert sorted(built) == [1, 2, 3, 3, 4, 4, 4, 4, 5, 5, 5]


def test_suite_replays_one_battery_under_each_name(capsys, tmp_path, corpus_dir):
    """star3 and cycle3 share a line graph, so one battery serves both,
    in the report and in the CSVs; dims-manifest still reads each graph's
    own manifest entry."""
    corpus = small_corpus(tmp_path, corpus_dir, names=("cycle3", "star3"))
    manifest = json.loads((corpus / "manifest.json").read_text())
    manifest["cycle3"]["dims"]["-2"] = 7
    (corpus / "manifest.json").write_text(json.dumps(manifest))
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(capsys, "suite", "--corpus", str(corpus), "--cap", "3",
                           "--out", str(out_dir))
    assert code == 1
    lines = out.splitlines()
    at = [lines.index(f"object: {name}") for name in ("cycle3", "star3", "P1")]
    cycle3, star3 = lines[at[0] + 1:at[1]], lines[at[1] + 1:at[2]]
    assert cycle3[-1] == "check dims-manifest: FAIL (degree -2: got 6, manifest 7)"
    assert star3[-1] == "check dims-manifest: pass"
    assert cycle3[:-1] == star3[:-1] and len(star3) == 2 + len(CHECK_TOKENS)
    assert [line for line in lines if "FAIL" in line] == [cycle3[-1], "result: FAIL"]
    rows: dict = {}
    for table in ("dims", "checks"):
        for row in (out_dir / f"{table}.csv").read_text().splitlines()[1:]:
            name, rest = row.split(",", 1)
            rows.setdefault((table, name), []).append(rest)
    assert rows["dims", "cycle3"] == rows["dims", "star3"] == ["-3,6", "-2,6", "-1,1"]
    assert rows["checks", "cycle3"][:-1] == rows["checks", "star3"][:-1]
    assert rows["checks", "cycle3"][-1] == "dims-manifest,false"
    assert rows["checks", "star3"][-1] == "dims-manifest,true"


def test_fiber_verdicts_are_invariant_under_relabelling(corpus_graphs, perms):
    """Renaming the vertices, reversing edges and reordering the edge
    list (a seeded shuffle per graph) changes edge ids, so labels and
    basis orders, but not the fiber: its dims, its pages E^0 to E^2 and
    every verdict of the battery, maps included, stay the same."""
    import random
    from permfiber.fiber import MultiGraph, build_fiber
    moved = 0   # graphs whose fiber changes its labels or its matrices
    for name, g in sorted(corpus_graphs.items()):
        rng = random.Random(name)
        vertices = sorted(g.vertices())
        rename = dict(zip(vertices, rng.sample(range(100), len(vertices))))
        edges = [(rename[v], rename[u]) if rng.random() < 0.5 else (rename[u], rename[v])
                 for u, v in g.edges]
        rng.shuffle(edges)
        runs, fibers = [], []
        for graph in (g, MultiGraph.from_edges(edges)):
            col = Collector()
            fibers.append(build_fiber(graph))
            _run_checks(col, name, fibers[-1], CHECK_TOKENS, 2, _maps(perms[g.n]))
            runs.append(col)
        before, after = runs
        moved += fibers[0].complex != fibers[1].complex
        assert after.dims_rows == before.dims_rows, name
        assert after.pages_rows == before.pages_rows, name
        assert after.checks_rows == before.checks_rows, name
        assert len(before.checks_rows) == len(CHECK_TOKENS), name
        assert after.lines == before.lines, name
    assert moved >= 5


def test_fiber_koszul(capsys, corpus_dir):
    code, out, _ = run_cli(capsys, "fiber", "--graph",
                           str(corpus_dir / "path3.edges"), "--checks", "koszul")
    assert code == 0
    assert "dims by blocks: k=1:1 k=2:5 k=3:5" in out
    assert "H_-3=1" in out


def test_fiber_disconnected_graph(capsys, tmp_path):
    bad = tmp_path / "disconnected.edges"
    bad.write_text("0 1\n2 3\n")
    code, _, err = run_cli(capsys, "fiber", "--graph", str(bad))
    assert code == 2
    assert "not connected" in err


def test_fiber_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "fiber", "--graph", str(tmp_path / "nope.edges"))
    assert code == 2


def test_export_files(capsys, tmp_path, corpus_dir):
    out_dir = tmp_path / "out"
    code, _, _ = run_cli(capsys, "fiber", "--graph",
                         str(corpus_dir / "path3.edges"), "--out", str(out_dir))
    assert code == 0
    dims = (out_dir / "dims.csv").read_text().splitlines()
    assert dims[0] == "object,degree,dim"
    assert "path3,-2,5" in dims
    pages = (out_dir / "pages.csv").read_text().splitlines()
    assert pages[0] == "object,r,p,q,dim"
    assert "path3,2,1,-4,1" in pages
    checks = (out_dir / "checks.csv").read_text().splitlines()
    assert checks[0] == "object,check,pass"
    assert "path3,koszul,true" in checks
    doc = json.loads((out_dir / "path3.json").read_text())
    from permfiber.complexes import complex_from_json
    complex_ = complex_from_json(doc)
    assert complex_.dim(-2) == 5
    assert complex_.levels is not None


# sha256 of stdout and of every --out file, pinned so that a change to
# any byte of a report or an export shows here.
PINNED_OUTPUTS = {
    ("perm", "--n", "5", "--checks", "all", "--pages", "2"): {
        "stdout": "6d7c971cd28236f873926bd4b114faeacbacb0dc241b0b52916379f05c470e38",
        "P5.json": "eaf2e3891791bdc3ba562cc6b37fcb5acc549d45d8afcaa56373d5c4f56e3fc0",
        "checks.csv": "8d6b374415d0dc6640b911b5cc4400ad8dbbf145f9929e17dfb1bcf8402c2c29",
        "dims.csv": "8de08484e32539ace04b31821afaadac7a6418ece4907283a219aae798a1b999",
        "pages.csv": "bfa7c0c205df877a4d0154f0316f5b532b772d356010bb6dfc160f05b5c8b015",
    },
    ("suite", "--corpus", "corpus"): {
        "stdout": "22334bd90f0ae11a07a974f0ce3167553eef0d2571f60d3f1c76491f282ba359",
        "checks.csv": "e8f74c1fe2babce475bbefe6ee7f4ebe7b5343cc6f4c0a21e3fb5ab45b83acf3",
        "dims.csv": "c43d6001b565013b9d45a3ddd8175ecd84b4f6d1bdea2fca349fb20c1c817035",
    },
    ("fiber", "--graph", "twoloop.edges", "--checks", "all", "--pages", "2"): {
        "stdout": "7265ed317d258ef74466e6a992e69d180d2f4a1837811046adbd6f084f58d647",
        "checks.csv": "00ef1a1b79c7086230868fcbcf9eb3dad70841e382c4db40f184bc3aae74116b",
        "dims.csv": "cae7b5b3868bda827cf4f099bd6293c95158787e4c00c8428a81e46ec9a2e293",
        "pages.csv": "c1a17d147fa1bbeed89a134a617e2bdcaba9f93c401bdc3fcbabd14b739a92fc",
        "twoloop.json": "572a93bea03592bcbe8ad79567f8c614c037953ee0d6105abba33d80f3ff5550",
    },
    ("simplex", "--n", "5"): {
        "stdout": "51e04d8cf1032bc2bdcc6594d2e730c77f8520b3213bca6f2e5347a0b1e7cce8",
        "D4.json": "694e5fc0d13fb1b3cc8a2d59dae4762414f1ee1d80b31fb0f2bacd63cba33f61",
        "checks.csv": "305ee53cd86fdec86486446db15a5da0485f35f20b417b43f658f35bb7fc9b78",
        "dims.csv": "9fe115460d341971f6ff7d7b00cf25e29ce2d7ad0c79bce0d6978756181de4d6",
    },
    ("fiber", "--graph", "cycle5.edges", "--checks", "all", "--pages", "3"): {
        "stdout": "5eb5e7b6e17c68ddfd653b6c059768323d70ae01dd4f116b6badd73ab7df2b03",
        "checks.csv": "e7d44930f30f57e91b957fff371394639776524aedab32ff679bc59f559bda3c",
        "cycle5.json": "86a716996b1029e04df817f631bb89c76eace5ecd4badf667613231a5f5289b6",
        "dims.csv": "33372d965f38a3fadae7a15249f580ec210ed3c436b15f9140959722448e1558",
        "pages.csv": "e464443bc978587e1e9b4a2d2d979c8fe154fd883fa5ec1660014b5010d2d693",
    },
}


def test_output_bytes_are_pinned(capsys, tmp_path, corpus_dir):
    for k, (argv, want) in enumerate(PINNED_OUTPUTS.items()):
        argv = tuple(str(corpus_dir / a) if a.endswith(".edges")
                     else str(corpus_dir) if a == "corpus" else a for a in argv)
        out_dir = tmp_path / f"{k}-{argv[0]}"  # one fresh directory per run
        code, out, err = run_cli(capsys, *argv, "--out", str(out_dir))
        assert (code, err) == (0, ""), argv
        got = {"stdout": hashlib.sha256(out.encode()).hexdigest()}
        for path in out_dir.iterdir():
            got[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        assert got == want, argv


def test_json_is_built_only_for_out(capsys, monkeypatch, tmp_path, corpus_dir):
    def refuse(c):
        raise AssertionError("built a JSON document without --out")

    monkeypatch.setattr("permfiber.cli.complex_json_pieces", refuse)
    for argv in (("perm", "--n", "3"), ("simplex", "--n", "3"),
                 ("fiber", "--graph", str(corpus_dir / "path3.edges"))):
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        # the same stand-in is what --out writes through
        with pytest.raises(AssertionError, match="without --out"):
            main([*argv, "--out", str(tmp_path / argv[0])])


def small_corpus(tmp_path, corpus_dir, names=("path2", "path3", "star3")):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    manifest = json.loads((corpus_dir / "manifest.json").read_text())
    subset = {}
    for name in names:
        shutil.copy(corpus_dir / f"{name}.edges", corpus / f"{name}.edges")
        subset[name] = manifest[name]
    (corpus / "manifest.json").write_text(json.dumps(subset))
    return corpus


def test_suite_small_corpus(capsys, tmp_path, corpus_dir):
    corpus = small_corpus(tmp_path, corpus_dir)
    code, out, _ = run_cli(capsys, "suite", "--corpus", str(corpus), "--cap", "4")
    assert code == 0
    assert "object: P4" in out
    assert "object: P5" not in out  # the sweep respects the cap
    assert out.rstrip().endswith("result: PASS")


def test_suite_mutated_manifest(capsys, tmp_path, corpus_dir):
    corpus = small_corpus(tmp_path, corpus_dir)
    manifest = json.loads((corpus / "manifest.json").read_text())
    manifest["path3"]["dims"]["-2"] = 6
    (corpus / "manifest.json").write_text(json.dumps(manifest))
    code, out, _ = run_cli(capsys, "suite", "--corpus", str(corpus), "--cap", "3")
    assert code == 1
    assert "degree -2: got 5, manifest 6" in out


def test_suite_graph_without_manifest_entry(capsys, tmp_path, corpus_dir):
    corpus = small_corpus(tmp_path, corpus_dir)
    shutil.copy(corpus_dir / "theta.edges", corpus / "theta.edges")
    code, out, _ = run_cli(capsys, "suite", "--corpus", str(corpus), "--cap", "3")
    assert code == 1
    assert "theta,manifest,false" not in out  # csv only goes to files
    assert "no manifest entry" in out


def test_suite_stale_manifest_entry(capsys, tmp_path, corpus_dir):
    corpus = small_corpus(tmp_path, corpus_dir)
    (corpus / "path2.edges").unlink()
    code, out, _ = run_cli(capsys, "suite", "--corpus", str(corpus), "--cap", "3")
    assert code == 1
    assert "manifest entry has no graph file" in out


def test_suite_empty_corpus(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "manifest.json").write_text("{}")
    code, _, err = run_cli(capsys, "suite", "--corpus", str(corpus))
    assert code == 2
    assert "no .edges files" in err


@pytest.mark.parametrize("mutate, complaint", [
    (lambda m: list(m), "expected an object of graph entries, got list"),
    (lambda m: {**m, "path3": [1, 5, 5]}, "entry 'path3' is not an object"),
    (lambda m: {**m, "path3": {"dims": [1, 5, 5]}}, "dims of 'path3' is not an object"),
    (lambda m: {**m, "path3": {"dims": {"-1": 1, "-2": "5", "-3": 5}}},
     "dims of 'path3' at degree -2 is not an integer: '5'"),
])
def test_suite_manifest_of_the_wrong_shape(capsys, tmp_path, corpus_dir,
                                           mutate, complaint):
    corpus = small_corpus(tmp_path, corpus_dir)
    manifest = json.loads((corpus / "manifest.json").read_text())
    (corpus / "manifest.json").write_text(json.dumps(mutate(manifest)))
    code, out, err = run_cli(capsys, "suite", "--corpus", str(corpus), "--cap", "3")
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        f"error: bad manifest {corpus / 'manifest.json'}: {complaint}"]


@pytest.mark.parametrize("spoil, complaint", [
    (lambda corpus: shutil.rmtree(corpus), "corpus directory not found: {corpus}"),
    (lambda corpus: ((corpus / "manifest.json").unlink(),
                     (corpus / "manifest.json").mkdir()),
     "cannot read manifest {corpus}/manifest.json: Is a directory"),
    (lambda corpus: (corpus / "manifest.json").write_text("{path3: 1}"),
     "bad manifest {corpus}/manifest.json: Expecting property name enclosed in "
     "double quotes: line 1 column 2 (char 1)"),
])
def test_suite_refuses_an_unusable_corpus(capsys, tmp_path, corpus_dir,
                                          spoil, complaint):
    corpus = small_corpus(tmp_path, corpus_dir)
    spoil(corpus)
    code, out, err = run_cli(capsys, "suite", "--corpus", str(corpus), "--cap", "3")
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: " + complaint.format(corpus=corpus)]


def test_suite_reports_a_disconnected_graph(capsys, tmp_path, corpus_dir):
    corpus = small_corpus(tmp_path, corpus_dir)
    (corpus / "split.edges").write_text("0 1\n2 3\n")
    manifest = json.loads((corpus / "manifest.json").read_text())
    (corpus / "manifest.json").write_text(json.dumps({**manifest, "split": {}}))
    code, out, _ = run_cli(capsys, "suite", "--corpus", str(corpus), "--cap", "3")
    assert code == 1
    lines = out.splitlines()
    at = lines.index("object: split")
    assert lines[at + 1] == "check load: FAIL (graph is not connected)"
    assert lines[at + 2].startswith("object: ")


def test_suite_missing_manifest(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "g.edges").write_text("0 1\n")
    code, _, err = run_cli(capsys, "suite", "--corpus", str(corpus))
    assert code == 2
    assert "manifest" in err


def test_suite_low_cap_reports_oversize_graphs(capsys, corpus_dir):
    code, out, _ = run_cli(capsys, "suite", "--corpus", str(corpus_dir),
                           "--cap", "3")
    assert code == 1  # graphs above the cap are reported, not silently skipped
    assert "above the cap" in out


def test_suite_shipped_corpus_passes(capsys, corpus_dir, tmp_path, monkeypatch):
    import permfiber.cli as cli
    build_perm, built = cli.build_perm, []

    def counting(n, *args, **kwargs):
        built.append(n)
        return build_perm(n, *args, **kwargs)

    monkeypatch.setattr(cli, "build_perm", counting)
    out_dir = tmp_path / "summary"
    code, out, _ = run_cli(capsys, "suite", "--corpus", str(corpus_dir),
                           "--out", str(out_dir))
    assert code == 0
    assert sorted(built) == sorted(set(built))  # each P_n built once
    assert out.rstrip().endswith("result: PASS")
    checks = (out_dir / "checks.csv").read_text().splitlines()
    assert checks[0] == "object,check,pass"
    assert all(line.endswith(",true") for line in checks[1:])
    assert any(line.startswith("P6,") for line in checks)
    # the benchmark hashes these lines
    maps_lines = {}
    for line in out.splitlines():
        if line.startswith("object: "):
            name = line[len("object: "):]
        elif line.startswith("check maps"):
            maps_lines[name] = line
    graphs = {path.stem for path in corpus_dir.glob("*.edges")}
    assert graphs <= set(maps_lines)
    for name in graphs:
        assert maps_lines[name] == (
            "check maps: pass (chain maps=true, cones acyclic=true, "
            "factorization=true, well-defined=true)"), name
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from permfiber.cli import CHECK_TOKENS, Collector, _run_checks, main
from permfiber.complexes import ChainComplex
from permfiber.linalg import SparseMatrix
from permfiber.polytopes import SimplexComplex


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


def test_perm_cap_env_override(capsys, monkeypatch):
    monkeypatch.setenv("PERMFIBER_CAP", "2")
    code, _, err = run_cli(capsys, "perm", "--n", "3")
    assert code == 2
    code, _, _ = run_cli(capsys, "perm", "--n", "3", "--cap", "3")
    assert code == 0


def test_caps_above_the_ceiling(capsys, monkeypatch, corpus_dir):
    def refuse(*args, **kwargs):
        raise AssertionError("built a complex above the ceiling")

    monkeypatch.setattr("permfiber.cli.build_perm", refuse)
    monkeypatch.setattr("permfiber.cli.build_fiber", refuse)
    graph = str(corpus_dir / "path3.edges")
    cases = [
        (("perm", "--n", "20", "--cap", "20"), None, "--cap 20", 8),
        (("perm", "--n", "20"), "20", "PERMFIBER_CAP 20", 8),
        (("perm", "--n", "3", "--cap", "9"), None, "--cap 9", 8),
        (("fiber", "--graph", graph, "--cap", "10"), None, "--cap 10", 9),
        (("fiber", "--graph", graph), "10", "PERMFIBER_CAP 10", 9),
        (("suite", "--corpus", str(corpus_dir), "--cap", "10"), None, "--cap 10", 8),
        (("suite", "--corpus", str(corpus_dir)), "10", "PERMFIBER_CAP 10", 8),
        (("simplex", "--n", "3"), "10", "PERMFIBER_CAP 10", 9),
    ]
    for argv, env, source, ceiling in cases:
        if env is None:
            monkeypatch.delenv("PERMFIBER_CAP", raising=False)
        else:
            monkeypatch.setenv("PERMFIBER_CAP", env)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err == f"error: {source} is above the ceiling {ceiling}\n", argv


class _Built(Exception):
    pass


def test_maps_above_the_perm_ceiling(capsys, monkeypatch, tmp_path, corpus_dir):
    def refuse(*args, **kwargs):
        raise _Built

    monkeypatch.setattr("permfiber.cli.build_perm", refuse)
    monkeypatch.setattr("permfiber.cli.build_fiber", refuse)
    monkeypatch.delenv("PERMFIBER_CAP", raising=False)
    path9 = tmp_path / "path9.edges"
    path9.write_text("".join(f"{v} {v + 1}\n" for v in range(9)))
    for checks in ("maps", "all", "d2,maps"):
        code, out, err = run_cli(capsys, "fiber", "--graph", str(path9),
                                 "--cap", "9", "--checks", checks)
        assert code == 2 and out == "", checks
        assert err == "error: check maps builds P9, above the ceiling 8\n", checks
    code, out, err = run_cli(capsys, "suite", "--corpus", str(corpus_dir), "--cap", "9")
    assert code == 2 and out == ""
    assert err == "error: --cap 9 is above the ceiling 8\n"
    # without maps a 9-edge fiber is still within its own ceiling
    with pytest.raises(_Built):
        main(["fiber", "--graph", str(path9), "--cap", "9", "--checks", "d2,koszul"])


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


def test_simplex_out_of_cap(capsys, monkeypatch):
    code, out, err = run_cli(capsys, "simplex", "--n", "30")
    assert code == 2 and out == ""
    assert "cap" in err
    monkeypatch.setenv("PERMFIBER_CAP", "2")
    code, _, err = run_cli(capsys, "simplex", "--n", "3")
    assert code == 2
    assert "cap (2)" in err


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


def _flip_one_sign(c: ChainComplex, degree: int) -> ChainComplex:
    d = c.d(degree)
    entries = dict(d.entries)
    key = min(entries)
    entries[key] = -entries[key]
    diffs = dict(c.differentials)
    diffs[degree] = SparseMatrix(d.rows, d.cols, entries)
    return ChainComplex.build(c.basis, diffs, c.levels)


def test_battery_reports_a_flipped_sign(perms, simplexes, corpus_fibers):
    perm = perms[3]
    fib = corpus_fibers["path3"]
    cases = [
        ("P3", dataclasses.replace(perm, complex=_flip_one_sign(perm.complex, 1)),
         CHECK_TOKENS, 2, 2),
        ("path3", dataclasses.replace(fib, complex=_flip_one_sign(fib.complex, -2)),
         CHECK_TOKENS, -1, -1),
        ("D2", SimplexComplex(3, _flip_one_sign(simplexes[3].complex, 1)),
         ("d2", "homology"), 2, -1),
    ]
    for name, obj, checks, degree, pages in cases:
        col = Collector()
        _run_checks(col, name, obj, checks, pages, perm=perm)
        assert col.failed, name
        assert f"check d2: FAIL (fails at degree {degree})" in col.lines, name
        assert "check homology: FAIL (skipped: d2 failed)" in col.lines, name
        assert all(f"{name},{check},false" in col.checks_rows for check in checks), name
        assert ("pages: skipped (d2 failed)" in col.lines) == (pages >= 0), name
        assert not any(line.startswith("E") for line in col.lines), name
        assert not col.pages_rows, name


def test_maps_failure_names_degree_and_cell(capsys, monkeypatch, perms, corpus_fibers):
    import permfiber.polytopes as polytopes
    unit = polytopes.blowdown_coefficient
    monkeypatch.setattr(polytopes, "blowdown_coefficient",
                        lambda alpha: -unit(alpha) if len(alpha.blocks) == 3
                        else unit(alpha))
    code, out, _ = run_cli(capsys, "perm", "--n", "4", "--checks", "maps")
    assert code == 1
    [line] = [line for line in out.splitlines() if line.startswith("check maps")]
    assert line.startswith("check maps: FAIL (blow-down [sign convention: "
                           "ordering_parity], surjective=true, cone acyclic=false; ")
    assert line.endswith("; blow-down does not commute at degree 1, cell 1>2>34)")

    fib = corpus_fibers["path3"]
    flipped = dataclasses.replace(fib, complex=_flip_one_sign(fib.complex, -2))
    col = Collector()
    _run_checks(col, "path3", flipped, ("maps",), perm=perms[3])
    [line] = [line for line in col.lines if line.startswith("check maps")]
    assert "; fiber->simplex does not commute at degree -2, cell ({12} ({3}))" in line
    assert line.endswith("; not well defined at tree ({12} ({3})))")


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


def test_json_is_built_only_for_out(capsys, monkeypatch, corpus_dir):
    def refuse(c):
        raise AssertionError("built a JSON document without --out")

    monkeypatch.setattr("permfiber.cli.complex_to_json", refuse)
    for argv in (("perm", "--n", "3"), ("simplex", "--n", "3"),
                 ("fiber", "--graph", str(corpus_dir / "path3.edges"))):
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0, argv


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
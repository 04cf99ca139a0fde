"""Command-line front end: build complexes, run verifications, export
reports and CSV/JSON artifacts.

Commands: perm, simplex, fiber, suite.  Exit code 0 means every
requested check passed, 1 means some check failed, 2 means the input
was invalid.  Reports are deterministic: identical inputs produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

from .complexes import (
    complex_to_json,
    compose,
    homology_dims,
    is_quasi_isomorphism,
    is_surjective,
    page_dims,
    verify_chain_map,
    verify_d_squared,
)
from .fiber import (
    DEFAULT_FIBER_CAP,
    FiberComplex,
    build_fiber,
    fiber_to_simplex,
    koszul_check,
    load_graph,
    perm_to_fiber,
    push_forward_well_defined,
)
from .polytopes import DEFAULT_PERM_CAP, build_perm, build_simplex, perm_to_simplex

CAP_ENV_VAR = "PERMFIBER_CAP"
# Fixed ceilings on any --cap or PERMFIBER_CAP: P8 has Fubini(8) = 545,835
# cells, and a 9-edge fiber has at most Fubini(9) TO partitions to visit.
# The maps check of an n-edge fiber builds P_n, so it stays under the
# perm ceiling; suite always runs it.
PERM_CAP_CEILING = 8
FIBER_CAP_CEILING = 9
CHECK_TOKENS = ("d2", "homology", "maps", "koszul")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2


class InvalidInput(Exception):
    pass


def _cap(given, fallback: int, ceiling: int) -> int:
    """The cap a command builds up to: ``--cap`` when given, else
    PERMFIBER_CAP, else ``fallback``; refused above ``ceiling``."""
    source, cap = "--cap", given
    if cap is None:
        source, raw = CAP_ENV_VAR, os.environ.get(CAP_ENV_VAR)
        if raw is None:
            return fallback
        try:
            cap = int(raw)
        except ValueError:
            raise InvalidInput(f"{CAP_ENV_VAR} must be an integer, got {raw!r}")
    if cap > ceiling:
        raise InvalidInput(f"{source} {cap} is above the ceiling {ceiling}")
    return cap


def _check_pages(pages: int, n: int) -> None:
    """Widths lie in 1..n, so every page past n+1 is the stable page."""
    if pages > n + 1:
        raise InvalidInput(f"--pages must be at most n+1 ({n + 1}), got {pages}")


def _parse_checks(raw: str, allowed=CHECK_TOKENS) -> tuple:
    if raw.strip() == "all":
        return tuple(allowed)
    tokens = tuple(t.strip() for t in raw.split(",") if t.strip())
    for t in tokens:
        if t not in allowed:
            raise InvalidInput(
                f"unknown check {t!r}; allowed: {', '.join(allowed)} or 'all'")
    if not tokens:
        raise InvalidInput("empty --checks")
    return tokens


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class Collector:
    """Accumulates report lines and the CSV tables of a run."""

    def __init__(self):
        self.lines: list = []
        self.dims_rows: list = []     # object,degree,dim
        self.pages_rows: list = []    # object,r,p,q,dim
        self.checks_rows: list = []   # object,check,pass
        self.failed = False
        self.json_docs: dict = {}

    def say(self, line: str) -> None:
        self.lines.append(line)

    def check(self, obj: str, name: str, passed: bool, detail: str = "") -> None:
        word = "pass" if passed else "FAIL"
        suffix = f" ({detail})" if detail else ""
        self.say(f"check {name}: {word}{suffix}")
        self.checks_rows.append(f"{obj},{name},{str(passed).lower()}")
        if not passed:
            self.failed = True

    def dims(self, obj: str, complex_) -> None:
        for r in complex_.degrees():
            self.dims_rows.append(f"{obj},{r},{complex_.dim(r)}")

    def pages(self, obj: str, complex_, max_r: int) -> None:
        for r in range(max_r + 1):
            table = page_dims(complex_, r)
            cells = " ".join(f"({p},{q}):{d}" for (p, q), d in sorted(table.dims.items()))
            self.say(f"E{r}: {cells}")
            self.pages_rows.extend(f"{obj},{row}" for row in table.csv_rows())

    def write_outputs(self, out_dir: Path) -> None:
        if self.dims_rows:
            _atomic_write(out_dir / "dims.csv",
                          "\n".join(["object,degree,dim"] + self.dims_rows) + "\n")
        if self.pages_rows:
            _atomic_write(out_dir / "pages.csv",
                          "\n".join(["object,r,p,q,dim"] + self.pages_rows) + "\n")
        if self.checks_rows:
            _atomic_write(out_dir / "checks.csv",
                          "\n".join(["object,check,pass"] + self.checks_rows) + "\n")
        for name, doc in sorted(self.json_docs.items()):
            _atomic_write(out_dir / f"{name}.json",
                          json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _homology_detail(h: dict) -> str:
    nonzero = {r: d for r, d in sorted(h.items()) if d}
    return " ".join(f"H_{r}={d}" for r, d in nonzero.items()) or "zero"


def _not_commuting(name: str, report) -> str:
    """Witness suffix for a maps line: where a chain map fails to commute."""
    if report.passed:
        return ""
    return f"; {name} does not commute at degree {report.degree}, cell {report.label}"


def _perm_maps(perm) -> tuple:
    f = perm_to_simplex(perm, build_simplex(perm.n))
    commutes = verify_chain_map(f)
    surj = is_surjective(f)
    cone_ok = commutes.passed and is_quasi_isomorphism(f)
    return (commutes.passed and surj and cone_ok,
            f"blow-down [{f.note}], surjective={str(surj).lower()}, "
            f"cone acyclic={str(cone_ok).lower()}"
            + _not_commuting("blow-down", commutes))


def _fiber_maps(fib, perm) -> tuple:
    n = fib.n
    simplex = build_simplex(n)
    p2f = perm_to_fiber(fib, perm)
    f2s = fiber_to_simplex(fib, simplex)
    p2f_commutes = verify_chain_map(p2f)
    f2s_commutes = verify_chain_map(f2s)
    ok_p2f = p2f_commutes.passed and is_surjective(p2f)
    ok_f2s = f2s_commutes.passed and is_surjective(f2s)
    cones_ok = factor_ok = False
    if ok_p2f and ok_f2s:
        cones_ok = is_quasi_isomorphism(p2f) and is_quasi_isomorphism(f2s)
        p2s = perm_to_simplex(perm, simplex)
        comp = compose(f2s, p2f)
        factor_ok = all(comp.matrix(r) == p2s.matrix(r)
                        for r in perm.complex.degrees())
    welldef = push_forward_well_defined(fib)
    return (ok_p2f and ok_f2s and cones_ok and factor_ok and welldef.passed,
            f"chain maps={str(ok_p2f and ok_f2s).lower()}, "
            f"cones acyclic={str(cones_ok).lower()}, "
            f"factorization={str(factor_ok).lower()}, "
            f"well-defined={str(welldef.passed).lower()}"
            + _not_commuting("perm->fiber", p2f_commutes)
            + _not_commuting("fiber->simplex", f2s_commutes)
            + ("" if welldef.passed else f"; not well defined at tree {welldef.label}"))


def _run_checks(col: Collector, name: str, obj, checks, pages: int = -1,
                perm=None) -> None:
    """The check battery for a PermComplex, SimplexComplex or
    FiberComplex: d2, homology (one class in the lowest degree), pages,
    koszul, maps.  Only the dims heading, the Koszul detail text and
    the maps check depend on the kind of object; a simplex has neither
    pages, a Koszul check nor maps.  The maps check of an n-edge fiber
    maps from ``perm``, the caller's P_n."""
    c = obj.complex
    fiber = isinstance(obj, FiberComplex)
    col.say(f"object: {name}")
    col.dims(name, c)
    if fiber:
        col.say("dims by blocks: " + " ".join(
            f"k={-r}:{c.dim(r)}" for r in reversed(c.degrees())))
    else:
        col.say("dims: " + " ".join(f"r={r}:{c.dim(r)}" for r in c.degrees()))
    if "d2" in checks:
        rep = verify_d_squared(c)
        col.check(name, "d2", rep.passed,
                  "" if rep.passed else f"fails at degree {rep.degree}")
    if "homology" in checks:
        if not verify_d_squared(c).passed:
            col.check(name, "homology", False, "skipped: d2 failed")
        else:
            h = homology_dims(c)
            bottom = c.degrees()[0]
            want = {r: int(r == bottom) for r in c.degrees()}
            col.check(name, "homology", h == want, _homology_detail(h))
    if pages >= 0:
        if verify_d_squared(c).passed:
            col.pages(name, c, pages)
        else:
            col.say("pages: skipped (d2 failed)")
            col.failed = True
    if "koszul" in checks:
        rep = koszul_check(obj)
        detail = (f"homology {_homology_detail(rep.homology)}; {rep.note}" if fiber
                  else "E1 binomial row at q=-1, E2 single class at p=1")
        col.check(name, "koszul", rep.passed, detail)
    if "maps" in checks:
        if fiber:
            passed, detail = _fiber_maps(obj, perm)
        else:
            passed, detail = _perm_maps(obj)
        col.check(name, "maps", passed, detail)


def _collector(args) -> Collector:
    """A fresh Collector, once the --out directory exists, so an
    unusable --out is refused before any complex is built."""
    if args.out:
        try:
            Path(args.out).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise InvalidInput(f"cannot write --out {args.out}: {exc.strerror}")
    return Collector()


def cmd_perm(args) -> int:
    cap = _cap(args.cap, DEFAULT_PERM_CAP, PERM_CAP_CEILING)
    if not 1 <= args.n <= cap:
        raise InvalidInput(f"--n must satisfy 1 <= n <= cap ({cap}), got {args.n}")
    checks = _parse_checks(args.checks)
    _check_pages(args.pages, args.n)
    col = _collector(args)
    perm = build_perm(args.n, cap=cap)
    _run_checks(col, f"P{args.n}", perm, checks, args.pages)
    if args.out:
        col.json_docs[f"P{args.n}"] = complex_to_json(perm.complex)
    return _finish(col, args)


def cmd_simplex(args) -> int:
    cap = _cap(None, DEFAULT_FIBER_CAP, FIBER_CAP_CEILING)
    if not 1 <= args.n <= cap:
        raise InvalidInput(f"--n must satisfy 1 <= n <= cap ({cap}), got {args.n}")
    checks = _parse_checks(args.checks, allowed=("d2", "homology"))
    col = _collector(args)
    simplex = build_simplex(args.n)
    name = f"D{args.n - 1}"
    _run_checks(col, name, simplex, checks)
    if args.out:
        col.json_docs[name] = complex_to_json(simplex.complex)
    return _finish(col, args)


def cmd_fiber(args) -> int:
    cap = _cap(args.cap, DEFAULT_FIBER_CAP, FIBER_CAP_CEILING)
    path = Path(args.graph)
    if not path.exists():
        raise InvalidInput(f"graph file not found: {path}")
    try:
        graph = load_graph(path)
    except OSError as exc:
        raise InvalidInput(f"cannot read graph file {path}: {exc.strerror}")
    except ValueError as exc:
        raise InvalidInput(f"bad graph file {path}: {exc}")
    if graph.n > cap:
        raise InvalidInput(f"graph has {graph.n} edges, above the cap {cap}")
    checks = _parse_checks(args.checks)
    _check_pages(args.pages, graph.n)
    if "maps" in checks and graph.n > PERM_CAP_CEILING:
        raise InvalidInput(f"check maps builds P{graph.n}, "
                           f"above the ceiling {PERM_CAP_CEILING}")
    col = _collector(args)
    fib = build_fiber(graph, cap=cap)
    perm = build_perm(graph.n, cap=cap) if "maps" in checks else None
    name = path.stem
    _run_checks(col, name, fib, checks, args.pages, perm)
    if args.out:
        col.json_docs[name] = complex_to_json(fib.complex)
    return _finish(col, args)


def _check_manifest(manifest, path: Path) -> None:
    """A manifest is an object of graph entries, each an object whose
    optional ``dims`` maps degrees to integer dimensions."""
    if not isinstance(manifest, dict):
        raise InvalidInput(f"bad manifest {path}: expected an object of graph "
                           f"entries, got {type(manifest).__name__}")
    for name, entry in manifest.items():
        if not isinstance(entry, dict):
            raise InvalidInput(f"bad manifest {path}: entry {name!r} is not an object")
        dims = entry.get("dims", {})
        if not isinstance(dims, dict):
            raise InvalidInput(f"bad manifest {path}: dims of {name!r} is not an object")
        for degree, dim in dims.items():
            if type(dim) is not int:
                raise InvalidInput(f"bad manifest {path}: dims of {name!r} at "
                                   f"degree {degree} is not an integer: {dim!r}")


def cmd_suite(args) -> int:
    cap = _cap(args.cap, DEFAULT_FIBER_CAP, PERM_CAP_CEILING)
    corpus = Path(args.corpus)
    if not corpus.is_dir():
        raise InvalidInput(f"corpus directory not found: {corpus}")
    manifest_path = corpus / "manifest.json"
    if not manifest_path.exists():
        raise InvalidInput(f"missing manifest: {manifest_path}")
    try:
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
    except OSError as exc:
        raise InvalidInput(f"cannot read manifest {manifest_path}: {exc.strerror}")
    except ValueError as exc:
        raise InvalidInput(f"bad manifest {manifest_path}: {exc}")
    _check_manifest(manifest, manifest_path)
    graph_files = sorted(p for p in corpus.glob("*.edges"))
    if not graph_files:
        raise InvalidInput(f"no .edges files in {corpus}")
    col = _collector(args)
    perms: dict = {}  # n -> P_n, built once for every fiber and the P_n battery

    def perm_of(n: int):
        if n not in perms:
            perms[n] = build_perm(n, cap=cap)
        return perms[n]

    for path in graph_files:
        name = path.stem
        entry = manifest.get(name)
        if entry is None:
            col.say(f"object: {name}")
            col.check(name, "manifest", False, "no manifest entry for this graph")
            continue
        try:
            graph = load_graph(path)
        except (OSError, ValueError) as exc:
            col.say(f"object: {name}")
            col.check(name, "load", False, str(exc))
            continue
        if graph.n > cap:
            col.say(f"object: {name}")
            col.check(name, "load", False,
                      f"graph has {graph.n} edges, above the cap {cap}")
            continue
        fib = build_fiber(graph, cap=cap)
        _run_checks(col, name, fib, CHECK_TOKENS, perm=perm_of(graph.n))
        got = {str(r): fib.complex.dim(r) for r in fib.complex.degrees()}
        want = entry.get("dims", {})
        if got == want:
            col.check(name, "dims-manifest", True)
        else:
            diffs = sorted(set(got) | set(want))
            detail = "; ".join(
                f"degree {r}: got {got.get(r, 0)}, manifest {want.get(r, 0)}"
                for r in diffs if got.get(r) != want.get(r))
            col.check(name, "dims-manifest", False, detail)
    stale = sorted(set(manifest) - {p.stem for p in graph_files})
    for name in stale:
        col.say(f"object: {name}")
        col.check(name, "manifest", False, "manifest entry has no graph file")
    for n in range(1, min(6, cap) + 1):
        _run_checks(col, f"P{n}", perm_of(n), CHECK_TOKENS)
    return _finish(col, args)


def _finish(col: Collector, args) -> int:
    result = "FAIL" if col.failed else "PASS"
    col.say(f"result: {result}")
    out = getattr(args, "out", None)
    if out:
        try:
            col.write_outputs(Path(out))
        except OSError as exc:
            raise InvalidInput(f"cannot write --out {out}: {exc.strerror}")
    print("\n".join(col.lines))
    return EXIT_CHECK_FAILED if col.failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permfiber",
        description="Exact verification of permutohedron, simplex and "
                    "graph-contraction fiber chain complexes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("perm", help="permutohedron complex on n letters")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pages", type=int, default=2,
                   help="largest spectral page to report (default 2)")
    p.add_argument("--checks", default="all",
                   help="comma list of d2,homology,maps,koszul or 'all'")
    p.add_argument("--out", help="directory for CSV/JSON exports")
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=cmd_perm)

    p = sub.add_parser("simplex", help="simplex complex on n vertices")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--checks", default="all",
                   help="comma list of d2,homology or 'all'")
    p.add_argument("--out", help="directory for CSV/JSON exports")
    p.set_defaults(func=cmd_simplex)

    p = sub.add_parser("fiber", help="contraction fiber of a graph edge list")
    p.add_argument("--graph", required=True, help="edge list file, 'u v' per line")
    p.add_argument("--pages", type=int, default=2)
    p.add_argument("--checks", default="all",
                   help="comma list of d2,homology,maps,koszul or 'all'")
    p.add_argument("--out", help="directory for CSV/JSON exports")
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=cmd_fiber)

    p = sub.add_parser("suite", help="run every check over a corpus directory")
    p.add_argument("--corpus", required=True,
                   help="directory of .edges files plus manifest.json")
    p.add_argument("--out", help="directory for CSV exports")
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=cmd_suite)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: build complexes, run verifications, export
reports and CSV/JSON artifacts.

Commands: perm, simplex, fiber, suite.  Exit code 0 means every
requested check passed, 1 means some check failed, 2 means the input
was invalid.  Reports are deterministic: identical inputs produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from collections import namedtuple
from contextlib import suppress
from functools import cache
from pathlib import Path

from .complexes import (
    complex_json_pieces,
    homology_dims,
    is_surjective,
    page_cell,
    page_dims,
    point_degree,
    quasi_isomorphism_report,
    unpaired_cells,
    unreached,
    verify_chain_map,
    verify_d_squared,
    verify_factorization,
)
from .fiber import (
    FIBER_CAP,
    FiberComplex,
    FiberTooLarge,
    build_fiber,
    fiber_to_simplex,
    koszul_check,
    load_graph,
    perm_to_fiber,
    push_forward_well_defined,
)
from .polytopes import PERM_CAP, build_perm, build_simplex, perm_to_simplex

CHECK_TOKENS = ("d2", "homology", "maps", "koszul")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2


class InvalidInput(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Refuses bad arguments with InvalidInput, as every other check does."""

    def error(self, message):
        raise InvalidInput(message)


def _check_n(n: int) -> None:
    if not 1 <= n <= PERM_CAP:
        raise InvalidInput(f"--n must satisfy 1 <= n <= cap ({PERM_CAP}), got {n}")


def _check_pages(pages: int, n: int) -> None:
    """-1 omits the pages; past n+1 every page is stable, since widths lie in 1..n."""
    if pages < -1:
        raise InvalidInput(f"--pages must be at least -1, got {pages}")
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


def _atomic_write(exports) -> None:
    """Write each (path, pieces) to a new file beside path, and move the
    files over their paths once all are written; on failure, remove them."""
    staged = []
    try:
        for path, pieces in exports:
            path.parent.mkdir(parents=True, exist_ok=True)
            if path.is_dir():   # os.replace would refuse it after earlier moves
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
            tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
            with open(tmp, "x", encoding="utf-8") as handle:
                staged.append((tmp, path))
                handle.writelines(pieces)
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        raise


class Collector:
    """Accumulates report lines and the CSV tables of a run."""

    def __init__(self):
        self.lines: list = []
        self.dims_rows: list = []     # object,degree,dim
        self.pages_rows: list = []    # object,r,p,q,dim
        self.checks_rows: list = []   # object,check,pass
        self.failed = False
        self.complexes: dict = {}     # object -> complex to export as JSON

    def say(self, line: str) -> None:
        self.lines.append(line)

    def check(self, obj: str, name: str, passed: bool, detail: str = "") -> None:
        word = "pass" if passed else "FAIL"
        suffix = f" ({detail})" if detail else ""
        self.say(f"check {name}: {word}{suffix}")
        self.checks_rows.append(f"{obj},{name},{str(passed).lower()}")
        if not passed:
            self.failed = True

    def replay(self, name: str, battery: Collector) -> None:
        """Append ``battery``, a run under the empty object name, as a run
        under ``name``: its first line is ``object: ``, and its rows start
        with the comma after the name."""
        self.say(battery.lines[0] + name)
        self.lines.extend(battery.lines[1:])
        for rows, more in ((self.dims_rows, battery.dims_rows),
                           (self.pages_rows, battery.pages_rows),
                           (self.checks_rows, battery.checks_rows)):
            rows.extend(name + row for row in more)
        self.failed |= battery.failed

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
        """CSV tables with rows and complexes' JSON, all written before any moves in."""
        tables = (("dims", "object,degree,dim", self.dims_rows),
                  ("pages", "object,r,p,q,dim", self.pages_rows),
                  ("checks", "object,check,pass", self.checks_rows))
        _atomic_write([*((out_dir / f"{name}.csv", ["\n".join([header] + rows) + "\n"])
                         for name, header, rows in tables if rows),
                       *((out_dir / f"{name}.json", complex_json_pieces(c))
                         for name, c in sorted(self.complexes.items()))])


def _homology_detail(h: dict) -> str:
    return " ".join(f"H_{r}={d}" for r, d in sorted(h.items()) if d) or "zero"


def _unexpected_class(c, h: dict, bottom: int) -> str:
    """Witness suffix for a failing homology line: the first degree with
    more homology than a point with its class at ``bottom``, and a cell
    that carries a class there, else ``bottom`` when it has no class."""
    for r in c.degrees():
        if h[r] > (1 if r == bottom else 0):
            return f"; unexpected class at degree {r}, cell {unpaired_cells(c, r)[0]}"
    return "" if h[bottom] else f"; no class at degree {bottom}"


def _koszul_failure(c, failure: tuple) -> str:
    """Witness suffix for a failing koszul line: its first failing part,
    and for a page cell with too many dimensions a cell there that
    survives to the page, with too few one that cancels before it."""
    if failure[:1] == ("d2",):
        return "; skipped: d2 failed"
    if failure[:1] == ("homology",):
        return f"; no single class at degree {failure[1]}"
    if not failure:
        return ""
    r, (p, q), dim, want = failure
    text = f"; E{r} has dim {dim} at {(p, q)}, expected {want}"
    cell = page_cell(c, r, p, q, survives=dim > want)
    fate = "survives to" if dim > want else "cancels before"
    return text if cell is None else f"{text}, cell {cell} {fate} E{r}"


def _fails(what: str, report) -> str:
    """Witness suffix for a maps line: the degree and cell at which
    ``what`` fails, read off a chain-map or ``unreached`` report."""
    if report is None or report.passed:
        return ""
    return f"; {what} at degree {report.degree}, cell {report.label}"


def _lost_class(name: str, report) -> str:
    """Witness suffix for a maps line: the class a commuting map loses."""
    if report is None or report.label is None:
        return ""
    return (f"; {name} sends the class of cell {report.label} "
            f"at degree {report.degree} to a boundary")


# What the maps check of an n-letter object maps through: P_n, the
# simplex on n vertices and the blow-down of P_n onto it.
Maps = namedtuple("Maps", "perm simplex blowdown")


def _maps(perm) -> Maps:
    simplex = build_simplex(perm.n)
    return Maps(perm, simplex, perm_to_simplex(perm, simplex))


MapFacts = namedtuple("MapFacts", "commutes surjective unreached qi skipped")


def _map_facts(f) -> MapFacts:
    """What the maps check reads of f: its commuting report, whether it
    is surjective and if not ``unreached``, its class-test report, and
    whether that test was skipped.  The class test runs iff f commutes
    and d^2 holds at its two ends; otherwise the report is None."""
    commutes = verify_chain_map(f)
    skipped = commutes.passed and not (verify_d_squared(f.source).passed
                                       and verify_d_squared(f.target).passed)
    qi = quasi_isomorphism_report(f) if commutes.passed and not skipped else None
    surjective = is_surjective(f)
    return MapFacts(commutes, surjective, None if surjective else unreached(f), qi, skipped)


def _perm_maps(f) -> tuple:
    m = _map_facts(f)
    cone_ok = m.qi is not None and m.qi.passed
    return (m.commutes.passed and m.surjective and cone_ok,
            f"blow-down [{f.note}], surjective={str(m.surjective).lower()}, "
            f"cone acyclic={str(cone_ok).lower()}"
            + _fails("blow-down does not commute", m.commutes)
            + _fails("blow-down is not onto", m.unreached)
            + _lost_class("blow-down", m.qi)
            + ("; skipped: d2 failed" if m.skipped else ""))


def _fiber_maps(fib, maps: Maps) -> tuple:
    perm, simplex, p2s = maps
    p2f = perm_to_fiber(fib, perm)
    f2s = fiber_to_simplex(fib, simplex)
    p2f_m, f2s_m = _map_facts(p2f), _map_facts(f2s)
    chain_maps = all(m.commutes.passed and m.surjective for m in (p2f_m, f2s_m))
    cones_ok = all(m.qi is not None and m.qi.passed for m in (p2f_m, f2s_m))
    factors = verify_factorization(p2s, f2s, p2f) if chain_maps else None
    factor_ok = factors is not None and factors.passed
    # P_n is its own quotient, each cell its own row with sign 1, so column alpha of
    # p2f's commuting check compares sign * (column of t_alpha in d) with
    # pushforward(alpha): the comparison push_forward_well_defined makes
    # for every nondegenerate alpha.  A commuting p2f is well defined;
    # otherwise the check runs to name its tree.
    welldef = None if p2f_m.commutes.passed else push_forward_well_defined(fib)
    welldef_ok = welldef is None or welldef.passed
    return (chain_maps and cones_ok and factor_ok and welldef_ok,
            f"chain maps={str(chain_maps).lower()}, "
            f"cones acyclic={str(cones_ok).lower()}, "
            f"factorization={str(factor_ok).lower()}, "
            f"well-defined={str(welldef_ok).lower()}"
            + _fails("perm->fiber does not commute", p2f_m.commutes)
            + _fails("fiber->simplex does not commute", f2s_m.commutes)
            + _fails("perm->fiber is not onto", p2f_m.unreached)
            + _fails("fiber->simplex is not onto", f2s_m.unreached)
            + _lost_class("perm->fiber", p2f_m.qi)
            + _lost_class("fiber->simplex", f2s_m.qi)
            + _fails("blow-down does not factor through the fiber", factors)
            + ("" if welldef_ok else f"; not well defined at tree {welldef.label}")
            + ("; skipped: d2 failed" if p2f_m.skipped or f2s_m.skipped else ""))


def _run_checks(col: Collector, name: str, obj, checks, pages: int = -1,
                maps: Maps | None = None) -> None:
    """The check battery for a PermComplex, SimplexComplex or
    FiberComplex: d2, homology (``point_degree`` is the lowest degree),
    pages, koszul, maps.  The library decides each verdict and this
    words it; the wording of dims, koszul and maps depends on the kind
    of object, and a simplex has no pages, koszul or maps.  The maps
    check reads the caller's ``maps``; a P_n builds its own if none."""
    c = obj.complex
    fiber = isinstance(obj, FiberComplex)
    col.say(f"object: {name}")
    col.dims(name, c)
    if fiber:
        col.say("dims by blocks: " + " ".join(
            f"k={-r}:{c.dim(r)}" for r in reversed(c.degrees())))
    else:
        col.say("dims: " + " ".join(f"r={r}:{c.dim(r)}" for r in c.degrees()))
    d2 = verify_d_squared(c)
    if "d2" in checks:
        col.check(name, "d2", d2.passed,
                  "" if d2.passed else f"fails at degree {d2.degree}")
    if "homology" in checks:
        if not d2.passed:
            col.check(name, "homology", False, "skipped: d2 failed")
        else:
            h = homology_dims(c)
            bottom = c.degrees()[0]
            col.check(name, "homology", point_degree(c) == bottom,
                      _homology_detail(h) + _unexpected_class(c, h, bottom))
    if pages >= 0:
        if d2.passed:
            col.pages(name, c, pages)
        else:
            col.say("pages: skipped (d2 failed)")
            col.failed = True
    if "koszul" in checks:
        rep = koszul_check(obj)
        homology = _homology_detail(rep.homology) if rep.d_squared_ok else "skipped"
        detail = (f"homology {homology}; pages indexed by "
                  "(p, q) = (width, degree - width); the binomial row sits at q = -n-1"
                  if fiber else "E1 binomial row at q=-1, E2 single class at p=1")
        col.check(name, "koszul", rep.passed, detail + _koszul_failure(c, rep.failure))
    if "maps" in checks:
        col.check(name, "maps", *(_fiber_maps(obj, maps) if fiber
                                  else _perm_maps((maps or _maps(obj)).blowdown)))


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
    _check_n(args.n)
    checks = _parse_checks(args.checks)
    _check_pages(args.pages, args.n)
    col = _collector(args)
    perm = build_perm(args.n)
    _run_checks(col, f"P{args.n}", perm, checks, args.pages)
    if args.out:
        col.complexes[f"P{args.n}"] = perm.complex
    return _finish(col, args)


def cmd_simplex(args) -> int:
    _check_n(args.n)
    checks = _parse_checks(args.checks, allowed=("d2", "homology"))
    col = _collector(args)
    simplex = build_simplex(args.n)
    name = f"D{args.n - 1}"
    _run_checks(col, name, simplex, checks)
    if args.out:
        col.complexes[name] = simplex.complex
    return _finish(col, args)


def cmd_fiber(args) -> int:
    path = Path(args.graph)
    if not path.exists():
        raise InvalidInput(f"graph file not found: {path}")
    try:
        graph = load_graph(path)
    except OSError as exc:
        raise InvalidInput(f"cannot read graph file {path}: {exc.strerror}")
    except ValueError as exc:
        raise InvalidInput(f"bad graph file {path}: {exc}")
    if graph.n > FIBER_CAP:
        raise InvalidInput(f"graph has {graph.n} edges, above the cap {FIBER_CAP}")
    checks = _parse_checks(args.checks)
    _check_pages(args.pages, graph.n)
    if "maps" in checks and graph.n > PERM_CAP:
        raise InvalidInput(f"check maps builds P{graph.n}, "
                           f"above the ceiling {PERM_CAP}")
    col = _collector(args)
    fib = build_fiber(graph)
    maps = _maps(build_perm(graph.n)) if "maps" in checks else None
    name = path.stem
    _run_checks(col, name, fib, checks, args.pages, maps)
    if args.out:
        col.complexes[name] = fib.complex
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


def _suite_battery(graph, maps: Maps) -> tuple:
    """The suite's battery of the fiber of ``graph``, run under the empty
    object name, and the fiber's dims by degree.  A fiber depends only on
    the graph's line graph, so the suite runs this once per line graph and
    replays it under each graph's name; it keeps text, not the fiber."""
    fib = build_fiber(graph)
    battery = Collector()
    _run_checks(battery, "", fib, CHECK_TOKENS, maps=maps)
    return battery, {str(r): fib.complex.dim(r) for r in fib.complex.degrees()}


def cmd_suite(args) -> int:
    cap = args.cap
    if not 1 <= cap <= PERM_CAP:
        raise InvalidInput(f"--cap must be at least 1, got {cap}" if cap < 1 else
                           f"--cap {cap} is above the ceiling {PERM_CAP}")
    corpus = Path(args.corpus)
    if not corpus.is_dir():
        raise InvalidInput(f"corpus directory not found: {corpus}")
    manifest_path = corpus / "manifest.json"
    if not manifest_path.exists():
        raise InvalidInput(f"missing manifest: {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise InvalidInput(f"cannot read manifest {manifest_path}: {exc.strerror}")
    except ValueError as exc:
        raise InvalidInput(f"bad manifest {manifest_path}: {exc}")
    _check_manifest(manifest, manifest_path)
    graph_files = sorted(p for p in corpus.glob("*.edges"))
    if not graph_files:
        raise InvalidInput(f"no .edges files in {corpus}")
    col = _collector(args)

    @cache
    def maps_of(n: int) -> Maps:
        """P_n and its maps, built once for every fiber and the P_n battery."""
        return _maps(build_perm(n))

    batteries: dict = {}   # line graph -> _suite_battery of its fiber
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
        key = graph.line_graph()
        if key not in batteries:
            batteries[key] = _suite_battery(graph, maps_of(graph.n))
        battery, got = batteries[key]
        col.replay(name, battery)
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
        _run_checks(col, f"P{n}", maps_of(n).perm, CHECK_TOKENS, maps=maps_of(n))
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
    parser = _Parser(
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
    p.set_defaults(func=cmd_fiber)

    p = sub.add_parser("suite", help="run every check over a corpus directory")
    p.add_argument("--corpus", required=True,
                   help="directory of .edges files plus manifest.json")
    p.add_argument("--out", help="directory for CSV exports")
    p.add_argument("--cap", type=int, default=PERM_CAP,
                   help="most edges of a corpus graph, and the n of the "
                        "P_1..P_min(6, cap) battery (default and ceiling %(default)s)")
    p.set_defaults(func=cmd_suite)
    return parser


def _refuse(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INVALID


def _command(args) -> str:
    """The command and the size it was given, as an error line names them."""
    if args.command == "fiber":
        return f"fiber --graph {args.graph}"
    if args.command == "suite":
        return f"suite --corpus {args.corpus}"
    return f"{args.command} --n {args.n}"


def main(argv=None) -> int:
    """Run one command.  Input that is invalid, or too large for a fiber's
    budget or for memory, exits 2 with one ``error:`` line on stderr and
    nothing on stdout, and leaves --out as it found it: it moves in no
    export unless all are written, and takes back the directories it
    made, each while empty.  Any other exception keeps its traceback."""
    try:
        args = build_parser().parse_args(argv)
    except InvalidInput as exc:
        return _refuse(str(exc))
    out = [Path(args.out), *Path(args.out).parents] if args.out else []
    made = [path for path in out if not path.exists()]   # deepest first
    oom = f"out of memory in {_command(args)}"   # formed while memory is free
    try:
        return args.func(args)
    except (InvalidInput, FiberTooLarge) as exc:
        message = str(exc)
    except MemoryError:
        message = oom
    except SystemError as exc:
        # CPython 3.11 drops a MemoryError when it cannot allocate the
        # frame object for its traceback, and raises this one instead
        if str(exc) != "error return without exception set":
            raise
        message = oom
    # the failed run's frames are released here, before anything is printed
    with suppress(OSError):
        for path in made:
            path.rmdir()
    return _refuse(message)


if __name__ == "__main__":
    sys.exit(main())

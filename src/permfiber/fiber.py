"""Fibers of total graph contraction: the trees t_alpha, the fiber
chain complex with its width filtration, and the maps relating it to
the permutohedron and simplex complexes.

A connected multigraph with edges 1..n is contracted one block of a TO
partition alpha at a time, blocks applied left to right, least block
last.  The edges of a block join the vertex clusters they touch; the
block becomes a tree vertex whose children are the blocks that last
grew those clusters, so the least block labels the root.  The tree is
t_alpha, degenerate when some block's edges do not join the clusters
they touch into one.  The fiber complex is spanned by the distinct
nondegenerate t_alpha, each carried with a mod-2 order on its blocks,
modelled as a canonical block order plus a parity sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Sequence

from .complexes import (
    ChainComplex,
    ChainMap,
    homology_dims,
    page_dims,
    verify_d_squared,
)
from .linalg import SparseMatrix
from .polytopes import (
    PermComplex,
    SimplexComplex,
    blowdown_matrices,
    pushforward,
    quotient_complex,
)
from .topartitions import TOPartition, enumerate_topartitions, format_block, parity

DEFAULT_FIBER_CAP = 8


@dataclass(frozen=True, eq=True)
class MultiGraph:
    """Connected multigraph; edge ids are 1..n by position, loops allowed."""

    edges: tuple

    @staticmethod
    def from_edges(edges: Iterable) -> MultiGraph:
        edges = tuple((int(u), int(v)) for u, v in edges)
        if not edges:
            raise ValueError("graph needs at least one edge")
        if any(u < 0 or v < 0 for u, v in edges):
            raise ValueError("vertex ids must be nonnegative integers")
        g = MultiGraph(edges)
        if not g.is_connected():
            raise ValueError("graph is not connected")
        return g

    @property
    def n(self) -> int:
        return len(self.edges)

    def vertices(self) -> set:
        out = set()
        for u, v in self.edges:
            out.add(u)
            out.add(v)
        return out

    def is_connected(self) -> bool:
        verts = self.vertices()
        adjacency: dict = {v: set() for v in verts}
        for u, v in self.edges:
            adjacency[u].add(v)
            adjacency[v].add(u)
        start = next(iter(verts))
        seen = {start}
        stack = [start]
        while stack:
            for w in adjacency[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen == verts


def parse_graph(text: str) -> MultiGraph:
    """Edge list, one 'u v' pair per line; '#' starts a comment; edge ids
    are assigned 1..n in order of appearance."""
    edges = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: vertex ids must be integers") from exc
        edges.append((u, v))
    return MultiGraph.from_edges(edges)


def load_graph(path) -> MultiGraph:
    with open(path, encoding="utf-8") as handle:
        return parse_graph(handle.read())


def _find(parent: dict, x):
    """Union-find root of x in ``parent`` (absent keys are roots), with
    path compression."""
    root = x
    while parent.get(root, root) != root:
        root = parent[root]
    while parent.get(x, x) != x:
        parent[x], x = root, parent[x]
    return root


@dataclass(frozen=True, eq=True)
class FiberTree:
    """Rooted tree whose vertices carry disjoint blocks of edge ids.

    ``blocks`` are kept in the canonical order (sorted by smallest edge
    id); ``parent`` gives the parent index of each block, None at the
    root; ``order`` lists canonical indices in the order the blocks
    were applied, i.e. the chosen representative of the mod-2 order.
    A tree listed with an odd permutation of its blocks is the negative
    of the canonically ordered one.  A ``degenerate`` t_alpha carries
    the pieces its blocks split into, in the canonical order.
    """

    blocks: tuple
    parent: tuple
    order: tuple
    degenerate: bool = False

    @property
    def sign(self) -> int:
        return parity(self.order)

    @property
    def root_index(self) -> int:
        return self.parent.index(None)

    @property
    def root_block(self) -> tuple:
        return self.blocks[self.root_index]

    @property
    def width(self) -> int:
        return len(self.root_block)

    def children(self, i: int) -> list:
        return [j for j, p in enumerate(self.parent) if p == i]

    def canonical(self) -> FiberTree:
        return FiberTree(self.blocks, self.parent,
                         tuple(range(len(self.blocks))), self.degenerate)

    def label(self) -> str:
        n = max(max(b) for b in self.blocks)

        def render(i: int) -> str:
            inner = "{" + format_block(self.blocks[i], n) + "}"
            kids = sorted(self.children(i), key=lambda j: self.blocks[j][0])
            return "(" + inner + "".join(" " + render(j) for j in kids) + ")"

        return render(self.root_index)


def fiber_element(g: MultiGraph, alpha: TOPartition,
                  refinement: Sequence[int] | None = None) -> FiberTree:
    """t_alpha: apply alpha's blocks left to right (least block last) to
    the clusters of one vertex union-find.

    Merging a block's edges joins the clusters they touch into one or
    more components, the pieces of the block.  Each piece becomes the
    parent of the pieces that last grew the clusters it joins.  The
    element is degenerate when some block splits into more than one
    piece; its tree then carries the pieces as blocks, and the maps
    below send it to zero.  ``refinement`` may set the order in which
    the edges are merged, as long as it lists each block contiguously
    in block order; the result does not depend on it.
    """
    if alpha.n != g.n:
        raise ValueError(f"partition of 1..{alpha.n} does not match {g.n} edges")
    chunks = alpha.blocks
    if refinement is not None:
        refinement, chunks, position = list(refinement), [], 0
        for block in alpha.blocks:
            chunks.append(refinement[position:position + len(block)])
            if set(chunks[-1]) != set(block):
                raise ValueError("refinement does not list the blocks in order")
            position += len(block)
        if position != len(refinement):
            raise ValueError("refinement has the wrong length")
    clusters: dict = {}   # vertex union-find
    grown: dict = {}      # cluster root -> the piece that last grew it
    pieces: list = []     # edge ids of each piece, in the order made
    parent: list = []     # index of each piece's parent piece, or None
    for chunk in chunks:
        ends = [g.edges[e - 1] for e in chunk]
        touched = {_find(clusters, v) for uv in ends for v in uv}
        for u, v in ends:
            ru, rv = _find(clusters, u), _find(clusters, v)
            if ru != rv:
                clusters[ru] = rv
        own: dict = {}    # root after the merge -> edges of its piece
        for e, (u, _) in zip(chunk, ends):
            own.setdefault(_find(clusters, u), []).append(e)
        made = {root: len(pieces) + i for i, root in enumerate(own)}
        pieces.extend(tuple(sorted(edges)) for edges in own.values())
        parent.extend([None] * len(own))
        for r in touched:
            child = grown.pop(r, None)
            if child is not None:
                parent[child] = made[_find(clusters, r)]
        grown.update(made)
    ranked = sorted(range(len(pieces)), key=pieces.__getitem__)
    at = [0] * len(pieces)  # piece -> its index in the canonical order
    for i, j in enumerate(ranked):
        at[j] = i
    degenerate = len(pieces) != len(alpha.blocks)
    return FiberTree(tuple(pieces[j] for j in ranked),
                     tuple(None if parent[j] is None else at[parent[j]]
                           for j in ranked),
                     tuple(range(len(pieces))) if degenerate else tuple(at),
                     degenerate)


def canonical_representative(tree: FiberTree) -> TOPartition:
    """TO partition applying children before parents (ties broken by the
    smallest edge id), so the root block comes last."""
    remaining = {i: set(tree.children(i)) for i in range(len(tree.blocks))}
    placed: list = []
    ready = sorted((i for i, kids in remaining.items() if not kids),
                   key=lambda i: tree.blocks[i][0])
    pending = {i for i in remaining if remaining[i]}
    while ready:
        i = ready.pop(0)
        placed.append(i)
        p = tree.parent[i]
        if p is not None:
            remaining[p].discard(i)
            if not remaining[p] and p in pending:
                pending.discard(p)
                ready.append(p)
                ready.sort(key=lambda i: tree.blocks[i][0])
    n = max(max(b) for b in tree.blocks)
    return TOPartition(n, tuple(tree.blocks[i] for i in placed))


@dataclass(frozen=True)
class FiberComplex:
    """Chain complex of the fiber over total contraction of ``graph``,
    filtered by width (the size of the root block); the k-block trees
    sit in degree -k.  ``images`` records t_alpha once for every TO
    partition alpha: it maps each nondegenerate alpha to the label of
    its tree and its sign, and leaves out the degenerate ones.
    ``cells`` maps each degree to the canonical representatives of its
    trees in basis order, like ``PermComplex.cells``."""

    graph: MultiGraph
    complex: ChainComplex
    trees: dict       # label -> canonical FiberTree
    images: dict      # TOPartition alpha -> (tree label, sign of t_alpha)
    cells: dict       # degree -> canonical representatives in basis order

    @property
    def n(self) -> int:
        return self.graph.n


def build_fiber(g: MultiGraph, cap: int = DEFAULT_FIBER_CAP) -> FiberComplex:
    """P_n divided out by alpha -> sign * t_alpha, degenerate alpha -> 0."""
    n = g.n
    if n > cap:
        raise ValueError(f"graph has {n} edges, above the cap {cap}")
    trees: dict = {}
    images: dict = {}
    labels: dict = {}     # (blocks, parent) -> label, rendered once per tree
    for alpha in enumerate_topartitions(n):
        t = fiber_element(g, alpha)
        if t.degenerate:
            continue
        lab = labels.get((t.blocks, t.parent))
        if lab is None:
            lab = labels[t.blocks, t.parent] = t.label()
            trees[lab] = t.canonical()
        images[alpha] = (lab, t.sign)
    basis: dict = {}
    for lab in sorted(trees):
        basis.setdefault(-len(trees[lab].blocks), []).append(lab)
    cells = {r: tuple(canonical_representative(trees[lab]) for lab in labels)
             for r, labels in basis.items()}
    return FiberComplex(g, quotient_complex(basis, cells, images.get),
                        trees, images, cells)


def perm_to_fiber(fiber: FiberComplex, perm: PermComplex) -> ChainMap:
    """Chain map of shift -n sending a TO partition alpha to t_alpha
    with the sign relating alpha's block order to the canonical one,
    and to zero when t_alpha is degenerate.  Surjective and width
    preserving; for star graphs it is a degreewise bijection."""
    n, source, target = fiber.n, perm.complex, fiber.complex
    matrices = {}
    for r, alphas in perm.cells.items():
        row_index = {lab: i for i, lab in enumerate(target.labels(r - n))}
        entries = {}
        for j, alpha in enumerate(alphas):
            image = fiber.images.get(alpha)
            if image is not None:
                lab, sign = image
                entries[(row_index[lab], j)] = sign
        if entries:
            matrices[r] = SparseMatrix.from_entries(
                target.dim(r - n), source.dim(r), entries)
    return ChainMap.build(source, target, -n, matrices, note="alpha -> t_alpha")


def fiber_to_simplex(fiber: FiberComplex, simplex: SimplexComplex) -> ChainMap:
    """Chain map of shift +n sending a tree to its root block when the
    tree's canonical representative is in the support of the blow-down
    (every non-root block a singleton), and every other tree to zero;
    the coefficients are fixed by factoring the permutohedron blow-down
    through the fiber."""
    matrices = blowdown_matrices(fiber.cells, fiber.images.get, simplex)
    return ChainMap.build(fiber.complex, simplex.complex, fiber.n, matrices,
                          note="root block of singleton-fringe trees")


@dataclass(frozen=True)
class WellDefinednessReport:
    passed: bool
    checked: int
    label: str | None = None  # a tree whose representatives disagree
    detail: str = ""


def push_forward_well_defined(fiber: FiberComplex) -> WellDefinednessReport:
    """Check that every TO partition alpha with a nondegenerate t_alpha
    pushes its differential forward to the stored differential of its
    tree, times the sign of t_alpha.  One pass over ``images``, against
    the columns of d read once."""
    c = fiber.complex
    columns: dict = {}    # tree label -> {target label: coefficient}
    for r, d in c.differentials.items():
        source, target = c.labels(r), c.labels(r - 1)
        for (i, j), value in d.entries.items():
            columns.setdefault(source[j], {})[target[i]] = value
    checked = 0
    for alpha, (lab, sign) in fiber.images.items():
        expected = {t: sign * v for t, v in columns.get(lab, {}).items()}
        if pushforward(alpha, fiber.images.get) != expected:
            return WellDefinednessReport(
                False, checked, lab,
                detail=f"pushforward of {alpha.pretty()} disagrees")
        checked += 1
    return WellDefinednessReport(True, checked)


_PAGES_NOTE = ("pages indexed by (p, q) = (width, degree - width); "
               "the binomial row sits at q = {}")


@dataclass(frozen=True)
class KoszulReport:
    n: int
    d_squared_ok: bool
    homology: dict
    homology_ok: bool
    pages: dict            # r -> PageTable for r = 1, 2; empty if d^2 != 0
    e1_ok: bool
    e2_ok: bool
    note: str = _PAGES_NOTE.format("-n-1")

    @property
    def passed(self) -> bool:
        return self.d_squared_ok and self.homology_ok and self.e1_ok and self.e2_ok


def koszul_check(obj) -> KoszulReport:
    """One homology class in the bottom degree, an E^1 page that is a
    single row of binomial dimensions at q = bottom - 1, and an E^2 page
    with a single class at width 1.

    ``obj`` is a PermComplex (bottom degree 0) or a FiberComplex (bottom
    degree -n).  Only the E^1 and E^2 pages are computed, and none when
    d^2 != 0.
    """
    n, c = obj.n, obj.complex
    row = "-1" if isinstance(obj, PermComplex) else "-n-1"
    bottom = c.degrees()[0]
    d2_ok = verify_d_squared(c).passed
    homology = homology_dims(c) if d2_ok else {}
    homology_ok = homology == {r: int(r == bottom) for r in c.degrees()}
    pages = {r: page_dims(c, r) for r in (1, 2)} if d2_ok else {}
    e1_ok = d2_ok and pages[1].dims == {(p, bottom - 1): comb(n, p)
                                        for p in range(1, n + 1)}
    e2_ok = d2_ok and pages[2].dims == {(1, bottom - 1): 1}
    return KoszulReport(n, d2_ok, homology, homology_ok, pages, e1_ok, e2_ok,
                        note=_PAGES_NOTE.format(row))

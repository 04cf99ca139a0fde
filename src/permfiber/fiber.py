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

Edge sets are held as bitmasks, edge e at bit e-1.  The edges of each
vertex cluster after contracting any edge set, the components of the
line graph (which edges share a vertex) on that set, are read from one
table per graph, built from the line graph alone.  So a graph reaches
its fiber only through n and its line graph, and graphs with equal line
graphs have equal fibers.  A block is one lookup in that table: the
fiber builder walks the block prefixes once, sharing each prefix
between the TO partitions that extend it, and drops a prefix as soon
as a block of it is degenerate.  A tree is its nested
set, the clusters of its blocks, held as one int with a bit per cluster
mask.  The walk takes blocks in ascending least edge, so the first TO
partition it reaches for a tree is the tree's canonical representative
(see ``build_fiber``), and each tree's label is rendered once, from that
partition.  The build makes no FiberTree: a fiber's ``trees`` are built
from its representatives on first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush
from math import comb
from typing import Iterable, Sequence

from .complexes import (
    ChainComplex,
    ChainMap,
    homology_dims,
    page_dims,
    point_degree,
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
from .topartitions import TOPartition, format_block, parity

FIBER_CAP = 9   # the most edges build_fiber admits: Fubini(9) TO partitions to walk


@dataclass(frozen=True, eq=True)
class MultiGraph:
    """Connected multigraph; edge ids are 1..n by position, loops allowed.
    ``_cache`` holds its ``_cluster_table``, built on first use."""

    edges: tuple
    _cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @staticmethod
    def from_edges(edges: Iterable) -> MultiGraph:
        edges = tuple((u, v) for u, v in edges)
        if not edges:
            raise ValueError("graph needs at least one edge")
        if any(type(x) is not int or x < 0 for edge in edges for x in edge):
            raise ValueError("vertex ids must be nonnegative integers")
        g = MultiGraph(edges)
        if not g.is_connected():
            raise ValueError("graph is not connected")
        return g

    @property
    def n(self) -> int:
        return len(self.edges)

    def vertices(self) -> set:
        return {v for edge in self.edges for v in edge}

    def line_graph(self) -> tuple:
        """One edge mask per edge: the edges that share a vertex with it,
        itself included."""
        touching: dict = {}   # vertex -> the edges at it
        for e, (u, v) in enumerate(self.edges):
            touching[u] = touching.get(u, 0) | 1 << e
            touching[v] = touching.get(v, 0) | 1 << e
        return tuple(touching[u] | touching[v] for u, v in self.edges)

    def is_connected(self) -> bool:
        parent: dict = {}
        for u, v in self.edges:
            parent[_find(parent, u)] = _find(parent, v)
        return len({_find(parent, v) for v in self.vertices()}) == 1


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


def _cluster_table(g: MultiGraph) -> list:
    """One row per edge mask ``done``: for each edge e of ``done``, the
    edges of its component in the line graph restricted to ``done`` (the
    edges of the vertex cluster holding e once the edges in ``done`` are
    contracted), as an edge mask; 0 for an edge outside ``done``.  Read
    from ``g.line_graph()`` alone, a row at a time: the row of ``done``
    is the row without its top edge, with that edge's component, the
    edge and the components it touches, written over each of their
    edges.  Built once per graph (2**n rows) and cached on it."""
    table = g._cache.get("clusters")
    if table is None:
        lines = g.line_graph()
        table = [(0,) * g.n]
        for done in range(1, 1 << g.n):
            top = done.bit_length() - 1
            row = list(table[done ^ 1 << top])
            cluster = 1 << top
            touched = lines[top] & done ^ cluster
            while touched:
                cluster |= row[(touched & -touched).bit_length() - 1]
                touched &= ~cluster
            rest = cluster
            while rest:
                row[(rest & -rest).bit_length() - 1] = cluster
                rest &= rest - 1
            table.append(tuple(row))
        g._cache["clusters"] = table
    return table


def _step(table: list, done: int, block: int, edge: int) -> tuple:
    """One block of t_alpha: contract the edges of ``block`` after those
    of ``done``.  Returns the piece of the block that holds ``edge`` (one
    bit of ``block``) and the vertex cluster it ends in, both edge masks.
    The cluster holds the piece and every earlier edge below it, so it is
    the edge set of the piece's subtree; the block is nondegenerate when
    this piece is the whole block."""
    cluster = table[done | block][edge.bit_length() - 1]
    return block & cluster, cluster


@dataclass(frozen=True, eq=True)
class FiberTree:
    """Rooted tree whose vertices carry disjoint blocks of edges.

    ``blocks`` are edge masks, edge e at bit e-1, kept in the canonical
    order (sorted by smallest edge id); ``parent`` gives the parent
    index of each block, None at the root; ``order`` lists canonical
    indices in the order the blocks were applied, i.e. the chosen
    representative of the mod-2 order.
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
    def root_block(self) -> int:
        return self.blocks[self.root_index]

    @property
    def width(self) -> int:
        return self.root_block.bit_count()

    def child_lists(self) -> list:
        """The children of every block, by index, from one pass over
        ``parent``; index order is the canonical order."""
        kids: list = [[] for _ in self.blocks]
        for j, p in enumerate(self.parent):
            if p is not None:
                kids[p].append(j)
        return kids

    def canonical(self) -> FiberTree:
        return FiberTree(self.blocks, self.parent,
                         tuple(range(len(self.blocks))), self.degenerate)

    def label(self) -> str:
        n = max(self.blocks).bit_length()
        return _render(self, self.child_lists(), n, self.root_index)


def _render(tree: FiberTree, kids: list, n: int, i: int) -> str:
    """Label of the subtree at block i, children in index order."""
    inner = "{" + format_block(tree.blocks[i], n) + "}"
    return "(" + inner + "".join(" " + _render(tree, kids, n, j) for j in kids[i]) + ")"


def fiber_element(g: MultiGraph, alpha: TOPartition) -> FiberTree:
    """t_alpha: apply alpha's blocks left to right (least block last) to
    the vertex clusters of ``g``.

    Contracting a block's edges joins the clusters they touch into one
    or more components, the pieces of the block.  Each piece becomes the
    parent of the pieces that last grew the clusters it joins.  The
    element is degenerate when some block splits into more than one
    piece; its tree then carries the pieces as blocks, and the maps
    below send it to zero.
    """
    if alpha.n != g.n:
        raise ValueError(f"partition of 1..{alpha.n} does not match {g.n} edges")
    table = _cluster_table(g)
    done = 0
    pieces: list = []     # each piece, in the order made
    clusters: list = []   # the vertex cluster each piece ends in
    for block in alpha.blocks:
        rest = block
        while rest:
            piece, cluster = _step(table, done, block, rest & -rest)
            rest ^= piece
            pieces.append(piece)
            clusters.append(cluster)
        done |= block
    return _tree(pieces, clusters, len(pieces) != len(alpha.blocks))


def _tree(pieces: Sequence, clusters: Sequence, degenerate: bool) -> FiberTree:
    """t_alpha from its pieces and the clusters they end in, in the order
    made.  Clusters only grow, so a piece's parent is the next piece whose
    cluster meets its own: the one that next grew its cluster."""
    k = len(pieces)
    parent = [next((j for j in range(i + 1, k) if clusters[j] & clusters[i]), None)
              for i in range(k)]
    ranked = sorted(range(k), key=lambda j: pieces[j] & -pieces[j])
    at = [0] * k          # piece -> its index in the canonical order
    for i, j in enumerate(ranked):
        at[j] = i
    return FiberTree(tuple(pieces[j] for j in ranked),
                     tuple(None if parent[j] is None else at[parent[j]]
                           for j in ranked),
                     tuple(range(k)) if degenerate else tuple(at),
                     degenerate)


def canonical_representative(tree: FiberTree) -> TOPartition:
    """TO partition applying children before parents (ties broken by the
    smallest edge id), so the root block comes last."""
    waiting = [len(kids) for kids in tree.child_lists()]
    ready = [i for i, w in enumerate(waiting) if not w]  # sorted, so a heap
    placed: list = []
    while ready:
        i = heappop(ready)
        placed.append(i)
        p = tree.parent[i]
        if p is not None:
            waiting[p] -= 1
            if not waiting[p]:
                heappush(ready, p)
    n = max(tree.blocks).bit_length()
    return TOPartition(n, tuple(tree.blocks[i] for i in placed))


@dataclass(frozen=True)
class FiberComplex:
    """Chain complex of the fiber over total contraction of ``graph``,
    filtered by width (the size of the root block); the k-block trees
    sit in degree -k.  ``images`` maps the block masks of every TO
    partition alpha with a nondegenerate t_alpha to the row of its tree
    within its degree and the sign of t_alpha: ``images.get`` is the
    quotient's image (``pushforward``).  Its entries come in walk order,
    the order ``build_fiber`` reaches the alpha.  ``cells`` maps each
    degree to the canonical representatives of its trees in basis order,
    each the first alpha of its tree in that order."""

    graph: MultiGraph
    complex: ChainComplex
    images: dict      # block masks of alpha -> (row of t_alpha, its sign)
    cells: dict       # degree -> canonical representatives in basis order

    @property
    def n(self) -> int:
        return self.graph.n

    @cached_property
    def trees(self) -> dict:
        """Each basis label -> its canonical tree, one entry per basis
        cell, built from ``cells`` on first read; no verdict reads them."""
        trees = (fiber_element(self.graph, alpha).canonical()
                 for alphas in self.cells.values() for alpha in alphas)
        return {tree.label(): tree for tree in trees}


def build_fiber(g: MultiGraph) -> FiberComplex:
    """P_n divided out by alpha -> sign * t_alpha, degenerate alpha -> 0.

    One depth-first walk over the block prefixes of the TO partitions.
    A prefix is the edges contracted so far with its blocks, and a child
    applies one more block, a nonempty set of the edges left.  A
    degenerate block makes every completion degenerate, so its subtree
    is skipped, and the leaves are the nondegenerate alpha.  A prefix
    also carries its nested set, the clusters of its blocks (each
    block's subtree edges), as an int with bit ``cluster`` set for each,
    and a tree is known by that mask.

    The children of a prefix are taken in ascending least edge (among
    those with the least one, the whole remainder first: it is a leaf).
    The alpha of one tree are the orders of its blocks that put children
    before parents.  Two of them first differ at two disjoint blocks,
    whose least edges differ, and the walk reaches the one with the
    smaller least edge there first; so the first alpha of each tree is
    its least such order by least edges, ``canonical_representative``.
    Each tree's label is rendered once, bottom up, from that alpha
    (``_label``); no FiberTree is made.

    The sign of t_alpha is the parity of its order, which lists the
    canonical ranks of alpha's blocks, so it is the parity of the
    blocks' least edges in alpha's order.  Each prefix carries that
    parity so far, with the mask of the least edges seen: a block with
    least edge m adds one inversion for each seen least edge above m.
    ``images`` holds a tree's number, complemented when the sign is -1,
    until the sorted labels give its row.
    """
    n = g.n
    if n > FIBER_CAP:
        raise ValueError(f"graph has {n} edges, above the cap {FIBER_CAP}")
    table = _cluster_table(g)
    full = (1 << n) - 1
    found: list = []      # the canonical representatives, in the order found
    images: dict = {}
    tree_of: dict = {}    # nested-set mask -> its tree's index in found
    steps: list = [None] * (full + 1)   # edges contracted -> _steps
    # (edges contracted, blocks, nested-set mask, least edges seen, sign)
    prefixes = [(0, (), 0, 0, 1)]
    while prefixes:
        done, blocks, nest, seen, sign = prefixes.pop()
        inner, leaf = steps[done] or _steps(table, steps, full, done)
        for block, bit, least, shift in inner:
            prefixes.append((done | block, blocks + (block,), nest | bit, seen | least,
                             -sign if (seen >> shift).bit_count() & 1 else sign))
        if leaf:
            block, bit, _, shift = leaf
            alpha = blocks + (block,)
            t = tree_of.get(nest | bit)
            if t is None:
                t = tree_of[nest | bit] = len(found)
                found.append(alpha)
            after = -sign if (seen >> shift).bit_count() & 1 else sign
            images[alpha] = t if after == 1 else ~t
    heads = ["({" + format_block(block, n) + "}" for block in range(full + 1)]
    labels = [_label(table, heads, alpha) for alpha in found]
    basis: dict = {}
    cells: dict = {}
    row = [0] * len(found)
    for t in sorted(range(len(found)), key=labels.__getitem__):
        r = -len(found[t])
        degree = basis.setdefault(r, [])
        row[t] = len(degree)
        degree.append(labels[t])
        cells.setdefault(r, []).append(TOPartition(n, found[t]))
    plus = [(i, 1) for i in row]
    minus = [(i, -1) for i in row]
    for alpha, t in images.items():
        images[alpha] = plus[t] if t >= 0 else minus[~t]
    cells = {r: tuple(alphas) for r, alphas in cells.items()}
    return FiberComplex(g, quotient_complex(basis, cells, images.get), images, cells)


def _steps(table: list, steps: list, full: int, done: int) -> tuple:
    """The nondegenerate blocks that can follow the edges ``done``, each
    as ``(block, 1 << its cluster, its least edge, that edge's index +
    1)``, cached in ``steps[done]``: those that leave edges, in the order
    the walk pushes them, and the one holding every edge left (a leaf,
    taken before them), or None when it is degenerate.  The pushes go by
    descending least edge and then by ascending block, so the walk pops
    them by ascending least edge, the largest block first."""
    left = full ^ done
    inner, leaf = [], None
    below = left
    while below:
        least = 1 << below.bit_length() - 1
        below ^= least
        upper = left ^ below ^ least    # the edges left above the least
        edge = least.bit_length() - 1
        rest = 0
        while True:
            block = least | rest
            cluster = table[done | block][edge]
            if cluster & block == block:
                step = (block, 1 << cluster, least, edge + 1)
                if block == left:
                    leaf = step
                else:
                    inner.append(step)
            rest = rest - upper & upper
            if not rest:
                break
    steps[done] = inner, leaf
    return steps[done]


def _label(table: list, heads: list, alpha: tuple) -> str:
    """The label of the tree whose canonical representative has blocks
    ``alpha``, in one pass over them.  Blocks come children first, so a
    block's children are the subtrees still without a parent whose
    clusters meet its own, and its label is ``heads[block]``, the
    children's labels by least edge, and ")"."""
    loose: list = []      # (least edge, cluster, label) of parentless subtrees
    done = 0
    for block in alpha:
        done |= block
        least = block & -block
        cluster = table[done][least.bit_length() - 1]
        if cluster == block:
            label = heads[block] + ")"
        else:
            kids, rest = [], []
            for entry in loose:
                (kids if entry[1] & cluster else rest).append(entry)
            kids.sort()
            label = heads[block] + "".join([" " + entry[2] for entry in kids]) + ")"
            loose = rest
        loose.append((least, cluster, label))
    return label


def perm_to_fiber(fiber: FiberComplex, perm: PermComplex) -> ChainMap:
    """Chain map of shift -n sending a TO partition alpha to t_alpha
    with the sign relating alpha's block order to the canonical one,
    and to zero when t_alpha is degenerate.  Surjective and width
    preserving; for star graphs it is a degreewise bijection."""
    n, source, target = fiber.n, perm.complex, fiber.complex
    if perm.n != n:
        raise ValueError(f"perm_to_fiber needs P_{n} for a fiber of {n} edges, "
                         f"got P_{perm.n}")
    matrices = {}
    for r, alphas in perm.cells.items():
        hits = [fiber.images.get(alpha.blocks) for alpha in alphas]
        if any(hits):   # a hit (row, sign) is the column {row: sign}
            matrices[r] = SparseMatrix(target.dim(r - n),
                                       tuple(dict([hit]) if hit else {} for hit in hits))
    return ChainMap.build(source, target, -n, matrices, note="alpha -> t_alpha")


def fiber_to_simplex(fiber: FiberComplex, simplex: SimplexComplex) -> ChainMap:
    """Chain map of shift +n sending a tree to its root block when the
    tree's canonical representative is in the support of the blow-down
    (every non-root block a singleton), and every other tree to zero;
    the coefficients are fixed by factoring the permutohedron blow-down
    through the fiber."""
    if simplex.n != fiber.n:
        raise ValueError(f"fiber_to_simplex needs the simplex on {fiber.n} vertices "
                         f"for a fiber of {fiber.n} edges, got {simplex.n} vertices")
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
    the column of d at the tree's row."""
    c = fiber.complex
    checked = 0
    for blocks, (row, sign) in fiber.images.items():
        d = c.differentials.get(-len(blocks))
        want = {} if d is None else {i: sign * v for i, v in d.columns[row].items()}
        if pushforward(blocks, fiber.images.get) != want:
            alpha = TOPartition(fiber.n, blocks)
            return WellDefinednessReport(
                False, checked, c.labels(-len(blocks))[row],
                detail=f"pushforward of {alpha.pretty()} disagrees")
        checked += 1
    return WellDefinednessReport(True, checked)


@dataclass(frozen=True)
class KoszulReport:
    """The verdicts of ``koszul_check`` and what they read; no wording."""
    n: int
    d_squared_ok: bool
    homology: dict
    homology_ok: bool
    pages: dict            # r -> PageTable for r = 1, 2; empty if d^2 != 0
    e1_ok: bool
    e2_ok: bool

    @property
    def passed(self) -> bool:
        return self.d_squared_ok and self.homology_ok and self.e1_ok and self.e2_ok


def koszul_check(obj) -> KoszulReport:
    """One homology class in the bottom degree (``point_degree``), an
    E^1 page that is a single row of binomial dimensions at q = bottom
    - 1, and an E^2 page with a single class at width 1.

    ``obj`` is a PermComplex (bottom degree 0) or a FiberComplex (bottom
    degree -n); the check reads only its n and complex, and the caller
    words the result.  Only the E^1 and E^2 pages are computed, and
    none when d^2 != 0."""
    n, c = obj.n, obj.complex
    bottom = c.degrees()[0]
    d2_ok = verify_d_squared(c).passed
    homology = homology_dims(c) if d2_ok else {}
    homology_ok = d2_ok and point_degree(c) == bottom
    pages = {r: page_dims(c, r) for r in (1, 2)} if d2_ok else {}
    e1_ok = d2_ok and pages[1].dims == {(p, bottom - 1): comb(n, p)
                                        for p in range(1, n + 1)}
    e2_ok = d2_ok and pages[2].dims == {(1, bottom - 1): 1}
    return KoszulReport(n, d2_ok, homology, homology_ok, pages, e1_ok, e2_ok)

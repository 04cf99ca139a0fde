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

Edge sets are held as bitmasks, edge e at bit e-1, and a TO partition
as the tuple of its block masks.  The edges of each vertex cluster
after contracting any edge set, the components of the line graph
(which edges share a vertex) on that set, are read from one table per
line graph, kept for the life of the process, so graphs with equal
line graphs have equal fibers and share one table; a graph is a plain
record of its edges.  The fiber builder walks the block prefixes once,
a block one lookup in that table, and reaches each tree first at its
canonical representative (see ``build_fiber``).  It makes no
FiberTree: a fiber's ``trees`` are built from its cells on first read.

The fiber complex is P_n divided out by alpha -> sign * t_alpha, and
its ``images`` dict is that quotient's image.  The quotient builder
(``pushforward``, ``quotient_complex``) reads that dict and lives here.
"""

from __future__ import annotations

from functools import cache, cached_property, reduce
from heapq import heappop, heappush
from math import comb
from typing import Iterable, NamedTuple, Sequence

from .complexes import (
    ChainComplex,
    ChainMap,
    homology_dims,
    page_dims,
    point_degree,
    verify_d_squared,
)
from .linalg import SparseMatrix
from .polytopes import PermComplex, SimplexComplex, blowdown_table
from .topartitions import TOPartition, block_splits, format_block, parity, width

FIBER_CAP = 9   # the most edges build_fiber admits: 2**9 rows of its cluster table
TREE_BUDGET = 545_835      # the most trees build_fiber builds: Fubini(8), so 8 edges fit
ORDER_BUDGET = 2_500_000   # the most nondegenerate alpha it walks: cycle9 has 2,345,851


class FiberTooLarge(ValueError):
    """``build_fiber`` found more trees or nondegenerate alpha than its budget."""


class MultiGraph(NamedTuple):
    """Connected multigraph; edge ids are 1..n by position, loops allowed."""

    edges: tuple

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


@cache
def _cluster_table(lines: tuple) -> list:
    """One row per edge mask ``done``: for each edge e of ``done``, the
    edges of its component in the line graph ``lines`` (as
    ``MultiGraph.line_graph`` gives it) restricted to ``done`` (the edges
    of the vertex cluster holding e once the edges in ``done`` are
    contracted), as an edge mask; 0 for an edge outside ``done``.  Built
    a row at a time: the row of ``done`` is the row without its top
    edge, with that edge's component, the edge and the components it
    touches, written over each of their edges.  Built once per distinct
    line graph (2**n rows) and kept for the life of the process, so
    graphs with equal line graphs share one table."""
    table = [(0,) * len(lines)]
    for done in range(1, 1 << len(lines)):
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


class FiberTree(NamedTuple):
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


def fiber_element(g: MultiGraph, blocks: tuple) -> FiberTree:
    """t_alpha, for alpha with block masks ``blocks``: apply them left to
    right (least block last) to the vertex clusters of ``g``.

    Contracting a block's edges joins the clusters they touch into one
    or more components, the pieces of the block.  Each piece becomes the
    parent of the pieces that last grew the clusters it joins.  The
    element is degenerate when some block splits into more than one
    piece; its tree then carries the pieces as blocks, and the maps
    below send it to zero.
    """
    if 0 in blocks or not sum(blocks) == reduce(int.__or__, blocks, 0) == (1 << g.n) - 1:
        raise ValueError(f"blocks {blocks!r} do not partition the {g.n} edges")
    table = _cluster_table(g.line_graph())
    done = 0
    pieces: list = []     # each piece, in the order made
    clusters: list = []   # the vertex cluster each piece ends in
    for block in blocks:
        rest = block
        while rest:
            piece, cluster = _step(table, done, block, rest & -rest)
            rest ^= piece
            pieces.append(piece)
            clusters.append(cluster)
        done |= block
    return _tree(pieces, clusters, len(pieces) != len(blocks))


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


def canonical_representative(tree: FiberTree) -> tuple:
    """The block masks of the TO partition applying children before
    parents (ties broken by the smallest edge id), so the root block
    comes last."""
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
    return tuple(tree.blocks[i] for i in placed)


class FiberComplex:
    """Chain complex of the fiber over total contraction of ``graph``,
    filtered by width (the size of the root block); the k-block trees
    sit in degree -k.  ``images`` maps the block masks of every TO
    partition alpha with a nondegenerate t_alpha to the row of its tree
    within its degree and the sign of t_alpha: the quotient's image,
    which ``pushforward`` reads.  Its entries come in walk order, the
    order ``build_fiber`` reaches the alpha.  ``cells`` maps each
    degree to the canonical representatives of its trees in basis order,
    each the first alpha of its tree in that order and the very tuple
    that keys it in ``images``."""

    def __init__(self, graph: MultiGraph, complex: ChainComplex, images: dict,
                 cells: dict):
        self.graph = graph
        self.complex = complex
        self.images = images  # block masks of alpha -> (row of t_alpha, its sign)
        self.cells = cells    # degree -> canonical representatives in basis order

    def __eq__(self, other):
        if type(other) is not FiberComplex:
            return NotImplemented
        return ((self.graph, self.complex, self.images, self.cells)
                == (other.graph, other.complex, other.images, other.cells))

    def __repr__(self) -> str:
        return (f"FiberComplex(graph={self.graph!r}, complex={self.complex!r}, "
                f"images={self.images!r}, cells={self.cells!r})")

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
    block's subtree edges), as an int with bit ``cluster`` set for each.
    A tree is known by the mask of the prefix before its root block,
    whose cluster is the whole graph in every tree.

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
    canonical ranks of alpha's blocks, so it is ``parity`` of the
    blocks' least edges in alpha's order.  Each prefix carries that
    rule's count so far, with the mask of the least edges seen: a block
    with least edge m adds one inversion for each seen least edge above
    m, so a leaf costs one step, not one ``parity`` call over its blocks.
    ``images`` holds a tree's number, complemented when the sign is -1,
    until the sorted labels give its row.

    The walk raises ``FiberTooLarge`` once it finds more than
    ``TREE_BUDGET`` trees or ``ORDER_BUDGET`` nondegenerate alpha.
    """
    n = g.n
    if n > FIBER_CAP:
        raise ValueError(f"graph has {n} edges, above the cap {FIBER_CAP}")
    table = _cluster_table(g.line_graph())
    full = (1 << n) - 1
    found: list = []      # the canonical representatives, in the order found
    images: dict = {}
    tree_of: dict = {}    # nested-set mask below the root -> its tree's index in found
    steps: list = [None] * (full + 1)   # edges contracted -> _steps
    # (edges contracted, blocks, nested-set mask, least edges seen, sign)
    prefixes = [(0, (), 0, 0, 1)]
    while prefixes:
        done, blocks, nest, seen, sign = prefixes.pop()
        inner, root = steps[done] or _steps(table, steps, full, done)
        for block, bit, least, shift in inner:
            prefixes.append((done | block, blocks + (block,), nest | bit, seen | least,
                             -sign if (seen >> shift).bit_count() & 1 else sign))
        alpha = blocks + (root,)
        t = tree_of.get(nest)
        if t is None:
            t = tree_of[nest] = len(found)
            found.append(alpha)
            if t == TREE_BUDGET:
                raise FiberTooLarge(f"fiber has more than the budget of {TREE_BUDGET} trees")
        after = -sign if (seen >> (root & -root).bit_length()).bit_count() & 1 else sign
        images[alpha] = t if after == 1 else ~t
        if len(images) > ORDER_BUDGET:
            raise FiberTooLarge(f"fiber has more than the budget of {ORDER_BUDGET} "
                                "nondegenerate orders")
    heads = ["({" + format_block(block, n) + "}" for block in range(full + 1)]
    labels = [_label(table, heads, alpha) for alpha in found]
    row = [0] * len(found)
    members: dict = {}    # degree -> its trees in label order
    for t in sorted(range(len(found)), key=labels.__getitem__):
        degree = members.setdefault(-len(found[t]), [])
        row[t] = len(degree)
        degree.append(t)
    plus = [(i, 1) for i in row]
    minus = [(i, -1) for i in row]
    for alpha, t in images.items():
        images[alpha] = plus[t] if t >= 0 else minus[~t]
    basis = {r: tuple(map(labels.__getitem__, ts)) for r, ts in members.items()}
    cells = {r: tuple(map(found.__getitem__, ts)) for r, ts in members.items()}
    return FiberComplex(g, quotient_complex(basis, cells, images), images, cells)


def _steps(table: list, steps: list, full: int, done: int) -> tuple:
    """The blocks that can follow the edges ``done``, cached in
    ``steps[done]``: those that leave edges and are nondegenerate, each
    as ``(block, 1 << its cluster, its least edge, that edge's index +
    1)``, in the order the walk pushes them (by descending least edge,
    then ascending block, so popped by ascending least edge, the largest
    block first), and the one of every edge left, always nondegenerate."""
    left = full ^ done
    inner = []
    below = left
    while below:
        least = 1 << below.bit_length() - 1
        below ^= least
        upper = left ^ below ^ least    # the edges left above the least
        edge = least.bit_length() - 1
        rest = 0
        while least | rest != left:
            block = least | rest
            cluster = table[done | block][edge]
            if cluster & block == block:
                inner.append((block, 1 << cluster, least, edge + 1))
            rest = rest - upper & upper
            if not rest:
                break
    steps[done] = inner, left
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


def pushforward(blocks: tuple, images: dict) -> dict:
    """Image of d(alpha) in a quotient of P_n, for alpha with block masks
    ``blocks``: row -> coefficient.

    ``images`` maps the block masks of each TO partition beta that is
    not zero in the quotient to the (row, sign) of its class, the row
    indexing the class within its degree, as ``FiberComplex.images``
    does.  P_n itself is the quotient that sends each cell to its own
    row with sign 1, but ``build_perm`` does not go through here.
    """
    acc: dict = {}
    get = images.get
    for i, block in enumerate(blocks):
        if block & (block - 1):   # a singleton has no split
            head, tail, sign = blocks[:i], blocks[i + 1:], -1 if i % 2 else 1
            for pair in block_splits(block):
                hit = get(head + pair + tail)
                if hit is not None:
                    acc[hit[0]] = acc.get(hit[0], 0) + sign * hit[1]
    return {row: v for row, v in acc.items() if v}


def quotient_complex(basis: dict, cells: dict, images: dict) -> ChainComplex:
    """A quotient of P_n, filtered by width: a fiber.  ``basis`` and
    ``cells`` map each degree to its labels and to the block masks of
    one TO partition representing each label, in basis order, and
    ``images`` is the quotient's image, as in ``pushforward``: it sends
    cells[r][j] to row j with some sign.  Column j of d_r is the
    pushforward of d(cells[r][j]) divided by that sign.  With the
    identity image it gives P_n itself, which the tests compare with
    ``build_perm``.  It calls the ``ChainComplex`` constructor, which
    takes ``basis`` as given: a tuple of labels per nonempty degree."""
    diffs = {}
    for r in sorted(cells):
        if r - 1 not in cells:
            continue
        columns = []
        for alpha in cells[r]:
            column = pushforward(alpha, images)
            sign = images[alpha][1]
            columns.append(column if sign == 1 else
                           {i: sign * v for i, v in column.items()})
        diffs[r] = SparseMatrix(len(cells[r - 1]), tuple(columns))
    levels = {r: tuple(map(width, alphas)) for r, alphas in cells.items()}
    return ChainComplex(basis, diffs, levels)


def perm_to_fiber(fiber: FiberComplex, perm: PermComplex) -> ChainMap:
    """Chain map of shift -n sending a TO partition alpha to t_alpha
    with the sign relating alpha's block order to the canonical one,
    and to zero when t_alpha is degenerate.  Surjective and width
    preserving; for star graphs it is a degreewise bijection.  Its row
    tables are read off ``fiber.images``, whose values are (row, sign)."""
    n = fiber.n
    if perm.n != n:
        raise ValueError(f"perm_to_fiber needs P_{n} for a fiber of {n} edges, "
                         f"got P_{perm.n}")
    table = {r: tuple(map(fiber.images.get, alphas)) for r, alphas in perm.cells.items()}
    return ChainMap(perm.complex, fiber.complex, -n, table, note="alpha -> t_alpha")


def fiber_to_simplex(fiber: FiberComplex, simplex: SimplexComplex) -> ChainMap:
    """Chain map of shift +n sending a tree to its root block when the
    tree's canonical representative is in the support of the blow-down
    (every non-root block a singleton), and every other tree to zero;
    the coefficients are fixed by factoring the permutohedron blow-down
    through the fiber."""
    if simplex.n != fiber.n:
        raise ValueError(f"fiber_to_simplex needs the simplex on {fiber.n} vertices "
                         f"for a fiber of {fiber.n} edges, got {simplex.n} vertices")
    table = blowdown_table(fiber.cells, simplex, fiber.images)
    return ChainMap(fiber.complex, simplex.complex, fiber.n, table,
                    note="root block of singleton-fringe trees")


class WellDefinednessReport(NamedTuple):
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
        if pushforward(blocks, fiber.images) != want:
            return WellDefinednessReport(
                False, checked, c.labels(-len(blocks))[row],
                detail=f"pushforward of {TOPartition(fiber.n, blocks).pretty()} disagrees")
        checked += 1
    return WellDefinednessReport(True, checked)


class KoszulReport(NamedTuple):
    """The verdicts of ``koszul_check`` and what they read; no wording."""
    n: int
    d_squared_ok: bool
    homology: dict
    homology_ok: bool
    pages: dict            # r -> PageTable for r = 1, 2; empty if d^2 != 0
    e1_ok: bool
    e2_ok: bool
    # the first failing part: ("d2",), ("homology", bottom degree), or for
    # a page E^r (r, (p, q), dim, expected dim) at its least differing cell
    failure: tuple = ()

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
    none when d^2 != 0.  The report's ``failure`` names the first failing
    part, in the order d^2, homology, E^1, E^2."""
    n, c = obj.n, obj.complex
    bottom = c.degrees()[0]
    d2_ok = verify_d_squared(c).passed
    homology = homology_dims(c) if d2_ok else {}
    homology_ok = d2_ok and point_degree(c) == bottom
    want = {1: {(p, bottom - 1): comb(n, p) for p in range(1, n + 1)},
            2: {(1, bottom - 1): 1}}
    pages = {r: page_dims(c, r) for r in want} if d2_ok else {}
    e1_ok, e2_ok = (d2_ok and pages[r].dims == want[r] for r in want)
    failure = (("d2",) if not d2_ok else ("homology", bottom) if not homology_ok else
               next(((r, pq, pages[r].dim(*pq), want[r].get(pq, 0)) for r in want
                     for pq in sorted(pages[r].dims.keys() | want[r].keys())
                     if pages[r].dim(*pq) != want[r].get(pq, 0)), ()))
    return KoszulReport(n, d2_ok, homology, homology_ok, pages, e1_ok, e2_ok, failure)

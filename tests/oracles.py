"""Independent textbook oracles used only by the tests.

Everything here is deliberately written against the most naive possible
algorithm (dense Gaussian elimination, triple-loop products, recursive
enumeration, explicit cluster tracking) so it shares no code path with
the package implementations it checks.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import combinations
from math import comb, factorial


def dense_rank(matrix) -> int:
    """Plain Gaussian elimination over Fraction on a list-of-lists copy."""
    m = [[Fraction(x) for x in row] for row in matrix]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                factor = m[i][c] / pv
                m[i] = [x - factor * y if y else x for x, y in zip(m[i], m[r])]
        r += 1
        if r == nrows:
            break
    return r


def page_dims_dense(levels, basis, differentials, r: int) -> dict:
    """(p, q) -> dim E^r_{p,q} of the filtration spectral sequence, by
    the textbook formula on dense blocks.

    ``levels`` maps each label to its level, ``basis`` each degree to
    its labels, and ``differentials`` degree n to d_n as a dense list of
    rows (one per degree-(n-1) label).  With Z(n, a, b) = dim(F_a C_n
    intersect d^{-1} F_b C_{n-1}), the kernel of the block of d_n with
    columns of level <= a and rows of level > b:

      dim E^r_{p,q} = Z(n,p,p-r) - Z(n,p-1,p-r)
                      - [Z(n+1,p+r-1,p) - Z(n+1,p+r-1,p-1)],  n = p+q.
    """
    def z(n, a, b):
        cols = [j for j, lab in enumerate(basis.get(n, ())) if levels[lab] <= a]
        rows = [i for i, lab in enumerate(basis.get(n - 1, ())) if levels[lab] > b]
        if not cols or not rows or n not in differentials:
            return len(cols)
        block = [[differentials[n][i][j] for j in cols] for i in rows]
        return len(cols) - dense_rank(block)

    table = {}
    for n in basis:
        for p in sorted(set(levels.values())):
            d = (z(n, p, p - r) - z(n, p - 1, p - r)
                 - (z(n + 1, p + r - 1, p) - z(n + 1, p + r - 1, p - 1)))
            assert d >= 0, (n, p, r)
            if d:
                table[(p, n - p)] = d
    return table


def dense_multiply(a, b):
    """Naive triple loop product of list-of-lists matrices, exact: an
    entry stays an int while its terms are ints."""
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            if a[i][k] == 0:
                continue
            for j in range(cols):
                out[i][j] += a[i][k] * b[k][j]
    return out


def coreduction_critical_cells(c) -> list:
    """The critical cells, as (degree, label), of a coreduction of the
    chain complex c (Mrozek and Batko, "Coreduction homology algorithm").

    The first cell of the lowest degree is marked critical and removed.
    Then a live cell with exactly one live face is paired with that face
    and both are removed; the face's coefficient in the cell must be +-1,
    so the pair cancels over the integers.  When no such cell is left, a
    cell of the lowest live degree, which has no live face, is marked
    critical, and pairing goes on until no cell is live.  Each pair is an
    elementary collapse of an acyclic matching, so when d^2 = 0 the
    critical cells carry the homology of c over Z: one critical cell
    means one class, in its degree, and no torsion.  More than one is a
    witness, not a verdict; a coreduction can stop short on an acyclic
    part.  No elimination and no fraction enters."""
    faces = {}       # (degree, index) -> {face: coefficient}
    cofaces = {}     # (degree, index) -> cells that hold it as a face
    for r in c.degrees():
        for j in range(c.dim(r)):
            faces[r, j] = {}
        for (i, j), value in c.d(r).items():
            faces[r, j][r - 1, i] = value
            cofaces.setdefault((r - 1, i), []).append((r, j))
    live_faces = {cell: len(fs) for cell, fs in faces.items()}
    live = set(faces)
    queue = deque()

    def remove(cell):
        live.remove(cell)
        for coface in cofaces.get(cell, ()):
            if coface in live:
                live_faces[coface] -= 1
                queue.append(coface)

    critical = []
    cells = iter(sorted(faces))    # by degree, then index
    while live:
        cell = next(cell for cell in cells if cell in live)
        critical.append(cell)
        remove(cell)
        queue.extend(cell for cell in sorted(live) if live_faces[cell] == 1)
        while queue:
            cell = queue.popleft()
            if cell not in live or live_faces[cell] != 1:
                continue
            (face,) = [face for face in faces[cell] if face in live]
            value = faces[cell][face]
            assert value in (1, -1), (cell, face, value)
            remove(cell)
            remove(face)
    return [(r, c.labels(r)[j]) for r, j in critical]


def fubini(n: int) -> int:
    """Ordered Bell numbers through the binomial recurrence."""
    values = [1]
    for m in range(1, n + 1):
        values.append(sum(comb(m, j) * values[m - j] for j in range(1, m + 1)))
    return values[n]


def stirling2(n: int, k: int) -> int:
    if k == 0:
        return 1 if n == 0 else 0
    if n == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def ids(block):
    """The element ids of a block bitmask, element x at bit x-1, ascending."""
    return tuple(x + 1 for x in range(block.bit_length()) if block >> x & 1)


def ordered_partitions(elements):
    """All ordered set partitions, by choosing the first block directly."""
    elements = tuple(sorted(elements))
    if not elements:
        yield ()
        return
    first = elements[0]
    rest = elements[1:]
    for mask in range(1 << len(rest)):
        block = (first,) + tuple(rest[i] for i in range(len(rest)) if mask >> i & 1)
        leftover = tuple(x for x in rest if x not in block)
        for tail in ordered_partitions(leftover):
            for pos in range(len(tail) + 1):
                yield tail[:pos] + (block,) + tail[pos:]


def perm_differential(n: int):
    """P_n from labels alone: (basis, d) with basis[r] the sorted labels
    of the ordered partitions of 1..n with n - r blocks, and d[r] the
    entries {(row, col): value} of d_r.  Splitting block i (counted from
    1 at the left) in two, in every order, carries the sign (-1)**(i-1);
    the rows and columns are positions in the sorted labels."""
    def label(blocks):
        return ">".join("".join(map(str, block)) for block in blocks)

    by_degree = {}
    for blocks in ordered_partitions(range(1, n + 1)):
        by_degree.setdefault(n - len(blocks), []).append(label(blocks))
    basis = {r: sorted(labels) for r, labels in by_degree.items()}
    index = {lab: i for labels in basis.values() for i, lab in enumerate(labels)}
    d = {r: {} for r in basis if r - 1 in basis}
    for r in d:
        for j, lab in enumerate(basis[r]):
            blocks = [tuple(int(ch) for ch in part) for part in lab.split(">")]
            for i, block in enumerate(blocks):
                for size in range(1, len(block)):
                    for first in combinations(block, size):
                        second = tuple(x for x in block if x not in first)
                        split = blocks[:i] + [first, second] + blocks[i + 1:]
                        d[r][index[label(split)], j] = (-1) ** i
    return basis, d


def contraction_parents(edges, order):
    """Flow-chart parents by explicit vertex-merge tracking.

    Clusters are kept as frozensets; the parent of an event is found by
    scanning the history for the most recent event that produced the
    current cluster of each endpoint.
    """
    cluster = {}
    for u, v in edges:
        cluster.setdefault(u, frozenset([u]))
        cluster.setdefault(v, frozenset([v]))
    history = []  # (event index, produced cluster)
    parent = [None] * len(order)
    for t, e in enumerate(order):
        u, v = edges[e - 1]
        endpoint_clusters = {cluster[u], cluster[v]}
        for c in endpoint_clusters:
            for s, produced in reversed(history):
                if produced == c:
                    parent[s] = t
                    break
        merged = cluster[u] | cluster[v]
        for x in merged:
            cluster[x] = merged
        history.append((t, merged))
    return parent


def contracted_tree_key(edges, blocks, order=None):
    """Nested canonical key of t_alpha, or None when a block falls apart.

    Blocks (tuples of edge ids) are applied left to right; ``order``
    lists the edges in the order they are contracted, each block
    contiguously in block order, and defaults to ascending edge id
    inside a block.  Flow-chart edges within a block are fused.  The key
    is the recursive structure (sorted edge ids of the vertex, sorted
    child keys).
    """
    if order is None:
        order = [e for block in blocks for e in sorted(block)]
    position = 0
    for block in blocks:
        assert sorted(order[position:position + len(block)]) == sorted(block)
        position += len(block)
    assert position == len(order)
    parent = contraction_parents(edges, order)
    n = len(order)
    block_of = {}
    for bi, block in enumerate(blocks):
        for e in block:
            block_of[e] = bi
    # pieces: connected groups of same-block events in the flow chart
    piece = list(range(n))

    def find(x):
        while piece[x] != x:
            piece[x] = piece[piece[x]]
            x = piece[x]
        return x

    for t in range(n):
        p = parent[t]
        if p is not None and block_of[order[t]] == block_of[order[p]]:
            piece[find(t)] = find(p)
    groups = {}
    for t in range(n):
        groups.setdefault(find(t), []).append(t)
    if len(groups) != len(blocks):
        return None
    children = {root: [] for root in groups}
    root_piece = None
    for root, members in groups.items():
        tops = [t for t in members if parent[t] is None or find(parent[t]) != root]
        (top,) = tops
        if parent[top] is None:
            root_piece = root
        else:
            children[find(parent[top])].append(root)

    def key(root):
        ids = tuple(sorted(order[t] for t in groups[root]))
        kids = tuple(sorted(key(c) for c in children[root]))
        return (ids, kids)

    return key(root_piece)


def tree_key(tree):
    """The key of ``contracted_tree_key`` for a package ``FiberTree``,
    read off its block masks and parent links."""
    kids = {i: [] for i in range(len(tree.blocks))}
    for i, p in enumerate(tree.parent):
        if p is not None:
            kids[p].append(i)

    def key(i):
        return (ids(tree.blocks[i]), tuple(sorted(key(j) for j in kids[i])))

    return key(tree.parent.index(None))


def fiber_tree_sets(edges):
    """Distinct nondegenerate contracted trees per block count."""
    n = len(edges)
    out = {}
    for blocks in ordered_partitions(range(1, n + 1)):
        k = contracted_tree_key(edges, blocks)
        if k is not None:
            out.setdefault(len(blocks), set()).add(k)
    return out


def edge_components(edges, subset):
    """The connected components of the edges with ids in ``subset`` (ids
    1..n), as frozensets of edge ids, found by merging explicit vertex
    sets until no two of them meet."""
    clusters = [({e}, set(edges[e - 1])) for e in subset]
    merged = True
    while merged:
        merged = False
        for a, b in combinations(range(len(clusters)), 2):
            if clusters[a][1] & clusters[b][1]:
                ids_b, vertices_b = clusters.pop(b)
                clusters[a][0].update(ids_b)
                clusters[a][1].update(vertices_b)
                merged = True
                break
    return [frozenset(ids_) for ids_, _ in clusters]


def nested_sets(edges):
    """Every nested set that holds the whole edge set, as a frozenset of
    frozensets of edge ids 1..n.

    The building set is the nonempty edge subsets spanning a connected
    subgraph (the connected vertex sets of the line graph).  A nested
    set is a family of them, any two nested or disjoint, in which no
    union of two or more pairwise disjoint members is itself connected.
    These are the trees of the fiber, a k-block tree giving a family of
    size k.
    """
    n = len(edges)

    building = {frozenset(s) for k in range(1, n + 1)
                for s in combinations(range(1, n + 1), k)
                if len(edge_components(edges, s)) == 1}
    whole = frozenset(range(1, n + 1))
    members = sorted(building - {whole}, key=sorted)
    found = []

    def admissible(chosen, x):
        if not all(x <= y or y <= x or not x & y for y in chosen):
            return False
        apart = [y for y in chosen if not x & y]
        for k in range(1, len(apart) + 1):
            for family in combinations(apart, k):
                disjoint = all(not a & b for a, b in combinations(family, 2))
                if disjoint and x.union(*family) in building:
                    return False
        return True

    def extend(chosen, start):
        found.append(frozenset(chosen))
        for i in range(start, len(members)):
            if admissible(chosen, members[i]):
                extend(chosen + [members[i]], i + 1)

    extend([whole], 0)
    return found


def nested_set_counts(edges):
    """k -> number of nested sets of size k that hold the whole edge set;
    these count the trees of the fiber by block count."""
    counts = {}
    for family in nested_sets(edges):
        counts[len(family)] = counts.get(len(family), 0) + 1
    return counts


def nondegenerate_count(edges):
    """Number of TO partitions alpha with a nondegenerate t_alpha.

    Each tree is reached by the orders of its blocks that put every
    child before its parent, the linear extensions of the tree, so this
    sums over the nested sets N the hook-length count for forests,
    |N|! / prod over S in N of #{T in N : T <= S}.
    """
    total = 0
    for family in nested_sets(edges):
        hooks = 1
        for s in family:
            hooks *= sum(1 for t in family if t <= s)
        total += factorial(len(family)) // hooks
    return total


def noncrossing_diagonal_counts(polygon: int):
    """Number of pairwise non-crossing diagonal sets of each size in a
    convex polygon; these are the face counts of an associahedron."""
    diagonals = [(i, j) for i in range(1, polygon + 1)
                 for j in range(i + 2, polygon + 1)
                 if not (i == 1 and j == polygon)]

    def crosses(d1, d2):
        (i, j), (k, l) = d1, d2
        return (i < k < j < l) or (k < i < l < j)

    counts = {0: 1}

    def backtrack(start, chosen):
        for idx in range(start, len(diagonals)):
            d = diagonals[idx]
            if all(not crosses(d, other) for other in chosen):
                chosen.append(d)
                counts[len(chosen)] = counts.get(len(chosen), 0) + 1
                backtrack(idx + 1, chosen)
                chosen.pop()

    backtrack(0, [])
    return counts

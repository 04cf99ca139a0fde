from math import comb, factorial

import pytest

from permfiber.complexes import (
    homology_dims,
    is_surjective,
    mapping_cone,
    verify_chain_map,
    verify_d_squared,
)
from permfiber.polytopes import (
    blowdown_coefficient,
    blowdown_support,
    build_perm,
    build_simplex,
    perm_to_simplex,
    quotient_complex,
)
from permfiber.topartitions import TOPartition, parse_topartition

from oracles import fubini, ids, perm_differential, stirling2


def test_perm_dimensions(perms):
    assert [perms[4].complex.dim(r) for r in range(4)] == [24, 36, 14, 1]
    assert [perms[3].complex.dim(r) for r in range(3)] == [6, 6, 1]
    assert perms[1].complex.dim(0) == 1
    assert perms[1].complex.d(0).is_zero() and perms[1].complex.d(1).is_zero()
    for n in range(1, 7):
        for r in range(n):
            k = n - r
            assert perms[n].complex.dim(r) == factorial(k) * stirling2(n, k)


def test_perm_cap_enforced():
    with pytest.raises(ValueError):
        build_perm(0)
    with pytest.raises(ValueError):
        build_perm(9)   # past PERM_CAP = 8
    with pytest.raises(ValueError, match="^n must be at least 1$"):
        build_simplex(0)


def test_perm_filtration_is_width(perms):
    perm = perms[4]
    for r in perm.complex.degrees():
        for j, lab in enumerate(perm.complex.labels(r)):
            alpha = parse_topartition(lab, 4)
            assert perm.complex.levels[r][j] == alpha.blocks[-1].bit_count()


def test_perm_cells_render_to_basis_labels(perms):
    # the maps out of the permutohedron read cells[r][j] as the cell
    # labelled labels(r)[j]
    for n in range(1, 7):
        perm = perms[n]
        assert sorted(perm.cells) == perm.complex.degrees(), n
        for r in perm.complex.degrees():
            rendered = tuple(alpha.label() for alpha in perm.cells[r])
            assert rendered == perm.complex.labels(r), (n, r)


def test_build_perm_renders_each_label_once(monkeypatch):
    calls = []
    render = TOPartition.label

    def counting(alpha):
        calls.append(alpha)
        return render(alpha)

    monkeypatch.setattr(TOPartition, "label", counting)
    for n in range(1, 6):
        del calls[:]
        build_perm(n)
        assert len(calls) == fubini(n), n


def test_build_perm_matches_the_label_oracle(perms):
    """P1-P6 have the labels, rows and signs of ``perm_differential``,
    which sorts label strings and splits blocks by hand."""
    for n in range(1, 7):
        c = perms[n].complex
        basis, d = perm_differential(n)
        assert {r: list(labels) for r, labels in c.basis.items()} == basis, n
        for r in c.degrees():
            assert dict(c.d(r).items()) == d.get(r, {}), (n, r)


def identity_quotient(perm):
    """P_n through the quotient builder, whose image sends each cell to
    its own row with sign 1: the path fibers take."""
    image = {alpha.blocks: (j, 1) for alphas in perm.cells.values()
             for j, alpha in enumerate(alphas)}
    return quotient_complex(perm.complex.basis, perm.cells, image.get)


def test_build_perm_matches_the_identity_quotient(perms):
    for n in range(1, 7):
        assert identity_quotient(perms[n]) == perms[n].complex, n


def test_perm_labels_strictly_increase_in_each_degree(perms):
    for perm in [*perms.values(), build_perm(7)]:
        for r in perm.complex.degrees():
            labels = perm.complex.labels(r)
            assert all(a < b for a, b in zip(labels, labels[1:])), (perm.n, r)


@pytest.mark.slow
def test_build_perm_matches_the_identity_quotient_on_p8():
    perm = build_perm(8)
    assert identity_quotient(perm) == perm.complex


def test_perm_differential_lowers_degree_and_not_width(perms):
    perm = perms[5]
    for r in perm.complex.degrees():
        m = perm.complex.d(r)
        src = perm.complex.levels[r]
        tgt = perm.complex.levels.get(r - 1)
        for (i, j), _ in m.items():
            assert tgt[i] <= src[j]


def test_simplex_dimensions_and_homology(simplexes):
    assert simplexes[1].complex.dim(0) == 1
    assert [simplexes[4].complex.dim(r) for r in range(4)] == [4, 6, 4, 1]
    for n in range(1, 8):
        c = simplexes[n].complex
        assert verify_d_squared(c).passed
        assert [c.dim(p - 1) for p in range(1, n + 1)] == [comb(n, p) for p in range(1, n + 1)]
        h = homology_dims(c)
        assert h == {r: (1 if r == 0 else 0) for r in c.degrees()}


def test_blowdown_support_rule():
    assert blowdown_support(parse_topartition("13|24")) is None
    top = parse_topartition("{1,2,3,4}")
    assert ids(blowdown_support(top)) == (1, 2, 3, 4)
    assert ids(blowdown_support(parse_topartition("3>1>24"))) == (2, 4)


def test_blowdown_top_cell_has_unit_coefficient():
    for n in range(1, 7):
        top = parse_topartition("".join(str(i) for i in range(1, n + 1)))
        assert blowdown_coefficient(top) == 1


def test_perm_to_simplex_examples(perms, simplexes):
    f = perm_to_simplex(perms[4], simplexes[4])
    labels4 = perms[4].complex.labels(3)
    top_col = labels4.index("1234")
    m = f.matrix(3)
    assert m.get(0, top_col) == 1  # single degree-3 subset: the full set
    # a cell with two non-singleton blocks dies
    col = perms[4].complex.labels(2).index("13>24")
    m2 = f.matrix(2)
    assert all(m2.get(i, col) == 0 for i in range(m2.rows))


def test_perm_to_simplex_is_surjective_chain_map(perms, simplexes):
    for n in range(1, 6):
        f = perm_to_simplex(perms[n], simplexes[n])
        assert verify_chain_map(f).passed
        assert is_surjective(f)
        assert f.shift == 0


def test_perm_to_simplex_records_working_convention(perms, simplexes):
    # every supported cell maps with the derived coefficient, and that
    # one sign rule gives a chain map; no other rule is tried
    for n in range(1, 7):
        perm, simplex = perms[n], simplexes[n]
        f = perm_to_simplex(perm, simplex)
        for r in perm.complex.degrees():
            m = f.matrix(r)
            targets = simplex.complex.labels(r)
            for j, lab in enumerate(perm.complex.labels(r)):
                alpha = parse_topartition(lab, n)
                block = blowdown_support(alpha)
                column = {targets[i]: v for i, v in m.columns[j].items()}
                if block is None:
                    assert column == {}, lab
                else:
                    label = "".join(map(str, ids(block)))
                    assert column == {label: blowdown_coefficient(alpha)}, lab
        assert verify_chain_map(f).passed, n
        assert f.note == ("sign convention: unit" if n == 1
                          else "sign convention: ordering_parity")


def test_perm_to_simplex_cone_acyclic_small(perms, simplexes):
    for n in range(1, 5):
        f = perm_to_simplex(perms[n], simplexes[n])
        cone = mapping_cone(f)
        assert all(v == 0 for v in homology_dims(cone).values())

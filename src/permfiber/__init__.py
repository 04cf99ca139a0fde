"""Exact chain-level verification toolkit for permutohedra, simplices
and graph-contraction fiber complexes over the rationals."""

from .complexes import (
    ChainComplex,
    ChainMap,
    PageTable,
    complex_from_json,
    complex_to_json,
    compose,
    homology_dims,
    identity_map,
    is_quasi_isomorphism,
    is_surjective,
    mapping_cone,
    page_dims,
    stable_page_index,
    verify_chain_map,
    verify_d_squared,
)
from .fiber import (
    FiberComplex,
    FiberTree,
    MultiGraph,
    build_fiber,
    canonical_representative,
    fiber_element,
    fiber_to_simplex,
    koszul_check,
    load_graph,
    parse_graph,
    perm_to_fiber,
    push_forward_well_defined,
)
from .linalg import Rational, SparseMatrix, kernel_dim, multiply, rank
from .polytopes import (
    PermComplex,
    SimplexComplex,
    build_perm,
    build_simplex,
    perm_to_simplex,
)
from .topartitions import (
    SignedTerm,
    TOPartition,
    differential_terms,
    enumerate_topartitions,
    parse_topartition,
    shape,
    width,
)

__all__ = [name for name in dir() if not name.startswith("_")]

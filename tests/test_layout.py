"""Each design decision lives in one module: the modules import only
from the layers below them, the label-order tables of
``topartitions`` stay inside it, the quotient builder is ``fiber``'s,
only ``complexes`` keeps a ``_cache`` or reads a map's row table, the
one general product kernel is ``linalg``'s, no module composes maps,
the map builders hand their tables to the ``ChainMap`` constructor,
the complex builders their parts to the ``ChainComplex`` constructor,
the validating entries are called only where outside input enters,
and a cell is a tuple of block masks outside the input and witness
text.  Read from the source with ``ast``; nothing is imported."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "permfiber"

# module -> the package modules it may import from
BELOW = {
    "linalg": set(),
    "topartitions": set(),
    "complexes": {"linalg"},
    "polytopes": {"linalg", "complexes", "topartitions"},
    "fiber": {"linalg", "complexes", "topartitions", "polytopes"},
    "cli": {"linalg", "complexes", "topartitions", "polytopes", "fiber"},
}
LABEL_ORDER = {"first_blocks", "spread"}
QUOTIENT = {"pushforward", "quotient_complex"}


def _trees() -> dict:
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _imports(tree) -> list:
    """(package module, imported names) of each import from the package,
    relative (``from .fiber import x``) or absolute."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level or module == "permfiber" or module.startswith("permfiber."):
                found.append((module.rpartition(".")[2],
                              {alias.name for alias in node.names}))
        elif isinstance(node, ast.Import):
            found += [(alias.name.rpartition(".")[2], set()) for alias in node.names
                      if alias.name.startswith("permfiber")]
    return found


def test_every_module_has_a_layer():
    assert set(_trees()) - {"__init__", "__main__"} == set(BELOW)


def test_imports_follow_the_layers():
    for name, tree in _trees().items():
        if name in BELOW:
            for module, _ in _imports(tree):
                assert module in BELOW[name], (name, module)


def test_only_topartitions_imports_the_label_order_tables():
    for name, tree in _trees().items():
        if name != "topartitions":
            for module, names in _imports(tree):
                assert not names & LABEL_ORDER, (name, module, names & LABEL_ORDER)


def test_only_fiber_defines_the_quotient_builder():
    for name, tree in _trees().items():
        defined = {node.name for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
        assert name == "fiber" or not defined & QUOTIENT, (name, defined & QUOTIENT)
    assert QUOTIENT <= {node.name for node in ast.walk(_trees()["fiber"])
                        if isinstance(node, ast.FunctionDef)}


def test_only_complexes_assigns_a_cache():
    """Complexes and chain maps carry a ``_cache``; a graph holds nothing
    derived, and its cluster table is cached per line graph instead."""
    for name, tree in _trees().items():
        targets = [target for node in ast.walk(tree)
                   if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
                   for target in (node.targets if isinstance(node, ast.Assign)
                                  else [node.target])]
        assigns = any(isinstance(part, ast.Attribute) and part.attr == "_cache"
                      for target in targets for part in ast.walk(target))
        assert name == "complexes" or not assigns, name


def test_no_module_defines_compose():
    """Maps are checked against a composite column by column
    (``verify_factorization``); no module forms g after f."""
    for name, tree in _trees().items():
        defined = {node.name for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
        assert "compose" not in defined, name


def test_cells_are_block_tuples_past_the_input_boundary():
    """``TOPartition`` is the parsed and validated form of a cell: P_n's
    builder never imports it, and ``fiber`` builds one only to word the
    witness of ``push_forward_well_defined``."""
    trees = _trees()
    for module, names in _imports(trees["polytopes"]):
        assert "TOPartition" not in names, module
    builders = set()
    for node in ast.walk(trees["fiber"]):
        if isinstance(node, ast.FunctionDef):
            builders |= {node.name for call in ast.walk(node)
                         if isinstance(call, ast.Call)
                         and "TOPartition" in {n.id for n in ast.walk(call.func)
                                               if isinstance(n, ast.Name)}}
    assert builders == {"push_forward_well_defined"}


def test_only_complexes_reads_a_row_table():
    """A map's ``table`` is read where the checks and the renderings are,
    in ``complexes``; every other module reads ``matrix`` or
    ``matrices`` if it needs a map's entries."""
    for name, tree in _trees().items():
        reads = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr == "table"]
        assert name == "complexes" or not reads, (name, reads)


def test_only_linalg_defines_the_general_kernel():
    """``product_vanishes`` is the one product kernel, which the d^2
    reduction calls; a map is a row table and needs none."""
    for name, tree in _trees().items():
        defined = {node.name for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
        assert name == "linalg" or "product_vanishes" not in defined, name
    assert "product_vanishes" in {node.name for node in ast.walk(_trees()["linalg"])
                                  if isinstance(node, ast.FunctionDef)}


def _calls(node, name: str) -> list:
    """The calls under node of ``name`` or of an attribute of it
    (``ChainMap`` and ``ChainMap.build``)."""
    return [call for call in ast.walk(node) if isinstance(call, ast.Call)
            and name in {n.id for n in ast.walk(call.func) if isinstance(n, ast.Name)}]


def test_map_builders_hand_tables_to_the_constructor():
    """Outside ``complexes``, the builders of the three maps pass the row
    tables they make to the ``ChainMap`` constructor itself, not through
    ``ChainMap.build`` or a SparseMatrix; ``blowdown_table``, which makes
    the blow-down's, is called only by them."""
    trees = _trees()
    builders = {}
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if name != "complexes" and isinstance(node, ast.FunctionDef) \
                    and _calls(node, "ChainMap"):
                builders[node.name] = node
    assert set(builders) == {"perm_to_simplex", "perm_to_fiber", "fiber_to_simplex"}
    for name, node in builders.items():
        [call] = _calls(node, "ChainMap")
        assert isinstance(call.func, ast.Name), name
        assert not _calls(node, "SparseMatrix"), name
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and _calls(node, "blowdown_table"):
                assert node.name in builders, (name, node.name)


# a validating entry -> the (module, function) pairs that call it: where
# outside input enters
VALIDATING = {
    ("ChainComplex", "build"): {("complexes", "complex_from_json")},
    ("ChainMap", "build"): set(),
    ("SparseMatrix", "from_entries"): {("complexes", "complex_from_json")},
    ("TOPartition", "of"): {("topartitions", "parse_topartition")},
    ("MultiGraph", "from_edges"): {("fiber", "parse_graph")},
}


def _callers(is_callee) -> set:
    """(module, function) of each function with a call whose callee
    ``is_callee`` accepts."""
    return {(name, node.name) for name, tree in _trees().items()
            for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
            and any(isinstance(call, ast.Call) and is_callee(call.func)
                    for call in ast.walk(node))}


def test_validating_entries_are_called_only_where_outside_input_enters():
    for (owner, entry), pinned in VALIDATING.items():
        callers = _callers(lambda f: isinstance(f, ast.Attribute) and f.attr == entry
                           and isinstance(f.value, ast.Name) and f.value.id == owner)
        assert callers == pinned, (owner, entry, callers)


def test_map_matrices_are_rendered_for_readers_only():
    """No check and no cone renders a map's table as a matrix: within the
    package only ``ChainMap.matrices`` calls ``matrix``."""
    callers = _callers(lambda f: isinstance(f, ast.Attribute)
                       and f.attr in ("matrix", "matrices"))
    assert callers == {("complexes", "matrices")}


def test_complex_builders_hand_their_parts_to_the_constructor():
    """Outside ``complexes``, P_n's, the simplex's and the fibers'
    builders call the ``ChainComplex`` constructor itself, and nothing
    else calls it; ``ChainComplex.build`` is pinned above."""
    callers = _callers(lambda f: isinstance(f, ast.Name) and f.id == "ChainComplex")
    assert {caller for caller in callers if caller[0] != "complexes"} == {
        ("polytopes", "build_perm"), ("polytopes", "build_simplex"),
        ("fiber", "quotient_complex")}

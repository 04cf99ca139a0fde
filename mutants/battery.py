"""A battery of mutants: small, deliberate faults in the package, each
with the tier-1 tests that must catch it.

A mutant names a file under ``src/permfiber``, an exact text that occurs
once in it, the text that replaces it, and the test ids that must fail,
or error in setup, once it is applied.  ``run`` applies one mutant to a
temporary copy of the checkout (``src``, ``tests``, ``corpus``,
``pyproject.toml`` and ``README.md``) and runs those tests there in a
fresh interpreter; the checkout itself is never written.  Stdlib only.

    python -m pytest -q mutants
    python -m pytest -q mutants -k rank-off-by-one
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "corpus", "pyproject.toml", "README.md")


class Mutant(NamedTuple):
    name: str
    file: str      # relative to src/permfiber
    old: str       # occurs exactly once in that file
    new: str
    tests: tuple   # pytest ids, relative to the checkout, that must fail


MUTANTS = (
    Mutant("rank-off-by-one", "linalg.py",
           "    return len(pivots(m))\n",
           "    return len(pivots(m)) - 1\n",
           ("tests/test_linalg.py::test_rank_identity_and_zero",
            "tests/test_linalg.py::test_rank_of_map_matrices_is_their_row_count")),
    Mutant("blowdown-id-count-dropped", "polytopes.py",
           "(-1) ** (sum(ids) + len(ids))",
           "(-1) ** sum(ids)",
           ("tests/test_polytopes.py::test_blowdown_coefficient_is_the_fused_loop",
            "tests/test_polytopes.py::test_perm_to_simplex_is_surjective_chain_map")),
    Mutant("minus-term-unsigned", "topartitions.py",
           "[tuple(-v for v in column.values())",
           "[tuple(v for v in column.values())",
           ("tests/test_polytopes.py::test_build_perm_matches_the_label_oracle",)),
    Mutant("one-ended-line-graph", "fiber.py",
           "return tuple(touching[u] | touching[v] for u, v in self.edges)",
           "return tuple(touching[u] for u, v in self.edges)",
           ("tests/test_fiber.py::test_cluster_table_rows_are_edge_components",
            "tests/test_fiber.py::test_fiber_dims_match_independent_oracle")),
    Mutant("cluster-table-writes-only-the-top-edge", "fiber.py",
           "        rest = cluster\n"
           "        while rest:\n"
           "            row[(rest & -rest).bit_length() - 1] = cluster\n"
           "            rest &= rest - 1\n",
           "        row[top] = cluster\n",
           ("tests/test_fiber.py::test_cluster_table_rows_are_edge_components",)),
    Mutant("product-vanishes-skips-the-last-column", "linalg.py",
           "    for j in cols:\n",
           "    for j in list(cols)[:-1]:\n",
           ("tests/test_linalg.py::test_product_vanishes_matches_dense_products",
            "tests/test_linalg.py::test_product_vanishes_matches_dense_product_columns")),
    Mutant("two-entry-refusal-off-by-one", "complexes.py",
           "max(map(len, m.columns), default=0) > 1",
           "max(map(len, m.columns), default=0) > 2",
           ("tests/test_complexes.py::test_class_test_matches_the_cone",
            "tests/test_fiber.py::test_map_checks_match_dense_products_under_extreme_flips")),
    Mutant("split-rows-off-by-one", "topartitions.py",
           "bases = [start[k + 1][b] + starts[m - b.bit_count()][k][b2]",
           "bases = [start[k + 1][b] + starts[m - b.bit_count()][k][b2] + 1",
           ("tests/test_polytopes.py::test_build_perm_matches_the_label_oracle",)),
    Mutant("composed-value-not-multiplied", "complexes.py",
           "else (image[0], hit[1] * image[1])",
           "else (image[0], image[1])",
           ("tests/test_fiber.py::test_map_checks_match_dense_products_under_extreme_flips",
            "tests/test_properties.py::test_one_entry_maps_match_dense_products")),
    Mutant("unreached-names-a-covered-row", "complexes.py",
           "missed = next(i for i in range(f.target.dim(r + f.shift)) if i not in held)",
           "missed = next(i for i in range(f.target.dim(r + f.shift)) if i in held)",
           ("tests/test_properties.py::test_one_entry_maps_match_dense_products",)),
    Mutant("d2-witness-one-column-late", "complexes.py",
           "for j, col in enumerate(product) if col",
           "for j, col in enumerate(product, 1) if col",
           ("tests/test_cli.py::test_failing_lines_are_pinned",)),
    Mutant("json-degree-keys-in-int-order", "complexes.py",
           "for key, labels in sorted((str(r), labels) for r, labels in c.basis.items()):",
           "for key, labels in ((str(r), labels) for r, labels in sorted(c.basis.items())):",
           ("tests/test_complexes.py::test_streamed_json_is_the_dumped_document",)),
    Mutant("json-labels-unescaped", "complexes.py",
           '",\\n   ".join(map(encode_basestring_ascii, labels))',
           '",\\n   ".join(f\'"{label}"\' for label in labels)',
           ("tests/test_complexes.py::test_streamed_json_is_the_dumped_document",)),
    Mutant("pushforward-entry-doubled", "fiber.py",
           "acc.get(hit[0], 0) + sign * hit[1]",
           "acc.get(hit[0], 0) + 2 * sign * hit[1]",
           ("tests/test_fiber.py::test_differentials_are_the_face_lattice",
            "tests/test_fiber.py::test_pushforward_is_the_label_differential_sent_through_images")),
    # builder faults that only ChainComplex.build refuses: the builders
    # call the constructor, so the tests must catch them
    Mutant("fiber-basis-as-lists", "fiber.py",
           "basis = {r: tuple(map(labels.__getitem__, ts))",
           "basis = {r: list(map(labels.__getitem__, ts))",
           ("tests/test_complexes.py::test_builders_hand_the_constructor_what_build_returns",
            "tests/test_complexes.py::test_json_round_trip")),
    Mutant("perm-levels-from-the-other-blocks", "polytopes.py",
           "levels[n - k] = tuple(map(width, cells[n - k]))",
           "levels[n - k] = tuple(n - width(blocks) for blocks in cells[n - k])",
           ("tests/test_complexes.py::test_builders_hand_the_constructor_what_build_returns",
            "tests/test_polytopes.py::test_perm_filtration_is_width")),
    Mutant("simplex-keeps-an-empty-degree", "polytopes.py",
           "    for p in range(1, n + 1):\n",
           "    for p in range(1, n + 2):\n",
           ("tests/test_complexes.py::test_builders_hand_the_constructor_what_build_returns",
            "tests/test_complexes.py::test_json_without_levels")),
    Mutant("main-skips-the-out-cleanup", "cli.py",
           "made = [path for path in out if not path.exists()]",
           "made = []",
           ("tests/test_cli.py::test_fibers_past_the_budget_exit_2",
            "tests/test_cli.py::test_memory_errors_exit_2_and_other_faults_keep_their_traceback")),
    Mutant("noncommuting-drops-the-unit", "complexes.py",
           "acc[k] = acc[k] + v * w * unit if k in acc else v * w * unit",
           "acc[k] = acc[k] + v * w if k in acc else v * w",
           ("tests/test_complexes.py::test_chain_map_witness_matches_dense_products",
            "tests/test_fiber.py::test_map_checks_match_dense_products_under_extreme_flips")),
    Mutant("noncommuting-leaves-values-unscaled", "complexes.py",
           "            if unit != 1 and unit != -1:\n"
           "                want, unit = {i: unit * v for i, v in want.items()}, 1\n",
           "",
           ("tests/test_complexes.py::test_cone_of_fraction_valued_map_keeps_exactness",)),
    Mutant("blowdown-least-block-off-by-one", "polytopes.py",
           "least = simplex.n + 1 - len(alphas[0])",
           "least = simplex.n - len(alphas[0])",
           ("tests/test_polytopes.py::test_blowdown_tables_are_the_oracles",
            "tests/test_polytopes.py::test_perm_to_simplex_is_surjective_chain_map")),
    Mutant("export-moves-each-file-as-written", "cli.py",
           "                handle.writelines(pieces)\n"
           "        for tmp, path in staged:\n"
           "            os.replace(tmp, path)\n",
           "                handle.writelines(pieces)\n"
           "            os.replace(tmp, path)\n",
           ("tests/test_cli.py::test_a_refused_export_leaves_out_as_it_found_it",
            "tests/test_cli.py::"
            "test_a_failing_writer_leaves_no_temporary_file_and_the_target_unchanged")),
    Mutant("write-error-keeps-made-directories", "cli.py",
           "    except (InvalidInput, FiberTooLarge) as exc:\n",
           "    except InvalidInput as exc:\n"
           "        return _refuse(str(exc))\n"
           "    except FiberTooLarge as exc:\n",
           ("tests/test_cli.py::test_a_refused_export_leaves_out_as_it_found_it",)),
    Mutant("cone-skips-the-map-column", "complexes.py",
           "for col, hit in zip(columns, _rows(f, src_deg)):",
           "for col, hit in zip(columns[:-1], _rows(f, src_deg)):",
           ("tests/test_polytopes.py::test_perm_to_simplex_cone_acyclic_small",
            "tests/test_complexes.py::test_class_test_matches_the_cone")),
    Mutant("pivots-keeps-standing-columns-unkeyed", "linalg.py",
           "{position[i]: v for i, v in standing.pop(low).items()})",
           "dict(standing.pop(low)))",
           ("tests/test_linalg.py::test_pivots_pair_as_the_reference_reduction",
            "tests/test_complexes.py::test_unpaired_bottom_cells_complete_the_boundaries_to_a_basis")),
)


def copy_checkout(dest: Path) -> None:
    """The parts of the checkout that the tests read, without caches."""
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        path = ROOT / name
        if path.is_dir():
            shutil.copytree(path, dest / name, ignore=ignore)
        else:
            shutil.copy2(path, dest / name)


def apply(mutant: Mutant, dest: Path) -> None:
    """Write the mutant into the copy at dest; its old text must occur
    exactly once."""
    path = dest / "src" / "permfiber" / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: old text occurs {text.count(mutant.old)} times "
                         f"in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def run(mutant: Mutant | None) -> tuple:
    """Apply the mutant to a fresh copy of the checkout and run the tests
    it names there (with no mutant, the control: every named test); the
    exit code, the ids that failed or errored in setup, and the output."""
    tests = (mutant.tests if mutant else
             sorted({test for m in MUTANTS for test in m.tests}))
    with tempfile.TemporaryDirectory(prefix="permfiber-mutant-") as tmp:
        dest = Path(tmp)
        copy_checkout(dest)
        if mutant is not None:
            apply(mutant, dest)
        env = dict(os.environ, PYTHONPATH=str(dest / "src"), PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "-p",
                               "no:cacheprovider", *tests], cwd=dest, env=env,
                              capture_output=True, text=True, timeout=300)
    failed = {line.split()[1] for line in done.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))}
    return done.returncode, failed, done.stdout + done.stderr

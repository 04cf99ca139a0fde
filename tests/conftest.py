from __future__ import annotations

from pathlib import Path

import pytest

from permfiber.fiber import build_fiber, load_graph
from permfiber.polytopes import build_perm, build_simplex

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return REPO_ROOT / "corpus"


@pytest.fixture(scope="session")
def corpus_graphs(corpus_dir):
    return {path.stem: load_graph(path)
            for path in sorted(corpus_dir.glob("*.edges"))}


@pytest.fixture(scope="session")
def corpus_fibers(corpus_graphs):
    return {name: build_fiber(graph) for name, graph in corpus_graphs.items()}


@pytest.fixture(scope="session")
def perms():
    return {n: build_perm(n) for n in range(1, 7)}


@pytest.fixture(scope="session")
def perm7():
    """P7, built once per session for the tests that reach past ``perms``."""
    return build_perm(7)


@pytest.fixture(scope="session")
def simplexes():
    return {n: build_simplex(n) for n in range(1, 8)}

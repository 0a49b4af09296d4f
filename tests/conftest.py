from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from semilat import (
    Graph,
    Poset,
    boolean_lattice,
    chain_product,
    graphic_flat_lattice,
    partition_lattice,
    prime_up_projective,
)
from semilat import semilattice as sl
from semilat.cli import run as cli_run
from semilat.matching import jh_match, match_index_chains
from lattice_form import lattice_up_projective

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

TRIANGLE = Graph(3, ((0, 1), (1, 2), (0, 2)))
K4 = Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
TWO_TRIANGLES = Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))
P4 = Graph(4, ((0, 1), (1, 2), (2, 3)))

CHAIN_PRODUCT_SHAPES = (
    [2], [3], [2, 2], [2, 3], [3, 3], [2, 2, 2], [2, 2, 3], [2, 3, 3], [3, 3, 3],
)


def build_corpus():
    """Every semimodular test lattice, from singletons up to 27 elements."""
    lattices = [boolean_lattice(n) for n in range(5)]
    lattices += [chain_product(shape) for shape in CHAIN_PRODUCT_SHAPES]
    lattices += [partition_lattice(n) for n in range(1, 5)]
    lattices += [graphic_flat_lattice(g) for g in (TRIANGLE, K4, TWO_TRIANGLES, P4)]
    return lattices


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


@pytest.fixture(scope="session")
def small_corpus(corpus):
    """Corpus members small enough for exhaustive pair scans."""
    return [p for p in corpus if len(p) <= 30]


@pytest.fixture(scope="session")
def lemma_disagreements(small_corpus):
    """Every (lattice, a, b, x, y) of `small_corpus` where the join-only and
    the lattice form of up-projectivity disagree, over every cover pair (a, b)
    and every pair of elements (x, y): one scan for the tests that read it."""
    return [(p.name, a, b, x, y) for p in small_corpus for a, b in p.cover_pairs()
            for x in p.elements for y in p.elements
            if prime_up_projective(p, (a, b), (x, y)) != lattice_up_projective(p, (a, b), (x, y))]


@pytest.fixture
def run_cli(capsys):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    def invoke(*argv):
        code = cli_run(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return invoke


def read_golden(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


def golden_json(name: str):
    return json.loads(read_golden(name))


def ascending(pi) -> tuple[int, ...]:
    """A pi matched on the dual of a subnormal lattice, in ascending-series
    indexing."""
    return tuple(len(pi) + 1 - j for j in reversed(pi))


def pair_rows(report) -> list[tuple]:
    """Each pair of a composition report as ((a, b), pi, factor pairs,
    verdict), read from its four `pair_*` arrays, sequences as tuples."""
    arrays = (report.pair_series, report.pair_pi, report.pair_factors, report.pair_equal)
    return [((a, b), tuple(pi), tuple(map(tuple, fp)), equal)
            for (a, b), pi, fp, equal in zip(*(x.tolist() for x in arrays))]


def match_series(lattice: Poset, series_a, series_b) -> tuple[int, ...]:
    """The reference pi of one pair of composition series, read the way
    `composition_analysis` reads it: `jh_match` on the dual with both series
    reversed, pi read back in ascending-series indexing."""
    return ascending(jh_match(lattice.dual(), series_a[::-1], series_b[::-1]).pi)


def break_witness_entry(p: Poset, c: list[int], d: list[int]) -> tuple[int, int, int]:
    """Corrupt, in p's join table, the entry c_{i-1} ∨ x for the first
    witness (x, y) with x off the chain d, and return (i, x, y).  The join
    matrix of c and d never reads that entry, and p is validated first, so
    that its cached semimodularity report is of the intact table: only the
    matcher's witness re-check can notice."""
    _, witnesses = match_index_chains(p, np.array([c]), np.array([d]))
    i, (x, y) = next((i, w) for i, w in enumerate(witnesses[0].tolist(), start=1) if w[0] not in d)
    sl._joins(p)[c[i - 1], x] = y
    return i, x, y

"""Goeritz matrices from crossing-incidence data."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinkeq import Diagram, SymMatrix, determinant, goeritz_matrix, inertia, parse_diagram
from kinkeq.errors import ParseError, RegionOutOfRange, SelfPairedCrossing
from kinkeq.exact import Inertia, inertia_and_abs_det
from kinkeq.formats import parse_matrix, serialize_matrix

from oracles import elimination_invariants

FIGURE_DATA = "regions 4\n0 1 +\n1 2 +\n0 2 +\n0 2 +\n2 3 +\n0 3 +\n0 3 +\n"
TREFOIL_DARK = "regions 2\n0 1 +\n0 1 +\n0 1 +\n"
TREFOIL_LIGHT = "regions 3\n0 1 -\n1 2 -\n0 2 -\n"


class TestParseDiagram:
    def test_figure_data(self):
        d = parse_diagram(FIGURE_DATA)
        assert d.region_count == 4
        assert len(d.crossings) == 7

    def test_single_region(self):
        d = parse_diagram("regions 1\n")
        assert d.region_count == 1 and d.crossings == ()

    def test_comments_and_blanks(self):
        d = parse_diagram("# intro\nregions 2\n\n0 1 +  # crossing\n")
        assert d.crossings == ((0, 1, 1),)

    def test_self_paired(self):
        with pytest.raises(SelfPairedCrossing):
            parse_diagram("regions 2\n0 0 +\n")

    def test_out_of_range(self):
        with pytest.raises(RegionOutOfRange) as exc:
            parse_diagram("regions 2\n0 5 +\n")
        assert exc.value.line == 2

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_diagram("0 1 +\n")
        with pytest.raises(ParseError):
            parse_diagram("")

    def test_bad_sign(self):
        with pytest.raises(ParseError):
            parse_diagram("regions 2\n0 1 x\n")


class TestGoeritzMatrix:
    def test_figure_matrix(self):
        G = goeritz_matrix(parse_diagram(FIGURE_DATA))
        assert G == SymMatrix.from_rows([[2, -1, 0], [-1, 4, -1], [0, -1, 3]])

    def test_trefoil_dark(self):
        assert goeritz_matrix(parse_diagram(TREFOIL_DARK)) == SymMatrix.from_rows([[3]])

    def test_trefoil_light(self):
        G = goeritz_matrix(parse_diagram(TREFOIL_LIGHT))
        assert G == SymMatrix.from_rows([[-2, 1], [1, -2]])

    def test_single_region_gives_empty(self):
        assert goeritz_matrix(Diagram(1, ())) == SymMatrix.empty()

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_eta_negation_negates_matrix(self, seed):
        rng = random.Random(seed)
        d = _random_diagram(rng)
        flipped = Diagram(d.region_count, tuple((i, j, -e) for i, j, e in d.crossings))
        assert goeritz_matrix(flipped) == goeritz_matrix(d).neg()

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_relabeling_permutes_output(self, seed):
        rng = random.Random(seed)
        d = _random_diagram(rng)
        n = d.region_count
        perm = list(range(1, n))
        rng.shuffle(perm)
        mapping = {0: 0, **{i + 1: p for i, p in enumerate(perm)}}
        relabeled = Diagram(
            n, tuple((mapping[i], mapping[j], e) for i, j, e in d.crossings)
        )
        G, H = goeritz_matrix(d), goeritz_matrix(relabeled)
        for i in range(n - 1):
            for j in range(n - 1):
                assert H[mapping[i + 1] - 1, mapping[j + 1] - 1] == G[i, j]


class TestLargeGoeritz:
    def test_invariants_against_fraction_elimination(self):
        # 150 regions, nullity 3: zero rows bubble down through most pivots
        G = goeritz_matrix(_grid_diagram(random.Random(2), 150))
        _, signs, det = elimination_invariants(G)
        assert signs == (77, 69, 3)
        assert inertia_and_abs_det(G) == (Inertia(*signs), abs(det))
        assert determinant(G) == det

    def test_through_the_text_formats(self):
        # the file "kinkeq goeritz" writes and "kinkeq inertia" and "det" read
        G = goeritz_matrix(_grid_diagram(random.Random(2), 150))
        H = parse_matrix(serialize_matrix(G))
        assert H == G
        _, signs, det = elimination_invariants(H)
        assert inertia(H) == Inertia(*signs)
        assert determinant(H) == det


def _grid_diagram(rng: random.Random, count: int) -> Diagram:
    """A planar checkerboard graph: regions on a grid, crossings between
    grid neighbours, some of them doubled, with random signs."""
    width = round(count**0.5)
    crossings = []
    for r in range(count):
        for j in (r + 1, r + width):
            if j < count and (j == r + width or j % width) and rng.random() < 0.85:
                crossings += [(r, j, rng.choice((1, -1)))] * rng.choice((1, 1, 2))
    return Diagram(count, tuple(crossings))


def _random_diagram(rng: random.Random) -> Diagram:
    n = rng.randint(2, 5)
    crossings = []
    for _ in range(rng.randint(0, 8)):
        i = rng.randrange(n)
        j = rng.randrange(n)
        while j == i:
            j = rng.randrange(n)
        crossings.append((i, j, rng.choice([1, -1])))
    return Diagram(n, tuple(crossings))

"""Goeritz matrices from crossing-incidence data."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinkeq import Diagram, SymMatrix, determinant, goeritz_matrix, inertia, parse_diagram
from kinkeq.errors import (
    NotIntegerMatrix,
    ParseError,
    RegionOutOfRange,
    SelfPairedCrossing,
    SizeMismatch,
)
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

    @pytest.mark.parametrize("line", ["1 2 + x", "0 1", "0 +", "0;1 +", "0 1 + +"])
    def test_crossing_line_of_other_than_three_tokens(self, line):
        with pytest.raises(ParseError) as exc:
            parse_diagram(f"regions 3\n{line}\n")
        assert str(exc.value) == "line 2: expected crossing line 'i j s'"
        assert type(exc.value) is ParseError


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

    @pytest.mark.parametrize(
        "diagram, error",
        [
            (Diagram(3, ((-1, 1, 1),)), RegionOutOfRange),
            (Diagram(3, ((0, 3, 1),)), RegionOutOfRange),
            (Diagram(3, ((1, 1, 1),)), SelfPairedCrossing),
            (Diagram(3, ((0, 1, 2),)), ParseError),
            (Diagram(3, ((0, 1, 0),)), ParseError),
            (Diagram(0, ()), ParseError),
            (Diagram(-2, ()), ParseError),
            (Diagram(2.5, ()), ParseError),
            (Diagram(3, ((0, 1.5, 1),)), NotIntegerMatrix),
            (Diagram(3, (("0", 1, 1),)), NotIntegerMatrix),
            (Diagram(3, ((0, 1, 1.0),)), NotIntegerMatrix),
            (Diagram(3, (None,)), NotIntegerMatrix),
            (Diagram(3, ((0, 1),)), SizeMismatch),
            (Diagram(3, ((0, 1, 1, 1),)), SizeMismatch),
        ],
        ids=[
            "negative-label", "label-past-end", "self-paired", "double-sign", "zero-sign",
            "no-regions", "negative-count", "float-count", "float-label", "str-label",
            "float-sign", "none", "pair", "quadruple",
        ],
    )
    def test_refuses_what_parse_diagram_refuses(self, diagram, error):
        # a diagram built directly is checked like one read from text, with no line
        with pytest.raises(error) as exc:
            goeritz_matrix(diagram)
        assert getattr(exc.value, "line", None) is None

    def test_accepts_an_integer_diagram_as_before(self):
        # bool labels and signs are ints, as when the crossings are summed
        d = Diagram(3, ((True, 2, 1), (0, 2, -1), (0, 1, True)))
        assert goeritz_matrix(d) == goeritz_matrix(Diagram(3, ((1, 2, 1), (0, 2, -1), (0, 1, 1))))
        assert goeritz_matrix(Diagram(True, ())) == SymMatrix.empty()

    def test_checks_match_parse_diagram(self):
        # the same refusal, with the line number when read from text
        for text, diagram in [
            ("regions 3\n0 1 +\n2 5 -\n", Diagram(3, ((0, 1, 1), (2, 5, -1)))),
            ("regions 3\n0 1 +\n2 2 -\n", Diagram(3, ((0, 1, 1), (2, 2, -1)))),
            ("regions 0\n", Diagram(0, ())),
        ]:
            with pytest.raises(ParseError) as parsed:
                parse_diagram(text)
            with pytest.raises(ParseError) as built:
                goeritz_matrix(diagram)
            assert type(parsed.value) is type(built.value)
            assert str(parsed.value) == f"line {parsed.value.line}: {built.value}"

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

import random
import sys
from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kstab.polytope import (
    EMPTY,
    BoundaryMeasure,
    DegenerateInputError,
    Facet,
    FacetError,
    Polytope,
    PolytopeParseError,
    clip,
    is_delzant,
    measures,
    parse_polytope_text,
)

from conftest import (format_polytope_text, random_polygon, random_unimodular, random_weights,
                      unimodular_image)


class TestFromVertices:
    def test_unit_square(self, square):
        assert len(square.facets) == 4
        assert {f.normal for f in square.facets} == {(0, 1), (1, 0), (0, -1), (-1, 0)}
        import math
        for f in square.facets:
            assert math.gcd(*(abs(n) for n in f.normal)) == 1

    def test_trapezoid_facets(self, trapezoid):
        # hand hull: inward normals (0,1), (-1,-1), (0,-1), (1,0)
        got = {(f.normal, f.offset) for f in trapezoid.facets}
        assert got == {((0, 1), Q(0)), ((-1, -1), Q(-2)), ((0, -1), Q(-1)), ((1, 0), Q(0))}

    def test_collinear_rejected(self):
        with pytest.raises(DegenerateInputError):
            Polytope.from_vertices([(0, 0), (1, 0), (2, 0)])

    def test_interior_points_dropped(self):
        P = Polytope.from_vertices([(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)])
        assert len(P.vertices) == 4

    def test_segment(self):
        P = Polytope.from_vertices([(Q(1, 3),), (2,), (1,)])
        assert P.vertices == ((Q(1, 3),), (Q(2),))

    def test_degenerate_segment(self):
        with pytest.raises(DegenerateInputError):
            Polytope.from_vertices([(1,), (1,)])


class TestDelzant:
    def test_square(self, square):
        assert is_delzant(square)

    def test_scaled_projective_plane(self):
        assert is_delzant(Polytope.from_vertices([(0, 0), (2, 0), (0, 2)]))

    def test_bad_vertex(self):
        # at (1,0) the normals (0,1)-ish pair has |det| = 2
        assert not is_delzant(Polytope.from_vertices([(0, 0), (1, 0), (0, 2)]))

    def test_segment_always(self, segment01):
        assert is_delzant(segment01)

    def test_unimodular_invariance(self, square, trapezoid):
        rng = random.Random(3)
        for P in (square, trapezoid):
            base = is_delzant(P)
            for _ in range(25):
                T = random_unimodular(rng)
                shift = (rng.randint(-5, 5), rng.randint(-5, 5))
                assert is_delzant(unimodular_image(P, None, T, shift)[0]) == base


class TestMeasures:
    def test_unit_square(self, square):
        m = measures(square)
        assert (m.vol, m.bvol, m.A) == (1, 4, 4)
        assert m.centroid == (Q(1, 2), Q(1, 2))
        assert m.boundary_centroid == (Q(1, 2), Q(1, 2))

    def test_segment_unit_weights(self, segment01):
        m = measures(segment01)
        assert (m.vol, m.bvol, m.A) == (1, 2, 2)

    def test_segment_weighted(self, segment01):
        m = measures(segment01, BoundaryMeasure((Q(1), Q(2))))
        assert m.A == 3
        assert m.centroid == (Q(1, 2),)
        assert m.boundary_centroid == (Q(2, 3),)

    def test_lattice_normalization(self, square):
        # each square edge has sigma-measure 1; the slanted edge of the
        # doubled simplex has Euclidean length 2*sqrt(2) and normal norm
        # sqrt(2), hence lattice measure 2
        for k in range(4):
            assert square.edge_lattice_length(k) == 1
        tri = Polytope.from_vertices([(0, 0), (2, 0), (0, 2)])
        k = next(i for i, f in enumerate(tri.facets) if f.normal == (-1, -1))
        assert tri.edge_lattice_length(k) == 2


class TestClip:
    def test_half_square(self, square):
        R = clip(square, ((1, 0), Q(1, 2)))
        assert measures(R).vol == Q(1, 2)

    def test_disjoint(self, square):
        assert clip(square, ((1, 0), 2)) is EMPTY

    def test_trapezoid_to_square(self, trapezoid):
        R = clip(trapezoid, ((-1, 0), -1))   # x <= 1
        assert measures(R).vol == 1
        assert set(R.vertices) == {(Q(0), Q(0)), (Q(1), Q(0)), (Q(1), Q(1)), (Q(0), Q(1))}

    def test_rational_halfspace_rescaled(self, square):
        R = clip(square, ((Q(2, 3), 0), Q(1, 3)))
        assert measures(R).vol == Q(1, 2)

    def test_additivity_random(self):
        rng = random.Random(11)
        for _ in range(60):
            P = random_polygon(rng)
            a = (rng.randint(-4, 4), rng.randint(-4, 4))
            if a == (0, 0):
                continue
            c = Q(rng.randint(-8, 8), rng.randint(1, 4))
            left = clip(P, (a, c))
            right = clip(P, ((-a[0], -a[1]), -c))
            v = Q(0)
            for piece in (left, right):
                if piece is not EMPTY:
                    v += measures(piece).vol
            assert v == measures(P).vol

    def test_roundtrip_random(self):
        rng = random.Random(13)
        for _ in range(40):
            P = random_polygon(rng)
            R = Polytope.from_facets(2, [(f.normal, f.offset) for f in P.facets])
            assert set(R.vertices) == set(P.vertices)

    def test_cut_through_vertex(self, square):
        # the cut line passes exactly through two vertices: one side keeps
        # the full triangle, no degenerate slivers
        R = clip(square, ((1, 1), 1))
        assert measures(R).vol == Q(1, 2)
        assert len(R.vertices) == 3

    def test_tangent_halfspace_empty(self, square):
        # keep-set touches the square only along an edge: measure zero
        assert clip(square, ((1, 0), 1)) is EMPTY

    def test_redundant_facet_rejected(self):
        with pytest.raises(ValueError, match="redundant"):
            Polytope.from_facets(2, [((1, 0), 0), ((-1, 0), -1), ((0, 1), 0),
                                     ((0, -1), -1), ((1, 1), -5)])

    @pytest.mark.parametrize("normal, message", [
        ((0, 0), "zero facet normal"), ((0, -2), "not primitive"), ((1,), "wrong dimension")])
    def test_bad_normal_names_its_facet(self, normal, message):
        with pytest.raises(FacetError, match=message) as ei:
            Polytope.from_facets(2, [((1, 0), 0), ((-1, 0), -1), ((0, 1), 0), (normal, -1)])
        assert ei.value.index == 3


class TestTextFormat:
    def test_vertices_mode(self):
        P, sigma = parse_polytope_text("dim 2\nvertices\n0 0\n1 0\n1 1\n0 1\n")
        assert measures(P, sigma).A == 4

    def test_facets_mode_weights(self):
        text = "dim 1\nfacets\n1 0 1\n-1 -1 2\n"
        P, sigma = parse_polytope_text(text)
        assert measures(P, sigma).A == 3

    def test_rational_entries(self):
        P, _ = parse_polytope_text("dim 2\nvertices\n0 0\n1/2 0\n1/2 1/3\n0 1/3\n")
        assert measures(P).vol == Q(1, 6)

    def test_nonprimitive_rejected_with_repair(self):
        for text, repair, line_no in [
                ("dim 2\nfacets\n2 0 0 1\n-1 0 -1 1\n0 1 0 1\n0 -1 -1 1\n", "(1, 0)", 3),
                ("dim 1\nfacets\n-1 -1\n# lower end\n2 0\n", "(1,)", 5)]:
            with pytest.raises(PolytopeParseError) as ei:
                parse_polytope_text(text)
            assert "not primitive" in str(ei.value)
            assert repair in str(ei.value)
            assert ei.value.line_no == line_no

    def test_error_carries_line_number(self):
        with pytest.raises(PolytopeParseError) as ei:
            parse_polytope_text("dim 2\nvertices\n0 0\n1 bad\n")
        assert ei.value.line_no == 4

    @pytest.mark.parametrize("text, line_no", [
        ("dim 1\nfacets\n1 0 1e200000\n-1 -1\n", 3),
        ("dim 1\nfacets\n1 0\n-1 -1E+200000\n", 4),
        ("dim 1\nfacets\n1 0 1\n-1 -1.5e-200000 2\n", 4),
        ("dim 2\nvertices\n0 0\n1 0\n0 1e200000\n", 5),
    ])
    def test_huge_exponent_rejected(self, text, line_no):
        # Fraction would build a 200,001-digit integer before any check ran
        with pytest.raises(PolytopeParseError, match="digits") as ei:
            parse_polytope_text(text)
        assert ei.value.line_no == line_no

    def test_exponent_bound_is_the_int_digit_limit(self):
        limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        P, _ = parse_polytope_text(f"dim 1\nvertices\n0\n1e{limit - 2}\n")
        assert P.vertices[-1] == (Q(10) ** (limit - 2),)
        with pytest.raises(PolytopeParseError, match="digits"):
            parse_polytope_text(f"dim 1\nvertices\n0\n1e{limit}\n")

    def test_roundtrip(self, trapezoid):
        rng = random.Random(5)
        sigma = random_weights(rng, trapezoid)
        P2, s2 = parse_polytope_text(format_polytope_text(trapezoid, sigma))
        assert set(P2.vertices) == set(trapezoid.vertices)
        assert measures(P2, s2).bvol == measures(trapezoid, sigma).bvol

    def test_comments_and_blanks(self):
        P, _ = parse_polytope_text("# squares\n\ndim 2\nvertices\n0 0\n1 0 # corner\n1 1\n0 1\n")
        assert len(P.vertices) == 4


# -- properties of the text format -------------------------------------------

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
RATIONALS = st.builds(Q, st.integers(-24, 24), st.integers(1, 6))
WEIGHTS = st.builds(Q, st.integers(1, 40), st.integers(1, 9))


COORDS = st.one_of(st.integers(-10 ** 6, 10 ** 6),
                   st.builds(Q, st.integers(-10 ** 9, 10 ** 9), st.integers(1, 10 ** 6)))


@st.composite
def facets_and_points(draw):
    """A facet and a point of dimension 1 to 3; on about half the draws the
    point lies on the facet's hyperplane."""
    dim = draw(st.integers(1, 3))
    normal = tuple(draw(st.lists(st.integers(-9, 9), min_size=dim, max_size=dim)))
    x = tuple(draw(st.lists(COORDS, min_size=dim, max_size=dim)))
    on = sum((n * Q(xi) for n, xi in zip(normal, x)), Q(0))
    offset = on if draw(st.booleans()) else Q(draw(COORDS))
    return Facet(normal, offset), x


class TestFacetValue:
    @PROPERTY
    @given(facets_and_points())
    def test_matches_fraction_sum(self, drawn):
        f, x = drawn
        want = sum((n * Q(xi) for n, xi in zip(f.normal, x)), Q(0)) - f.offset
        got = f.value(x)
        assert type(got) is Q and got == want
        assert (got > 0) - (got < 0) == (want > 0) - (want < 0)

    def test_seeded_points(self):
        # random rational points against the facets of random polygons
        rng = random.Random(107)
        for _ in range(40):
            P = random_polygon(rng)
            for _ in range(25):
                x = tuple(Q(rng.randint(-400, 400), rng.randint(1, 60)) for _ in range(2))
                for f in P.facets:
                    want = f.normal[0] * x[0] + f.normal[1] * x[1] - f.offset
                    assert f.value(x) == want
                assert P.contains(x) == all(f.normal[0] * x[0] + f.normal[1] * x[1] >= f.offset
                                            for f in P.facets)
            for v in P.vertices:
                assert sum(f.value(v) == 0 for f in P.facets) == 2


@st.composite
def weighted_polytopes(draw):
    """A rational segment or polygon with a random positive weight per facet."""
    if draw(st.booleans()):
        lo, hi = sorted(draw(st.lists(RATIONALS, min_size=2, max_size=2, unique=True)))
        P = Polytope.from_vertices([(lo,), (hi,)])
    else:
        pts = draw(st.lists(st.tuples(RATIONALS, RATIONALS), min_size=3, max_size=9))
        try:
            P = Polytope.from_vertices(pts)
        except DegenerateInputError:
            assume(False)
    return P, BoundaryMeasure(tuple(draw(WEIGHTS) for _ in P.facets))


@st.composite
def mutated_texts(draw):
    """A valid polytope file after one to three character or line edits."""
    text = format_polytope_text(*draw(weighted_polytopes()))
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["replace", "insert", "delete", "repeat line", "drop line"]))
        if op in ("repeat line", "drop line"):
            lines = text.split("\n")
            k = draw(st.integers(0, len(lines) - 1))
            lines[k:k + 1] = [lines[k]] * 2 if op == "repeat line" else []
            text = "\n".join(lines)
            continue
        i = draw(st.integers(0, len(text)))
        c = draw(st.sampled_from("0123456789-/ #\nx."))
        text = text[:i] + (c if op != "delete" else "") + text[i + (op != "insert"):]
    return text


class TestTextFormatProperties:
    @PROPERTY
    @given(weighted_polytopes())
    def test_roundtrip_exact(self, polytope):
        P, sigma = polytope
        P2, sigma2 = parse_polytope_text(format_polytope_text(P, sigma))
        assert P2.vertices == P.vertices
        assert P2.facets == P.facets
        assert sigma2.weights == sigma.weights

    @PROPERTY
    @given(mutated_texts())
    def test_mutated_text_raises_only_parse_errors(self, text):
        try:
            parse_polytope_text(text)
        except PolytopeParseError as e:
            assert 1 <= e.line_no <= max(1, len(text.splitlines()))

    @PROPERTY
    @given(weighted_polytopes(), st.data())
    def test_repeated_facet_rejected(self, polytope, data):
        lines = format_polytope_text(*polytope).splitlines()
        k = data.draw(st.integers(2, len(lines) - 1))
        with pytest.raises(PolytopeParseError, match="redundant or repeated"):
            parse_polytope_text("\n".join(lines[:k + 1] + lines[k:]))

    def test_redundant_endpoint_rejected(self):
        # a segment used to keep the tighter bound but the last facet's weight
        with pytest.raises(PolytopeParseError, match="redundant or repeated") as ei:
            parse_polytope_text("dim 1\nfacets\n1 0 5\n1 -1 7\n-1 -1\n")
        assert ei.value.line_no == 3

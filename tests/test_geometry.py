import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nodalcount import geometry
from nodalcount.burnside import BurnsideElement
from nodalcount.geometry import (
    MONOMIALS,
    ZERO,
    Conic,
    FieldExtensionError,
    IrrationalNodalParameter,
    NotGeneral,
    PencilCase,
    ProjPoint,
    QuadExt,
    _rational_roots,
    analyze_pencil,
    apply_matrix,
    base_locus,
    conic_from_lines,
    conic_to_string,
    d8_case_suite,
    d8_representation,
    det3,
    factor_degenerate,
    field_sqrt,
    identity_matrix,
    induced_sigma,
    klein_counterexample,
    klein_representation,
    line_to_string,
    mat,
    mat_mul,
    nodal_members,
    pencil_invariant,
    pencil_through,
    qe,
    rank,
    sym2,
)
from nodalcount.nodal import enumerate_sigma_configs, verify
from nodalcount.permgroup import (
    Permutation,
    _hom_from_generators,
    class_index_of,
    generate_group,
    parse_permutation,
)
from nodalcount.presets import PRESET_ORDER, resolve_group
from oracles import (
    KLEIN_GENERATORS,
    collinear,
    d8_generators,
    d8_invariant_structure,
    deadline,
    mat_inverse,
    representation_oracle,
    span_equal,
    strip_squares_oracle,
    transform_conic,
)


PRIME = 10**9 + 7
MERSENNE_61 = 2**61 - 1


def perm(text):
    return parse_permutation(text)


def conic(terms):
    """A conic from its nonzero coefficients keyed by monomial, as {"XY": 1}."""
    assert set(terms) <= set(MONOMIALS), terms
    return Conic(terms.get(name, 0) for name in MONOMIALS)


def first_member_base_locus(f, g):
    """base_locus on the first degenerate member, solved and factored here."""
    t, member = nodal_members(f, g)[0]
    return base_locus(f, g, t, factor_degenerate(member))


# ---------------------------------------------------------------------------
# field arithmetic
# ---------------------------------------------------------------------------


rationals = st.builds(
    Fraction, st.integers(-50, 50), st.integers(1, 12)
)


def quads(radicand):
    return st.tuples(rationals, rationals).map(
        lambda ab: QuadExt(ab[0], ab[1], radicand if ab[1] else None)
    )


class TestQuadExt:
    @settings(max_examples=80, derandomize=True)
    @given(st.tuples(quads(-2), quads(-2), quads(-2)))
    def test_field_axioms(self, triple):
        x, y, z = triple
        assert (x + y) + z == x + (y + z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        if not x.is_zero():
            assert x * x.inverse() == QuadExt(1)

    def test_equality_is_componentwise(self):
        assert QuadExt(1, 2, -2) == QuadExt(1, 2, -2)
        assert QuadExt(1, 2, -2) != QuadExt(1, 3, -2)
        assert QuadExt(Fraction(1, 2)) == QuadExt(Fraction(1, 2), 0)

    @pytest.mark.parametrize(
        "call",
        [lambda: qe("1"), lambda: QuadExt(1) + "x", lambda: "x" - QuadExt(1)],
        ids=["qe", "add", "rsub"],
    )
    def test_a_string_is_not_a_field_element(self, call):
        with pytest.raises(TypeError):
            call()

    def test_sqrt_of_zero_is_zero(self):
        assert field_sqrt(0) == 0

    def test_mixing_radicands_fails(self):
        with pytest.raises(FieldExtensionError):
            QuadExt(0, 1, -2) + QuadExt(0, 1, 3)

    def test_rational_parts_interoperate(self):
        assert QuadExt(2) + QuadExt(0, 1, 5) == QuadExt(2, 1, 5)
        assert 2 * QuadExt(0, 1, 5) == QuadExt(0, 2, 5)

    @pytest.mark.parametrize(
        "radicand", [0, 1, 4, 10**40], ids=["0", "1", "4", "10^40"]
    )
    def test_square_radicand_rejected(self, radicand):
        with pytest.raises(ValueError, match="is a perfect square"):
            QuadExt(0, 1, radicand)

    def test_radicand_need_not_be_squarefree(self):
        # sqrt(8) and 2*sqrt(2) are one number written over two radicands;
        # arithmetic keeps the two fields apart rather than factor to
        # relate them.
        assert QuadExt(0, 1, 8).radicand == 8
        with pytest.raises(FieldExtensionError):
            QuadExt(0, 1, 8) + QuadExt(0, 1, 2)

    def test_equality_across_radicands(self):
        root8, twice_root2 = QuadExt(3, 1, 8), QuadExt(3, 2, 2)
        assert root8 == twice_root2
        assert hash(root8) == hash(twice_root2)
        assert QuadExt(0, 1, -8) == QuadExt(0, 2, -2)
        assert ProjPoint((1, root8, 0)) == ProjPoint((2, 2 * twice_root2, 0))
        # b*b*radicand agrees, but the signs of b or of the radicands differ
        assert QuadExt(0, -1, 8) != QuadExt(0, 2, 2)
        assert QuadExt(0, 1, 2) != QuadExt(0, 1, -2)
        assert QuadExt(0, 1, 2) != QuadExt(0, -1, -2)
        assert QuadExt(0, 1, 2) != 0

    def test_rational_hashes_like_the_rational(self):
        assert hash(QuadExt(1)) == hash(1)
        assert 1 in {QuadExt(1)}
        assert QuadExt(Fraction(1, 2)) in {Fraction(1, 2)}

    def test_sqrt_strips_squares_for_display(self):
        assert str(field_sqrt(qe(-8))) == "2*sqrt(-2)"
        # 65537 is above the strip bound, so its square stays in the radicand
        x = qe(-2 * 65537**2)
        root = field_sqrt(x)
        assert root * root == x
        assert root.radicand == -2 * 65537**2

    def test_sqrt_rational_square(self):
        assert field_sqrt(qe(Fraction(9, 4))) == QuadExt(Fraction(3, 2))

    def test_sqrt_extends(self):
        root = field_sqrt(qe(-2))
        assert root == QuadExt(0, 1, -2)
        assert root * root == QuadExt(-2)
        root = field_sqrt(qe(Fraction(-1, 2)))
        assert root * root == QuadExt(Fraction(-1, 2))
        assert root.radicand == -2

    def test_sqrt_inside_extension(self):
        # (1 + sqrt(2))^2 = 3 + 2 sqrt(2)
        square = QuadExt(3, 2, 2)
        root = field_sqrt(square)
        assert root * root == square

    def test_sqrt_inside_extension_with_large_parts(self):
        # Deciding whether a rational is a square must not factor it.
        s = QuadExt(10**30 + 57, 2**61 - 1, 2)
        square = s * s
        with deadline(2):
            root = field_sqrt(square)
        assert root * root == square

    def test_sqrt_needing_tower_fails(self):
        with pytest.raises(FieldExtensionError):
            field_sqrt(QuadExt(0, 1, 2))  # sqrt(sqrt(2))

    def test_rendering(self):
        assert str(QuadExt(0, 1, -2)) == "sqrt(-2)"
        assert str(QuadExt(1, -1, -2)) == "1-sqrt(-2)"
        assert str(ProjPoint((1, 1, QuadExt(0, 1, -2)))) == "[1:1:sqrt(-2)]"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.one_of(
        st.integers(-(10**9), 10**9),
        st.builds(
            lambda s, m: s * s * m,
            st.integers(1, 10**5),
            st.integers(-(10**4), 10**4),
        ),
        st.builds(
            lambda e2, e3, e5, sign: sign * 2**e2 * 3**e3 * 5**e5,
            st.integers(0, 40),
            st.integers(0, 20),
            st.integers(0, 12),
            st.sampled_from([1, -1]),
        ),
    )
)
def test_strip_squares_matches_every_divisor_trial(n):
    assert geometry._strip_squares(n) == strip_squares_oracle(n)


non_square_radicands = st.integers(-60, 60).filter(
    lambda m: m < 0 or math.isqrt(m) ** 2 != m
)


class TestTrustedResults:
    """Field operations build their results without the checking
    constructor; each result must be the number the constructor gives."""

    @staticmethod
    def assert_built(result, a, b, m):
        expected = QuadExt(a, b, m if b else None)
        assert (result.a, result.b, result.radicand) == (
            expected.a, expected.b, expected.radicand
        )
        assert type(result.a) is type(result.b) is Fraction
        assert result == expected and hash(result) == hash(expected)

    @settings(max_examples=150, derandomize=True)
    @given(rationals, rationals, rationals, rationals, non_square_radicands)
    def test_operations_match_the_constructor(self, a1, b1, a2, b2, m):
        x, y = QuadExt(a1, b1, m), QuadExt(a2, b2, m)
        self.assert_built(x + y, a1 + a2, b1 + b2, m)
        self.assert_built(x - y, a1 - a2, b1 - b2, m)
        self.assert_built(-x, -a1, -b1, m)
        self.assert_built(x * y, a1 * a2 + b1 * b2 * m, a1 * b2 + b1 * a2, m)
        if not y.is_zero():
            norm = a2 * a2 - b2 * b2 * m
            inv_a, inv_b = a2 / norm, -b2 / norm
            self.assert_built(y.inverse(), inv_a, inv_b, m)
            self.assert_built(
                x / y, a1 * inv_a + b1 * inv_b * m, a1 * inv_b + b1 * inv_a, m
            )

    @settings(max_examples=60, derandomize=True)
    @given(rationals, rationals)
    def test_rational_operations_match_the_constructor(self, a1, a2):
        x, y = QuadExt(a1), QuadExt(a2)
        self.assert_built(x + y, a1 + a2, 0, None)
        self.assert_built(x * y, a1 * a2, 0, None)
        if a2:
            self.assert_built(y.inverse(), 1 / a2, 0, None)

    @settings(max_examples=60, derandomize=True)
    @given(rationals, rationals)
    def test_rational_difference_negation_and_quotient(self, a1, a2):
        x, y = QuadExt(a1), QuadExt(a2)
        self.assert_built(x - y, a1 - a2, 0, None)
        self.assert_built(-x, -a1, 0, None)
        if a2:
            self.assert_built(x / y, a1 / a2, 0, None)

    @settings(max_examples=60, derandomize=True)
    @given(
        rationals,
        rationals,
        st.integers(-50, 50),
        rationals,
        st.one_of(st.none(), non_square_radicands),
    )
    def test_plain_numbers_on_either_side(self, a, b, n, f, m):
        b = b if m is not None else 0
        x = QuadExt(a, b, m)
        for c in (n, f):
            self.assert_built(x + c, a + c, b, m)
            self.assert_built(c + x, a + c, b, m)
            self.assert_built(x - c, a - c, b, m)
            self.assert_built(c - x, c - a, -b, m)
            self.assert_built(x * c, a * c, b * c, m)
            self.assert_built(c * x, a * c, b * c, m)
            if c:
                self.assert_built(x / c, a / c, b / c, m)
            if not x.is_zero():
                norm = a * a - b * b * (m or 0)
                self.assert_built(c / x, c * a / norm, -c * b / norm, m)
        # _dot's sum: ZERO + an int + a Fraction + x, and 0 + products.
        self.assert_built(sum((n, f, x), ZERO), n + f + a, b, m)
        self.assert_built(sum((n * x, x * f)), (n + f) * a, (n + f) * b, m)

    @settings(max_examples=60, derandomize=True)
    @given(
        rationals,
        rationals,
        rationals.filter(bool),
        non_square_radicands,
        non_square_radicands,
    )
    def test_rational_meets_irrational_in_both_orders(self, r, a, b, m, m2):
        z = QuadExt(a, b, m)
        # A rational carries no radicand, even one cancelled out of another
        # field, so it never raises FieldExtensionError.
        root = QuadExt(0, 1, m2)
        for x in (QuadExt(r), (r + root) - root):
            self.assert_built(x + z, r + a, b, m)
            self.assert_built(z + x, a + r, b, m)
            self.assert_built(x - z, r - a, -b, m)
            self.assert_built(z - x, a - r, b, m)
            self.assert_built(x * z, r * a, r * b, m)
            self.assert_built(z * x, a * r, b * r, m)
            norm = a * a - b * b * m
            self.assert_built(x / z, r * a / norm, -r * b / norm, m)
            if r:
                self.assert_built(z / x, a / r, b / r, m)

    def test_cancelled_radical_part_drops_the_radicand(self):
        root2 = QuadExt(0, 1, 2)
        for result, rational in (
            (root2 * root2, 2),
            ((1 + root2) - root2, 1),
            (root2 - root2, 0),
            (QuadExt(1, 1, -3) * QuadExt(1, -1, -3), 4),
            (QuadExt(2, 2, 2) / QuadExt(1, 1, 2), 2),
        ):
            assert result.radicand is None and result.b == 0
            assert result == rational and hash(result) == hash(rational)

    @settings(max_examples=60, derandomize=True)
    @given(
        rationals,
        rationals.filter(bool),
        rationals.filter(bool),
        non_square_radicands,
        non_square_radicands,
    )
    def test_results_still_refuse_a_second_radicand(self, a, b1, b2, m1, m2):
        assume(m1 != m2)
        x = QuadExt(a, b1, m1) * QuadExt(1, 1, m1)  # a result, not an input
        y = QuadExt(0, b2, m2)
        for op in (
            lambda: x + y, lambda: x - y, lambda: x * y, lambda: x / y
        ):
            with pytest.raises(FieldExtensionError):
                op()


class TestProjPoint:
    def test_scalar_equivalence(self):
        assert ProjPoint((2, 4, 6)) == ProjPoint((1, 2, 3))
        assert ProjPoint((-3, -2, -1)) == ProjPoint((3, 2, 1))
        assert ProjPoint((1, 2, 3)) != ProjPoint((1, 2, -1))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            ProjPoint((0, 0, 0))

    def test_collinear(self):
        assert collinear(
            ProjPoint((1, 0, 0)), ProjPoint((0, 1, 0)), ProjPoint((1, 1, 0))
        )
        assert not collinear(
            ProjPoint((1, 0, 0)), ProjPoint((0, 1, 0)), ProjPoint((0, 0, 1))
        )


# ---------------------------------------------------------------------------
# conics
# ---------------------------------------------------------------------------


class TestConic:
    def test_conic_to_string(self):
        cases = {
            (1, -1, 0, 0, 0, 0): "X^2 - Y^2",
            (2, 0, 1, 0, 0, 0): "2*X^2 + Z^2",
            (0, 0, 0, 0, 0, 1): "XY",
            (Fraction(3, 2), Fraction(3, 2), -5, 0, 0, 0): (
                "(3/2)*X^2 + (3/2)*Y^2 - 5*Z^2"
            ),
        }
        for coeffs, text in cases.items():
            assert conic_to_string(Conic(coeffs)) == text

    @pytest.mark.parametrize(
        "value, text",
        [
            (3, "3"),
            (-3, "-3"),
            (Fraction(3, 2), "(3/2)"),
            (Fraction(-3, 2), "(-3/2)"),
            (QuadExt(0, 1, 2), "(sqrt(2))"),
            (QuadExt(0, -1, 2), "(-sqrt(2))"),
            (QuadExt(1, 1, 2), "(1+sqrt(2))"),
            (QuadExt(0, 2, 2), "(2*sqrt(2))"),
        ],
    )
    def test_only_an_integer_coefficient_stands_bare(self, value, text):
        assert conic_to_string(Conic((value, 0, 0, 0, 0, 0))) == f"{text}*X^2"
        assert line_to_string((qe(value), ZERO, ZERO)) == f"{text}*X"

    def test_symmetric_matrix_convention(self):
        c = conic({"YZ": 1})
        M = c.sym_matrix()
        assert M[1][2] == qe(Fraction(1, 2))
        assert M[2][1] == qe(Fraction(1, 2))

    def test_evaluation(self):
        c = conic({"X^2": 1, "Y^2": 1, "Z^2": 1})
        p = ProjPoint((1, 1, QuadExt(0, 1, -2)))
        assert c(p).is_zero()


# ---------------------------------------------------------------------------
# sym2
# ---------------------------------------------------------------------------


def printed_sym2_rotation(a):
    return mat(
        [
            [0, 1, 0, 0, 0, 0],
            [1, 0, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, 0, a, 0],
            [0, 0, 0, -a, 0, 0],
            [0, 0, 0, 0, 0, -1],
        ]
    )


def printed_sym2_reflection(b):
    return mat(
        [
            [1, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, -b, 0, 0],
            [0, 0, 0, 0, b, 0],
            [0, 0, 0, 0, 0, -1],
        ]
    )


class TestSym2:
    def test_identity(self):
        assert sym2(identity_matrix(3)) == identity_matrix(6)

    def test_printed_matrices(self):
        for a in (1, -1):
            for b in (1, -1):
                G, rep = d8_representation(a, b)
                assert sym2(rep[perm("(1234)")]) == printed_sym2_rotation(a)
                assert sym2(rep[perm("(13)")]) == printed_sym2_reflection(b)

    def test_multiplicative_on_generator_products(self):
        for a in (1, -1):
            for b in (1, -1):
                G, rep = d8_representation(a, b)
                rot = rep[perm("(1234)")]
                ref = rep[perm("(13)")]
                assert sym2(mat_mul(ref, rot)) == mat_mul(sym2(ref), sym2(rot))
                assert sym2(mat_mul(rot, ref)) == mat_mul(sym2(rot), sym2(ref))

    @settings(max_examples=30, derandomize=True)
    @given(
        st.lists(st.integers(-3, 3), min_size=9, max_size=9),
        st.lists(st.integers(-3, 3), min_size=9, max_size=9),
    )
    def test_multiplicative_on_random_invertible(self, flat_a, flat_b):
        from nodalcount.geometry import det3

        A = mat([flat_a[0:3], flat_a[3:6], flat_a[6:9]])
        B = mat([flat_b[0:3], flat_b[3:6], flat_b[6:9]])
        if det3(A).is_zero() or det3(B).is_zero():
            return
        assert sym2(mat_mul(A, B)) == mat_mul(sym2(A), sym2(B))


def conic_pairs(coefficient):
    conic = st.lists(coefficient, min_size=6, max_size=6).filter(
        lambda cs: any(not c.is_zero() for c in cs)
    )
    return st.tuples(conic.map(Conic), conic.map(Conic))


class TestDetCubic:
    @settings(max_examples=60, derandomize=True)
    @given(st.one_of(conic_pairs(rationals.map(QuadExt)), conic_pairs(quads(-2))))
    def test_interpolated_cubic_matches_determinant(self, pair):
        from nodalcount.geometry import _det_cubic, det3

        f, g = pair
        cubic = _det_cubic(f, g)
        A, B = f.sym_matrix(), g.sym_matrix()
        for t in (Fraction(2), Fraction(-1, 3), Fraction(5, 7)):
            pencil = tuple(
                tuple(a + t * b for a, b in zip(ra, rb)) for ra, rb in zip(A, B)
            )
            value = sum((c * t**k for k, c in enumerate(cubic)), qe(0))
            assert value == det3(pencil)


# ---------------------------------------------------------------------------
# degenerate members and factorization
# ---------------------------------------------------------------------------


class TestNodalMembers:
    def test_double_line_and_rank_two_members(self):
        f = conic({"Z^2": 1})
        g = conic({"XY": 1})
        members = nodal_members(f, g)
        ts = [t for t, _ in members]
        assert ts == [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
        ranks = [rank(list(member.sym_matrix())) for _, member in members]
        assert ranks == [1, 2]

    def test_common_component_detected(self):
        with pytest.raises(NotGeneral) as exc:
            nodal_members(conic({"XY": 1}), conic({"XZ": 1}))
        assert exc.value.reason == "common component"

    def test_case8_roots(self):
        f = conic({"X^2": 1, "Y^2": -1})
        g = conic({"X^2": 1, "Y^2": 1, "Z^2": 1})
        members = nodal_members(f, g)
        assert [t for t, _ in members] == [
            (Fraction(1), Fraction(-1)),
            (Fraction(1), Fraction(0)),
            (Fraction(1), Fraction(1)),
        ]

    def test_irrational_roots_rejected(self):
        # the dehomogenized determinant is -2 - x^2/4: no rational roots
        f = conic({"X^2": 1, "Y^2": -2, "Z^2": 1})
        g = conic({"XY": 1})
        with pytest.raises(IrrationalNodalParameter):
            nodal_members(f, g)


class TestRationalRoots:
    @settings(max_examples=200, derandomize=True)
    @given(
        st.lists(
            st.tuples(st.integers(-10**6, 10**6), st.integers(-999, 999).filter(bool)),
            max_size=3,
        ),
        st.integers(-99, 99).filter(bool),
        st.integers(0, 2),
    )
    def test_roots_of_products_of_linear_factors(self, factors, scale, padding):
        poly = [scale]
        for a, b in factors:
            # multiply by b*x - a
            poly = [b * high - a * low for low, high in zip(poly + [0], [0] + poly)]
        roots = _rational_roots(poly + [0] * padding)
        assert sorted(roots) == sorted(Fraction(a, b) for a, b in factors)

    @pytest.mark.parametrize(
        "poly",
        [
            pytest.param([2, -2, -1, 1], id="(x-1)(x^2-2)"),
            pytest.param([-2, 0, 0, 1], id="x^3-2"),
            pytest.param([1, 0, 1], id="x^2+1"),
        ],
    )
    def test_irrational_roots_rejected(self, poly):
        with pytest.raises(IrrationalNodalParameter) as exc:
            _rational_roots(poly)
        assert str(exc.value) == "determinant cubic has an irrational root"

    def test_large_roots_solved_exactly(self):
        third = Fraction(PRIME, 3)
        assert sorted(_rational_roots([-(PRIME**2), 0, 9])) == [-third, third]
        # (2x - 1)(9x^2 - PRIME^2)
        cubic = [PRIME**2, -2 * PRIME**2, -9, 18]
        assert sorted(_rational_roots(cubic)) == [-third, Fraction(1, 2), third]


class TestFactorDegenerate:
    def test_difference_of_squares(self):
        pair = factor_degenerate(conic({"X^2": 1, "Y^2": -1}))
        assert pair[0] != pair[1]
        lines = {tuple(map(str, line)) for line in pair}
        assert conic_from_lines(*pair).is_proportional(conic({"X^2": 1, "Y^2": -1}))

    def test_quadratic_extension_needed(self):
        singular = conic({"X^2": 2, "Z^2": 1})
        pair = factor_degenerate(singular)
        assert conic_from_lines(*pair).is_proportional(singular)
        radicands = {
            c.radicand for line in pair for c in line if c.radicand is not None
        }
        assert radicands == {-2}

    def test_double_line(self):
        out = factor_degenerate(conic({"Z^2": 1}))
        line = out[0]
        assert out == (line, line)
        assert [str(c) for c in line] == ["0", "0", "1"]

    def test_rank_three_rejected(self):
        with pytest.raises(ValueError):
            factor_degenerate(conic({"X^2": 1, "Y^2": 1, "Z^2": 1}))


# ---------------------------------------------------------------------------
# base locus
# ---------------------------------------------------------------------------


class TestBaseLocus:
    def test_case8_points(self):
        f = conic({"X^2": 1, "Y^2": -1})
        g = conic({"X^2": 1, "Y^2": 1, "Z^2": 1})
        points = first_member_base_locus(f, g)
        w = QuadExt(0, 1, -2)
        expected = {
            ProjPoint((1, 1, w)),
            ProjPoint((1, 1, -w)),
            ProjPoint((1, -1, w)),
            ProjPoint((1, -1, -w)),
        }
        assert set(points) == expected
        for p in points:
            assert f(p).is_zero() and g(p).is_zero()
        for i in range(4):
            for j in range(i + 1, 4):
                for k in range(j + 1, 4):
                    assert not collinear(points[i], points[j], points[k])

    def test_repeated_base_point(self):
        # the first degenerate member of this pencil is the double line Z^2
        f, g = conic({"Z^2": 1}), conic({"X^2": 1, "Y^2": -1})
        with pytest.raises(NotGeneral) as exc:
            first_member_base_locus(f, g)
        assert exc.value.reason == "repeated base point"
        G = resolve_group("trivial")
        case = PencilCase("z2", G, {Permutation.identity(): identity_matrix(3)}, f, g)
        with pytest.raises(NotGeneral) as exc:
            analyze_pencil(case)
        assert exc.value.reason == "repeated base point"

    @pytest.mark.parametrize(
        "f, g",
        [
            # _split_on_line: the restriction has a double zero at u
            ((-2, 1, 1, 2, -2, 1), (0, -1, 2, -2, 0, -2)),
            # _split_on_line: the restriction has zero discriminant
            ((2, -1, 2, 2, -1, 1), (-2, 1, 0, 2, 2, -1)),
            # base_locus: the four points found are not distinct
            ((0, -2, 0, 2, 1, 2), (-1, 0, 0, 2, 1, 2)),
        ],
    )
    def test_non_general_pencils_are_refused(self, f, g):
        G = resolve_group("trivial")
        rep = {Permutation.identity(): identity_matrix(3)}
        case = PencilCase("repeated", G, rep, Conic(f), Conic(g))
        with pytest.raises(NotGeneral) as exc:
            analyze_pencil(case)
        assert exc.value.reason == "repeated base point"

    def test_line_inside_the_other_member_is_a_common_component(self):
        # The line X = 0 lies on the conic XY.
        e = identity_matrix(3)
        with pytest.raises(NotGeneral) as exc:
            base_locus(conic({"XY": 1}), conic({"Z^2": 1}), (0, 1), (e[0], e[2]))
        assert exc.value.reason == "common component"

    def test_klein_round_trip(self):
        expected = [
            ProjPoint((1, 2, 3)),
            ProjPoint((1, 2, -1)),
            ProjPoint((1, -2, -1)),
            ProjPoint((-3, -2, -1)),
        ]
        f, g = pencil_through(expected)
        assert set(first_member_base_locus(f, g)) == set(expected)

    def test_pencil_span_round_trip(self):
        f = conic({"X^2": 1, "Y^2": -1})
        g = conic({"X^2": 1, "Y^2": 1, "Z^2": 1})
        f2, g2 = pencil_through(first_member_base_locus(f, g))
        assert span_equal([f.coeffs, g.coeffs], [f2.coeffs, g2.coeffs])


# ---------------------------------------------------------------------------
# representations and invariance
# ---------------------------------------------------------------------------


class TestRepresentations:
    def test_klein_matrices_close_exactly(self):
        G, rep = klein_representation()
        for g in G.elements:
            for h in G.elements:
                assert mat_mul(rep[g], rep[h]) == rep[g * h]

    def test_klein_printed_matrix(self):
        _, rep = klein_representation()
        assert rep[perm("(14)(23)")] == mat(
            [[0, 0, -1], [0, -1, 0], [-1, 0, 0]]
        )

    def test_dihedral_relations_exact(self):
        for a in (1, -1):
            for b in (1, -1):
                G, rep = d8_representation(a, b)
                rot = rep[perm("(1234)")]
                ref = rep[perm("(13)")]
                assert mat_mul(ref, ref) == identity_matrix(3)
                r2 = mat_mul(rot, rot)
                assert mat_mul(r2, r2) == identity_matrix(3)
                fr = mat_mul(ref, rot)
                assert mat_mul(fr, fr) == identity_matrix(3)
                for g in G.elements:
                    for h in G.elements:
                        assert mat_mul(rep[g], rep[h]) == rep[g * h]

    def test_representations_are_built_once_and_shared(self):
        assert klein_representation() is klein_representation()
        for a in (1, -1):
            for b in (1, -1):
                G, rep = d8_representation(a, b)
                assert d8_representation(a, b)[1] is rep
                assert d8_case_suite(a, b, 1, 1)[7].rep is rep
                with pytest.raises(TypeError):
                    rep[G.generators[0]] = identity_matrix(3)

    def test_bad_signs_raise_on_every_call(self):
        for _ in range(3):
            with pytest.raises(ValueError, match="must be"):
                d8_representation(2, 1)

    def test_one_cache_miss_per_sign_pair(self, monkeypatch):
        d8_representation.cache_clear()
        calls = count_calls(monkeypatch, "_hom_from_generators")
        signs = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
        for _ in range(3):
            for a, b in signs:
                d8_case_suite(a, b, 2, 3)
        info = d8_representation.cache_info()
        assert (info.misses, info.hits) == (4, 8)
        # every generator edge is checked, once per sign pair
        assert calls == {"_hom_from_generators": 4}

    def test_representations_multiply_no_field_numbers(self, monkeypatch):
        d8_representation.cache_clear()
        klein_representation.cache_clear()
        calls = Counter()
        for name in ("__mul__", "__rmul__"):
            def counted(*args, _name=name, _original=getattr(QuadExt, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(QuadExt, name, counted)
        for a, b in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
            d8_representation(a, b)
        klein_representation()
        assert calls == {}

    def test_tables_match_field_products(self):
        built = {(a, b): d8_representation(a, b) for a in (1, -1) for b in (1, -1)}
        oracles = {(a, b): representation_oracle(d8_generators(a, b)) for a, b in built}
        built["klein"] = klein_representation()
        oracles["klein"] = representation_oracle(KLEIN_GENERATORS)
        for key, (G, rep) in built.items():
            assert dict(rep) == oracles[key]
            assert set(rep) == set(G.elements)
            for M in rep.values():
                assert all(type(v) is QuadExt for row in M for v in row)

    def test_images_breaking_a_relation_are_rejected(self):
        rotation = mat([[0, -1, 0], [1, 0, 0], [0, 0, 1]])
        # commutes with the rotation, so F R F = R, not R^-1
        reflection = mat([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
        with pytest.raises(ValueError, match="do not extend"):
            _hom_from_generators(
                {perm("(1234)"): rotation, perm("(13)"): reflection},
                mat_mul,
                identity_matrix(3),
            )
        # the same walk on the integer matrices the representations start from
        with pytest.raises(ValueError, match="do not extend"):
            _hom_from_generators(
                {perm("(1234)"): [[0, -1, 0], [1, 0, 0], [0, 0, 1]],
                 perm("(13)"): [[1, 0, 0], [0, 1, 0], [0, 0, -1]]},
                mat_mul,
                ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
            )
        # the same walk on permutation images: (123) has order 3, not 4
        with pytest.raises(ValueError, match="do not extend"):
            _hom_from_generators(
                {perm("(1234)"): perm("(123)")},
                Permutation.__mul__,
                Permutation.identity(),
            )

    def test_representations_act_through_the_named_groups(self):
        # The group comes from closing the generator images, so each
        # representation must close to the preset it claims to be.
        for a in (1, -1):
            for b in (1, -1):
                G, rep = d8_representation(a, b)
                assert G is resolve_group("D8")
                assert set(rep) == set(G.elements)
        G, rep = klein_representation()
        assert G is resolve_group("V")
        assert set(rep) == set(G.elements)
        rotation = mat([[0, -1, 0], [1, 0, 0], [0, 0, 1]])
        G, rep = _hom_from_generators(
            {perm("(1234)"): rotation}, mat_mul, identity_matrix(3)
        )
        assert G is resolve_group("Z4")
        assert len(rep) == 4

    def test_d8_action_table_for_plus_plus(self):
        # with both signs +1 the action on [1:1:w], w = i*sqrt(2), reads:
        G, rep = d8_representation(1, 1)
        w = QuadExt(0, 1, -2)
        b1 = ProjPoint((1, 1, w))
        b2 = ProjPoint((1, -1, w))
        b3 = ProjPoint((1, 1, -w))
        b4 = ProjPoint((1, -1, -w))
        table = {
            "()": b1,
            "(14)(23)": b1,
            "(13)": b2,
            "(1432)": b2,
            "(13)(24)": b3,
            "(12)(34)": b3,
            "(1234)": b4,
            "(24)": b4,
        }
        for text, target in table.items():
            assert apply_matrix(rep[perm(text)], b1) == target

    def test_pencil_invariance(self):
        G, rep = d8_representation(1, 1)
        assert pencil_invariant(
            rep, conic({"X^2": 1, "Y^2": -1}), conic({"X^2": 1, "Y^2": 1, "Z^2": 1})
        )
        trivial = resolve_group("trivial")
        assert pencil_invariant(
            {Permutation.identity(): identity_matrix(3)},
            conic({"XY": 1}),
            conic({"XZ": 1}),
        )
        assert not pencil_invariant(rep, conic({"X^2": 1}), conic({"YZ": 1}))
        generator_images = {s: rep[s] for s in G.generators}
        assert not pencil_invariant(
            generator_images, conic({"X^2": 1}), conic({"YZ": 1})
        )
        # d8_case_suite proves nothing itself, and analyze_pencil proves
        # only the general pencils 8 and 9: all 72 pencils are proved here
        params = ((Fraction(1), Fraction(1)), (Fraction(2), Fraction(-3, 5)))
        for a in (1, -1):
            for b in (1, -1):
                for c, d in params:
                    for case in d8_case_suite(a, b, c, d):
                        images = {s: case.rep[s] for s in case.group.generators}
                        assert pencil_invariant(images, case.f, case.g)
                        assert pencil_invariant(case.rep, case.f, case.g)
        # infinite order, so no power of it is its inverse
        shear = {perm("(12)"): mat([[1, 1, 0], [0, 1, 0], [0, 0, 1]])}
        assert pencil_invariant(shear, conic({"Y^2": 1}), conic({"Z^2": 1}))
        assert not pencil_invariant(shear, conic({"X^2": 1}), conic({"Z^2": 1}))
        with pytest.raises(ValueError, match="no matrices"):
            pencil_invariant({}, conic({"XY": 1}), conic({"XZ": 1}))

    def test_klein_pencil_is_invariant(self):
        case = klein_counterexample()
        assert pencil_invariant(case.rep, case.f, case.g)

    def test_klein_identity_matrix(self):
        _, rep = klein_representation()
        assert rep[perm("()")] == identity_matrix(3)

    def test_induced_sigma_trivial_group(self):
        from nodalcount.burnside import BurnsideElement

        G = resolve_group("trivial")
        base = [
            ProjPoint((1, 2, 3)),
            ProjPoint((1, 2, -1)),
            ProjPoint((1, -2, -1)),
            ProjPoint((-3, -2, -1)),
        ]
        sigma = induced_sigma({Permutation.identity(): identity_matrix(3)}, base, G)
        assert sigma.decomposition == 4 * BurnsideElement.point(G)

    def test_induced_sigma_rejects_escaping_action(self):
        G, rep = klein_representation()
        base = [
            ProjPoint((1, 0, 0)),
            ProjPoint((0, 1, 0)),
            ProjPoint((0, 0, 1)),
            ProjPoint((1, 2, 3)),  # its orbit leaves this set
        ]
        with pytest.raises(ValueError):
            induced_sigma(rep, base, G)
        # a general pencil the Klein group does not keep is refused by
        # analyze_pencil, the one runtime proof of invariance
        f, g = pencil_through(
            [ProjPoint(p) for p in ((1, 2, 3), (1, 5, -1), (2, -1, 7), (3, 1, 1))]
        )
        with pytest.raises(ValueError, match="does not preserve the base locus"):
            analyze_pencil(PencilCase("not invariant", G, rep, f, g))

    def test_induced_sigma_rejects_singular_matrices(self):
        G = resolve_group("trivial")
        base = [
            ProjPoint((1, 2, 3)),
            ProjPoint((1, 2, -1)),
            ProjPoint((1, -2, -1)),
            ProjPoint((-3, -2, -1)),
        ]
        singular = (
            mat([[0, 0, 0]] * 3),  # every image is (0:0:0)
            mat([[1, 0, 0], [0, 1, 0], [0, 0, 0]]),  # [1:2:3] -> [1:2:0]
            mat([[1, 0, 0], [2, 0, 0], [3, 0, 0]]),  # every point -> [1:2:3]
        )
        for M in singular:
            with pytest.raises(ValueError):
                induced_sigma({Permutation.identity(): M}, base, G)


def standard_matrix(p):
    """The standard 3-dimensional representation of S4: M e_i = e_p(i),
    with e4 = -(e1 + e2 + e3), so M permutes [1:0:0], [0:1:0], [0:0:1]
    and [1:1:1] as p permutes the points 0..3 (Fulton and Harris,
    Representation Theory, section 2.3)."""
    e = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1))
    return mat([[e[p(i)][row] for i in range(3)] for row in range(3)])


def test_induced_sigma_applies_only_the_generator_matrices(monkeypatch):
    # 4 base points times |G.generators| matrix applications, and the
    # action read off the walk is the one every element's matrix induces
    cases = [klein_counterexample()] + d8_case_suite(1, -1, 2, 3)[7:]
    analyses = [analyze_pencil(case) for case in cases]
    S4 = resolve_group("S4")
    base = [ProjPoint(p) for p in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))]
    standard = {p: standard_matrix(p) for p in S4}
    calls = count_calls(monkeypatch, "mat_vec")
    for case, analysis in zip(cases, analyses):
        calls["mat_vec"] = 0
        sigma = induced_sigma(case.rep, analysis.base, case.group)
        assert len(case.group.generators) == 2
        assert calls == {"mat_vec": 8}
        assert sigma.point_action == analysis.sigma.point_action
    for name in PRESET_ORDER:
        G = resolve_group(name)
        calls["mat_vec"] = 0
        sigma = induced_sigma(standard, base, G)
        assert calls == {"mat_vec": 4 * max(1, len(G.generators))}
        assert sigma.point_action == {g: g for g in G}
    monkeypatch.undo()
    for case, analysis in zip(cases, analyses):
        points = analysis.base
        for g, p in analysis.sigma.point_action.items():
            for i, point in enumerate(points):
                assert apply_matrix(case.rep[g], point) == points[p(i)]


def test_every_sweep_configuration_is_geometrically_realizable():
    # One S4-invariant general pencil: the conics through the four points
    # the standard representation permutes.  Each configuration's point
    # action G -> S4, composed with it, acts on that pencil and induces
    # the configuration again, up to relabelling the base points.
    S4 = resolve_group("S4")
    base = [ProjPoint(p) for p in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))]
    rep = {p: standard_matrix(p) for p in S4}
    case = PencilCase("standard", S4, rep, *pencil_through(base))
    located = analyze_pencil(case).base
    realized = 0
    for name in PRESET_ORDER:
        G = resolve_group(name)
        for sigma in enumerate_sigma_configs(G):
            matrices = {g: standard_matrix(sigma.point_action[g]) for g in G}
            induced = induced_sigma(matrices, located, G)
            assert induced.orbit_classes == sigma.orbit_classes
            assert verify(induced).equal == verify(sigma).equal
            realized += 1
    assert realized == 60


class TestInvariantStructure:
    def test_all_sign_choices(self):
        for a in (1, -1):
            for b in (1, -1):
                structure = d8_invariant_structure(a, b)
                lines = structure["lines"]
                assert set(lines) == {"Z^2", "X^2+Y^2", "X^2-Y^2", "XY"}
                plane = structure["plane"]
                assert rank(list(plane)) == 2


# ---------------------------------------------------------------------------
# full pipelines
# ---------------------------------------------------------------------------


class TestKleinPipeline:
    def test_base_is_the_printed_orbit(self):
        case = klein_counterexample()
        analysis = analyze_pencil(case)
        expected = {
            ProjPoint((1, 2, 3)),
            ProjPoint((1, 2, -1)),
            ProjPoint((1, -2, -1)),
            ProjPoint((-3, -2, -1)),
        }
        assert set(analysis.base) == expected

    def test_sigma_is_regular(self):
        case = klein_counterexample()
        analysis = analyze_pencil(case)
        trivial = generate_group([])
        assert analysis.sigma.decomposition == BurnsideElement.from_subgroup(
            case.group, trivial
        )

    def test_verification_fails(self):
        report = verify(analyze_pencil(klein_counterexample()).sigma)
        assert not report.equal

    def test_member_lines_pair_the_base_points(self):
        cases = [klein_counterexample()]
        suite = d8_case_suite(1, 1, Fraction(1), Fraction(1))
        cases.extend([suite[7], suite[8]])
        for case in cases:
            analysis = analyze_pencil(case)
            pairings = set()
            for pair in analysis.lines:
                blocks = []
                for line in pair:
                    on_line = [
                        i
                        for i, p in enumerate(analysis.base)
                        if sum(
                            (c * x for c, x in zip(line, p.coords)), qe(0)
                        ).is_zero()
                    ]
                    assert len(on_line) == 2
                    blocks.append(tuple(on_line))
                pairings.add(tuple(sorted(blocks)))
            # the three degenerate members realize the three pairings
            assert len(pairings) == 3


def count_calls(monkeypatch, *names):
    """Count calls to the named geometry functions, as a dict by name."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _original=getattr(geometry, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(geometry, name, counted)
    return calls


def test_pencils_are_built_without_an_invariance_proof(monkeypatch):
    calls = count_calls(monkeypatch, "pencil_invariant", "sym2")
    d8_case_suite(1, 1, 1, 1)
    klein_counterexample()
    assert calls == {"pencil_invariant": 0, "sym2": 0}


nonzero_height_99 = st.builds(
    Fraction, st.integers(-99, 99).filter(bool), st.integers(1, 99)
)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    st.sampled_from([(1, 1), (1, -1), (-1, 1), (-1, -1)]),
    nonzero_height_99,
    nonzero_height_99,
)
def test_pencils_8_and_9_are_invariant_and_general(signs, c, d):
    for case in d8_case_suite(*signs, c, d)[7:]:
        images = {s: case.rep[s] for s in case.group.generators}
        assert pencil_invariant(images, case.f, case.g)
        analyze_pencil(case)  # raises NotGeneral unless general


invertible_integer_matrix = (
    st.lists(st.integers(-5, 5), min_size=9, max_size=9)
    .map(lambda xs: mat([xs[0:3], xs[3:6], xs[6:9]]))
    .filter(lambda P: not det3(P).is_zero())
)


@settings(max_examples=5, deadline=None, derandomize=True)
@given(invertible_integer_matrix, nonzero_height_99, nonzero_height_99)
def test_a_change_of_coordinates_changes_no_count(P, c, d):
    # x -> P x carries a G-invariant pencil to a pencil invariant under
    # the conjugate representation P M P^-1: the base points move by P, the
    # determinant cubic only gains the factor det(P^-1)^2, and the point
    # action is the same up to the order in which base points are found.
    with deadline(10):
        P_inv = mat_inverse(P)
        cases = [klein_counterexample()] + [
            case
            for signs in [(1, 1), (1, -1), (-1, 1), (-1, -1)]
            for case in d8_case_suite(*signs, c, d)[7:]
        ]
        for case in cases:
            rep = {g: mat_mul(mat_mul(P, M), P_inv) for g, M in case.rep.items()}
            f, g = (transform_conic(q, P_inv) for q in (case.f, case.g))
            before = analyze_pencil(case)
            after = analyze_pencil(PencilCase(case.label, case.group, rep, f, g))
            assert after.sigma.decomposition == before.sigma.decomposition
            assert verify(after.sigma).table == verify(before.sigma).table
            assert set(after.base) == {apply_matrix(P, p) for p in before.base}
            assert [t for t, _ in after.members] == [t for t, _ in before.members]


def test_analyze_pencil_solves_and_factors_once(monkeypatch):
    calls = count_calls(monkeypatch, "nodal_members", "factor_degenerate")
    for case in (klein_counterexample(), d8_case_suite(1, 1, 1, 1)[7]):
        calls.update(dict.fromkeys(calls, 0))
        analyze_pencil(case)
        # one cubic, and one factorization for each of the three members
        assert calls == {"nodal_members": 1, "factor_degenerate": 3}


class TestD8Pipeline:
    def test_nine_cases(self):
        cases = d8_case_suite(1, 1, Fraction(1), Fraction(1))
        assert len(cases) == 9

    def test_first_seven_not_general(self):
        # Every member of cases 1, 5, 6, 7 is singular; cases 2, 3, 4
        # contain the double line z^2.
        reasons = ["common component"] + ["repeated base point"] * 3
        reasons += ["common component"] * 3
        values = [(Fraction(1), Fraction(1)), (Fraction(3, 2), Fraction(-5)),
                  (Fraction(-7, 3), Fraction(2))]
        for a in (1, -1):
            for b in (1, -1):
                for c, d in values:
                    cases = d8_case_suite(a, b, c, d)
                    for case, reason in zip(cases[:7], reasons):
                        with pytest.raises(NotGeneral) as info:
                            analyze_pencil(case)
                        assert info.value.reason == reason, (a, b, c, d, case.label)

    def test_case8_sigma_class(self):
        for a in (1, -1):
            for b in (1, -1):
                cases = d8_case_suite(a, b, Fraction(1), Fraction(1))
                analysis = analyze_pencil(cases[7])
                G = cases[7].group
                double = generate_group([perm("(14)(23)")])
                assert analysis.sigma.decomposition == BurnsideElement.from_class(
                    G, class_index_of(G, double)
                )

    def test_case8_and_9_fail_verification(self):
        cases = d8_case_suite(1, 1, Fraction(1), Fraction(1))
        for index in (7, 8):
            report = verify(analyze_pencil(cases[index]).sigma)
            assert not report.equal

    def test_case9_field_is_gaussian(self):
        cases = d8_case_suite(1, 1, Fraction(1), Fraction(1))
        analysis = analyze_pencil(cases[8])
        radicands = {
            c.radicand
            for p in analysis.base
            for c in p.coords
            if c.radicand is not None
        }
        assert radicands == {-1}

    def test_case8_with_other_parameters(self):
        cases = d8_case_suite(1, 1, Fraction(2), Fraction(1))
        analysis = analyze_pencil(cases[7])
        f, g = cases[7].f, cases[7].g
        for p in analysis.base:
            assert f(p).is_zero() and g(p).is_zero()

    @pytest.mark.parametrize(
        "index, c, d, sigma",
        [
            pytest.param(7, 10007, 1, "[G/(12)(34)]", id="case8-c=10007"),
            pytest.param(7, PRIME, 1, "[G/(12)(34)]", id="case8-c=PRIME"),
            pytest.param(8, PRIME, 1, "[G/(24)]", id="case9-c=PRIME"),
            pytest.param(
                7, Fraction(1, PRIME), 1, "[G/(12)(34)]", id="case8-c=1/PRIME"
            ),
            pytest.param(8, Fraction(1, PRIME), 1, "[G/(24)]", id="case9-c=1/PRIME"),
            pytest.param(8, 1, -PRIME, "[G/(24)]", id="case9-d=-PRIME"),
            pytest.param(7, MERSENNE_61, 1, "[G/(12)(34)]", id="case8-c=2^61-1"),
            pytest.param(8, MERSENNE_61, 1, "[G/(24)]", id="case9-c=2^61-1"),
            pytest.param(7, 10**30 + 57, 1, "[G/(12)(34)]", id="case8-c=10^30+57"),
            pytest.param(8, 10**30 + 57, 1, "[G/(24)]", id="case9-c=10^30+57"),
            pytest.param(8, 1, MERSENNE_61, "[G/(24)]", id="case9-d=2^61-1"),
        ],
    )
    def test_case8_with_a_large_parameter(self, index, c, d, sigma):
        # the determinant cubic carries c^2 and d^2; its roots come from
        # integer bisection and isqrt, and the field checks its radicands
        # with isqrt, so the cost grows with the bit length of c and d, not
        # with their size
        with deadline(10):
            case = d8_case_suite(1, 1, Fraction(c), Fraction(d))[index]
            analysis = analyze_pencil(case)
            for p in analysis.base:
                assert case.f(p).is_zero() and case.g(p).is_zero()
            for (_, member), (l1, l2) in zip(analysis.members, analysis.lines):
                assert member.is_proportional(conic_from_lines(l1, l2))
            assert analysis.sigma.sigma_string() == sigma
            assert not verify(analysis.sigma).equal

    def test_exact_membership_of_base_points(self):
        for index in (7, 8):
            case = d8_case_suite(1, 1, Fraction(1), Fraction(1))[index]
            analysis = analyze_pencil(case)
            for p in analysis.base:
                assert case.f(p).is_zero()
                assert case.g(p).is_zero()


SQRT2 = QuadExt(0, 1, 2)
SINGULAR = mat([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
XYZ = Conic((1, 1, 1, 0, 0, 0))
THREE_POINTS = [ProjPoint((1, 0, 0)), ProjPoint((0, 1, 0)), ProjPoint((0, 0, 1))]


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: QuadExt(1, 1), ValueError, "a radical part needs a radicand"),
        (lambda: QuadExt(0).inverse(), ZeroDivisionError, "division by zero"),
        (lambda: ProjPoint((1, 2)), ValueError, "a projective point has three coordinates"),
        (lambda: Conic((1, 0, 0, 0, 0)), ValueError, "a conic has six coefficients"),
        (lambda: Conic((0,) * 6), ValueError, "the zero polynomial is not a conic"),
        (
            lambda: apply_matrix(SINGULAR, ProjPoint((1, 2, 3))),
            ValueError,
            "projective transformations must be invertible",
        ),
        (lambda: sym2(SINGULAR), ValueError, "sym2 expects an invertible matrix"),
        (
            lambda: pencil_invariant(klein_representation()[1], XYZ, XYZ),
            ValueError,
            "f and g do not span a pencil",
        ),
        (
            lambda: nodal_members(XYZ, Conic((SQRT2, 1, 1, 0, 0, 0))),
            IrrationalNodalParameter,
            "determinant cubic has coefficients outside Q",
        ),
        (
            lambda: pencil_through(THREE_POINTS),
            ValueError,
            "a pencil is determined by four base points",
        ),
        (
            lambda: pencil_through([ProjPoint((1, k, 0)) for k in range(4)]),
            NotGeneral,
            "three collinear",
        ),
        (
            lambda: induced_sigma(klein_representation()[1], THREE_POINTS, resolve_group("V")),
            ValueError,
            "expected a base locus of four points",
        ),
    ],
    ids=[
        "radical-without-radicand",
        "inverse-of-zero",
        "two-coordinates",
        "five-coefficients",
        "zero-conic",
        "apply-singular-matrix",
        "sym2-singular-matrix",
        "pencil-invariant-one-conic",
        "nodal-members-sqrt2",
        "pencil-through-three-points",
        "pencil-through-collinear-points",
        "induced-sigma-three-points",
    ],
)
def test_input_checks(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert message in str(exc.value)

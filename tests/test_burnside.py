import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodalcount.burnside import (
    BurnsideElement,
    be_equal,
    decompose,
    induce,
    table_of_marks,
)
from nodalcount.permgroup import (
    InvalidActionError,
    class_index_of,
    generate_group,
    parse_permutation,
    subgroup_classes,
    all_subgroups,
)
from nodalcount.presets import PRESET_ORDER, resolve_group
from oracles import disjoint_union_gset, induce_concrete, left_cosets, product_gset


def perm(text):
    return parse_permutation(text)


def subgroup(G, *gens):
    return generate_group([perm(t) for t in gens])


def coset_gset(G, H):
    """G/H as a concrete left-multiplication G-set."""
    cosets = left_cosets(G, H)
    where = {}
    for i, coset in enumerate(cosets):
        for g in coset:
            where[g] = i
    return G, tuple(range(len(cosets))), lambda g, i: where[g * cosets[i][0]]


def fixed_point_count(S, K):
    """Literal fixed-point count of a subgroup on a concrete set (the oracle)."""
    _, points, act = S
    return sum(1 for p in points if all(act(k, p) == p for k in K.elements))


# ---------------------------------------------------------------------------
# table of marks
# ---------------------------------------------------------------------------


class TestTableOfMarks:
    def test_z2(self):
        assert table_of_marks(resolve_group("Z2")) == ((2, 0), (1, 1))

    def test_trivial(self):
        assert table_of_marks(resolve_group("trivial")) == ((1,),)

    def test_s3_self_normalizing_transposition(self):
        G = resolve_group("S3")
        H = subgroup(G, "(12)")
        idx = class_index_of(G, H)
        assert table_of_marks(G)[idx][idx] == 1

    def test_lower_triangular_positive_diagonal(self):
        for name in PRESET_ORDER:
            G = resolve_group(name)
            marks = table_of_marks(G)
            for h, row in enumerate(marks):
                assert row[h] > 0
                assert all(v == 0 for v in row[h + 1 :])

    def test_column_at_trivial_subgroup_is_index(self):
        for name in ["V", "S3", "D8", "A4", "S4"]:
            G = resolve_group(name)
            classes = subgroup_classes(G)
            marks = table_of_marks(G)
            for cls in classes:
                assert marks[cls.class_index][0] == G.order // cls.representative.order

    def test_against_literal_coset_counting(self):
        for name in ["Z4", "V", "S3", "D8", "A4", "S4"]:
            G = resolve_group(name)
            classes = subgroup_classes(G)
            marks = table_of_marks(G)
            for hcls in classes:
                S = coset_gset(G, hcls.representative)
                for kcls in classes:
                    assert marks[hcls.class_index][kcls.class_index] == (
                        fixed_point_count(S, kcls.representative)
                    )


# ---------------------------------------------------------------------------
# marks of virtual elements
# ---------------------------------------------------------------------------


class TestMarks:
    def test_a4_weight_difference_at_a3(self):
        G = resolve_group("A4")
        a3 = subgroup(G, "(123)")
        x = BurnsideElement.from_subgroup(G, a3) - BurnsideElement.point(G)
        assert x.mark(class_index_of(G, a3)) == 0

    def test_point_marks_one_everywhere(self):
        for name in PRESET_ORDER:
            G = resolve_group(name)
            point = BurnsideElement.point(G)
            assert all(m == 1 for m in point.mark_vector())

    def test_a4_induced_weight_cardinality(self):
        G = resolve_group("A4")
        klein = subgroup(G, "(12)(34)", "(13)(24)")
        flip = subgroup(G, "(14)(23)")
        x = BurnsideElement.from_subgroup(G, flip) - BurnsideElement.from_subgroup(
            G, klein
        )
        assert x.mark(0) == 3

    def test_foreign_class_rejected(self):
        G = resolve_group("Z2")
        x = BurnsideElement.point(G)
        with pytest.raises(IndexError):
            x.mark(5)

    def test_conjugacy_invariance_of_marks(self):
        G = resolve_group("D8")
        x = BurnsideElement.from_subgroup(G, subgroup(G, "(13)"))
        for cls in subgroup_classes(G):
            values = set()
            for member in cls.members:
                S = coset_gset(G, subgroup(G, "(13)"))
                values.add(fixed_point_count(S, member))
            assert len(values) == 1
            assert values.pop() == x.mark(cls.class_index)


# ---------------------------------------------------------------------------
# equality
# ---------------------------------------------------------------------------


class TestRecord:
    def test_wrong_length_rejected(self):
        G = resolve_group("Z2")
        for coeffs in [(), (1,), (1, 0, 0)]:
            with pytest.raises(ValueError, match="expected 2"):
                BurnsideElement(G, coeffs)

    def test_equal_elements_hash_equal(self):
        G = resolve_group("S3")
        n = len(subgroup_classes(G))
        x = BurnsideElement(G, tuple(range(n)))
        y = BurnsideElement(G, tuple(range(n)))
        assert x is not y
        assert x == y and hash(x) == hash(y)
        assert len({x, y}) == 1
        assert x != BurnsideElement(G, (0,) * n)
        assert x != BurnsideElement(resolve_group("Z3"), (0, 1))
        assert x != x.coeffs

    def test_repr_names_both_fields(self):
        x = BurnsideElement.point(resolve_group("Z2"))
        assert repr(x) == f"BurnsideElement(ambient={x.ambient!r}, coeffs=(0, 1))"


class TestEquality:
    def test_equal_iff_same_coefficients(self):
        rng = random.Random(20260808)
        names = list(PRESET_ORDER)
        for trial in range(1000):
            G = resolve_group(names[rng.randrange(len(names))])
            n = len(subgroup_classes(G))
            x = BurnsideElement(G, tuple(rng.randint(-3, 3) for _ in range(n)))
            if trial % 2:
                y = BurnsideElement(G, x.coeffs)
            else:
                y = BurnsideElement(G, tuple(rng.randint(-3, 3) for _ in range(n)))
            equal, witnesses, _ = be_equal(x, y)
            assert equal == (x.coeffs == y.coeffs)
            assert equal == (not witnesses)

    def test_witness_rows_report_both_marks(self):
        G = resolve_group("Z2")
        x = BurnsideElement(G, (1, 0))
        y = BurnsideElement(G, (0, 1))
        equal, witnesses, table = be_equal(x, y)
        assert not equal
        assert witnesses == ((0, 2, 1), (1, 0, 1))
        assert table == witnesses

    def test_self_equality(self):
        G = resolve_group("A4")
        x = BurnsideElement(G, tuple(range(len(subgroup_classes(G)))))
        table = tuple((k, m, m) for k, m in enumerate(x.mark_vector()))
        assert be_equal(x, x) == (True, (), table)

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            be_equal(
                BurnsideElement.point(resolve_group("Z2")),
                BurnsideElement.point(resolve_group("Z3")),
            )
        with pytest.raises(ValueError):
            BurnsideElement.point(resolve_group("Z2")) + BurnsideElement.point(
                resolve_group("Z3")
            )
        with pytest.raises(ValueError):
            BurnsideElement.point(resolve_group("Z2")) * BurnsideElement.point(
                resolve_group("Z3")
            )

    def test_a4_weight_vs_base_locus_difference(self):
        # The induced-weight side and the base-locus side of the natural
        # A4 configuration are genuinely different virtual sets: their
        # marks disagree at the normal Klein subgroup and at A4 itself.
        G = resolve_group("A4")
        klein = subgroup(G, "(12)(34)", "(13)(24)")
        flip = subgroup(G, "(14)(23)")
        a3 = subgroup(G, "(123)")
        lhs = BurnsideElement.from_subgroup(G, flip) - BurnsideElement.from_subgroup(
            G, klein
        )
        rhs = BurnsideElement.from_subgroup(G, a3) - BurnsideElement.point(G)
        equal, witnesses, _ = be_equal(lhs, rhs)
        assert not equal
        witness_classes = {w[0] for w in witnesses}
        assert witness_classes == {class_index_of(G, klein), class_index_of(G, G)}
        # and the witnessed marks are reproduced by literal coset counting
        for idx, lhs_mark, rhs_mark in witnesses:
            K = subgroup_classes(G)[idx].representative
            literal_lhs = fixed_point_count(
                coset_gset(G, flip), K
            ) - fixed_point_count(coset_gset(G, klein), K)
            literal_rhs = fixed_point_count(coset_gset(G, a3), K) - 1
            assert (literal_lhs, literal_rhs) == (lhs_mark, rhs_mark)


# ---------------------------------------------------------------------------
# ring structure
# ---------------------------------------------------------------------------


def elements_over(name):
    G = resolve_group(name)
    n = len(subgroup_classes(G))
    return st.tuples(*([st.integers(-3, 3)] * n)).map(
        lambda coeffs: BurnsideElement(G, coeffs)
    )


@settings(max_examples=60, derandomize=True)
@given(
    st.sampled_from(["Z2", "Z4", "V", "S3", "D8", "A4"]).flatmap(
        lambda name: st.tuples(
            elements_over(name), elements_over(name), elements_over(name)
        )
    )
)
def test_ring_axioms(triple):
    x, y, z = triple
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == BurnsideElement.zero(x.ambient)


@settings(max_examples=60, derandomize=True)
@given(
    st.sampled_from(["Z4", "V", "S3", "D8"]).flatmap(
        lambda name: st.tuples(elements_over(name), elements_over(name))
    )
)
def test_marks_are_ring_homomorphisms(pair):
    x, y = pair
    prod = x * y
    for k in range(len(subgroup_classes(x.ambient))):
        assert prod.mark(k) == x.mark(k) * y.mark(k)
        assert (x + y).mark(k) == x.mark(k) + y.mark(k)


class TestMulIdentities:
    def test_integer_multiple_commutes(self):
        G = resolve_group("S3")
        x = BurnsideElement(G, tuple(range(len(subgroup_classes(G)))))
        assert x * 3 == 3 * x == BurnsideElement(G, tuple(3 * c for c in x.coeffs))

    def test_an_integer_is_not_an_element(self):
        with pytest.raises(TypeError):
            BurnsideElement.point(resolve_group("S3")) + 1

    def test_non_integral_mark_vector_rejected(self):
        from nodalcount.burnside import _coeffs_from_marks

        G = resolve_group("Z2")
        # (1, 1) is the point; (1, 0) is not in the mark lattice image
        assert _coeffs_from_marks(G, (2, 0)) == (1, 0)
        with pytest.raises(ArithmeticError):
            _coeffs_from_marks(G, (1, 0))

    def test_point_is_the_unit(self):
        for name in ["Z2", "S3", "D8"]:
            G = resolve_group(name)
            x = BurnsideElement(G, tuple(range(len(subgroup_classes(G)))))
            assert x * BurnsideElement.point(G) == x

    def test_two_points_minus_point(self):
        G = resolve_group("S3")
        point = BurnsideElement.point(G)
        assert 2 * point - point == point

    def test_d8_reflection_square_matches_concrete_product(self):
        G = resolve_group("D8")
        H = subgroup(G, "(13)", "(13)(24)")
        S = coset_gset(G, H)
        assert decompose(*product_gset(S, S)) == (
            BurnsideElement.from_subgroup(G, H) * BurnsideElement.from_subgroup(G, H)
        )


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------


class TestDecompose:
    def test_trivial_action_gives_points(self):
        G = resolve_group("S3")
        assert decompose(G, (0, 1, 2), lambda g, x: x) == 3 * BurnsideElement.point(G)

    def test_regular_klein_orbit(self):
        G = resolve_group("V")
        assert decompose(G, G.elements, lambda g, x: g * x) == (
            BurnsideElement.from_subgroup(G, generate_group([]))
        )

    def test_marks_equal_literal_fixed_points(self):
        G = resolve_group("D8")
        H = subgroup(G, "(14)(23)")
        S = coset_gset(G, H)
        x = decompose(*S)
        for cls in subgroup_classes(G):
            assert x.mark(cls.class_index) == fixed_point_count(S, cls.representative)

    def test_cardinality_matches_point_count(self):
        G = resolve_group("A4")
        for H in all_subgroups(G):
            if G.order // H.order <= 6:
                S = coset_gset(G, H)
                assert decompose(*S).mark(0) == len(S[1])

    def test_disjoint_union_adds(self):
        G = resolve_group("S3")
        S = coset_gset(G, subgroup(G, "(12)"))
        T = coset_gset(G, subgroup(G, "(123)"))
        assert decompose(*disjoint_union_gset(S, T)) == decompose(*S) + decompose(*T)

    def test_invalid_action_rejected(self):
        G = resolve_group("Z2")
        sigma = perm("(12)")
        with pytest.raises(InvalidActionError):
            decompose(G, (0, 1, 2), lambda g, x: (x + 1) % 3 if g == sigma else x)

    def test_duplicate_points_rejected(self):
        G = resolve_group("Z2")
        with pytest.raises(ValueError, match="duplicate points"):
            decompose(G, (0, 1, 1), lambda g, x: x)

    def test_generator_leaving_the_point_set_rejected(self):
        G = resolve_group("Z2")
        flip = perm("(12)")
        with pytest.raises(InvalidActionError, match="leaves the point set"):
            decompose(G, (0, 1), lambda g, x: x + 2 if g == flip else x)


# ---------------------------------------------------------------------------
# products vs decomposition (oracle)
# ---------------------------------------------------------------------------


def random_gset(G, rng, max_size=6):
    """A random genuine G-set of size <= max_size with shuffled point labels."""
    classes = subgroup_classes(G)
    sizes = {cls.class_index: G.order // cls.representative.order for cls in classes}
    chosen = []
    total = 0
    while True:
        options = [i for i, s in sizes.items() if total + s <= max_size]
        if not options or (chosen and rng.random() < 0.4):
            break
        idx = rng.choice(options)
        chosen.append(idx)
        total += sizes[idx]
    if not chosen:
        chosen = [len(classes) - 1]
        total = 1
    pieces = []
    offset = 0
    table = {}
    for idx in chosen:
        H = classes[idx].representative
        cosets = left_cosets(G, H)
        where = {}
        for j, coset in enumerate(cosets):
            for g in coset:
                where[g] = j
        for g in G.elements:
            for j, coset in enumerate(cosets):
                table[(g, offset + j)] = offset + where[g * coset[0]]
        offset += len(cosets)
    relabel = list(range(offset))
    rng.shuffle(relabel)
    inverse = {relabel[i]: i for i in range(offset)}
    return G, tuple(range(offset)), lambda g, p: relabel[table[(g, inverse[p])]]


def test_product_decomposition_oracle():
    rng = random.Random(1123581321)
    for name in PRESET_ORDER:
        G = resolve_group(name)
        for _ in range(6):
            S = random_gset(G, rng)
            T = random_gset(G, rng)
            assert decompose(*product_gset(S, T)) == decompose(*S) * decompose(*T)


# ---------------------------------------------------------------------------
# induction
# ---------------------------------------------------------------------------


class TestInduce:
    def test_point_from_trivial_subgroup_is_regular(self):
        G = resolve_group("S3")
        triv = generate_group([])
        x = BurnsideElement.point(triv)
        assert induce(G, triv, x) == BurnsideElement.from_subgroup(G, triv)

    def test_h_equal_g_is_identity(self):
        G = resolve_group("D8")
        x = BurnsideElement(G, tuple(range(len(subgroup_classes(G)))))
        assert induce(G, G, x) == x

    def test_a4_weight_formula(self):
        G = resolve_group("A4")
        klein = subgroup(G, "(12)(34)", "(13)(24)")
        flip_in_klein = generate_group([perm("(14)(23)")])
        x = BurnsideElement.from_subgroup(
            klein, flip_in_klein
        ) - BurnsideElement.point(klein)
        assert induce(G, klein, x) == (
            BurnsideElement.from_subgroup(G, flip_in_klein)
            - BurnsideElement.from_subgroup(G, klein)
        )

    def test_not_a_subgroup_rejected(self):
        G = resolve_group("A4")
        H = resolve_group("Z2")  # a transposition is not in A4
        with pytest.raises(ValueError):
            induce(G, H, BurnsideElement.point(H))

    def test_linear_in_virtual_elements(self):
        G = resolve_group("D8")
        H = subgroup(G, "(1234)")
        rng = random.Random(7)
        n = len(subgroup_classes(H))
        for _ in range(20):
            x = BurnsideElement(H, tuple(rng.randint(-3, 3) for _ in range(n)))
            y = BurnsideElement(H, tuple(rng.randint(-3, 3) for _ in range(n)))
            assert induce(G, H, x + y) == induce(G, H, x) + induce(G, H, y)
            assert induce(G, H, -x) == -induce(G, H, x)


def test_induction_matches_literal_quotient_construction():
    """induce agrees with decomposing the eagerly built (G x X)/~ for every
    subgroup pair and every H-set type of size <= 4."""
    for name in PRESET_ORDER:
        G = resolve_group(name)
        for H in all_subgroups(G):
            classes = subgroup_classes(H)
            sizes = [H.order // cls.representative.order for cls in classes]

            multisets = []

            def extend(start, remaining, chosen):
                if chosen:
                    multisets.append(chosen)
                if remaining == 0:
                    return
                for pos in range(start, len(classes)):
                    if sizes[pos] <= remaining:
                        extend(pos, remaining - sizes[pos], chosen + (pos,))

            extend(0, 4, ())
            for multiset in multisets:
                table = {}
                offset = 0
                for idx in multiset:
                    K = classes[idx].representative
                    cosets = left_cosets(H, K)
                    where = {}
                    for j, coset in enumerate(cosets):
                        for g in coset:
                            where[g] = j
                    for g in H.elements:
                        for j, coset in enumerate(cosets):
                            table[(g, offset + j)] = offset + where[g * coset[0]]
                    offset += len(cosets)
                S = H, tuple(range(offset)), lambda g, p, table=table: table[(g, p)]
                lifted = induce_concrete(G, H, S)
                assert decompose(*lifted) == induce(G, H, decompose(*S))


def test_json_rendering():
    G = resolve_group("V")
    x = BurnsideElement.from_subgroup(G, subgroup(G, "(12)(34)")) - BurnsideElement.point(G)
    data = x.to_json()
    assert data["coeffs"] == [
        {"class": "<(12)(34)>", "n": 1},
        {"class": "G", "n": -1},
    ]
    assert "[G/<(12)(34)>]" in x.render()


@pytest.mark.parametrize("name", PRESET_ORDER)
@settings(max_examples=40, derandomize=True)
@given(data=st.data())
def test_render_is_the_signed_sum_of_the_json_terms(name, data):
    # Text and JSON carry the same numbers: the text is the JSON's (n, class)
    # terms written "n*[G/class]" and joined by " + ", except that a later
    # negative term gives its minus sign to the operator; "0" for no terms.
    G = resolve_group(name)
    n = len(subgroup_classes(G))
    coeffs = data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    for x in (BurnsideElement(G, tuple(coeffs)), BurnsideElement.zero(G)):
        text = ""
        for i, term in enumerate(x.to_json()["coeffs"]):
            body = f"{abs(term['n'])}*[G/{term['class']}]"
            if i == 0:
                text = f"-{body}" if term["n"] < 0 else body
            else:
                text += f" - {body}" if term["n"] < 0 else f" + {body}"
        assert x.render() == (text or "0")


def test_induce_refuses_an_element_over_another_group():
    G = resolve_group("S4")
    H = subgroup(G, "(12)")
    with pytest.raises(ValueError, match="element to induce must live over the given subgroup"):
        induce(G, H, BurnsideElement.point(G))

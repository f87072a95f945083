import re
import sys
from itertools import combinations

import pytest

from nodalcount import permgroup
from nodalcount.permgroup import (
    InvalidActionError,
    Permutation,
    all_subgroups,
    class_index_of,
    generate_group,
    orbits,
    parse_permutation,
    subgroup_classes,
    subgroup_label,
)
from nodalcount.presets import ALIASES, PRESETS, resolve_group
from oracles import (
    closure_oracle,
    left_cosets,
    minimal_generators_oracle,
    subgroups_oracle,
)


def perm(text):
    return parse_permutation(text)


def orbit_of(G, act, gset, x, left):
    """The orbit of x and its stabilizer: the first orbit of the G-set
    listed with x first."""
    return orbits(G, act, (x, *(y for y in gset if y != x)), left)[0]


class TestPermutation:
    def test_product_with_an_integer_is_refused(self):
        with pytest.raises(TypeError):
            Permutation.identity() * 1

    def test_parse_compact_and_spaced(self):
        assert perm("(12)(34)") == perm("(1 2)(3 4)")
        assert perm("(1,2)(3,4)") == perm("(12)(34)")

    def test_identity_forms(self):
        assert perm("()") == Permutation.identity()
        assert perm("()").cycle_string() == "()"

    def test_roundtrip(self):
        for text in ["(12)", "(123)", "(1234)", "(12)(34)", "(13)(24)", "()"]:
            assert perm(text).cycle_string() == text
        elements = resolve_group("S4").elements
        assert len(elements) == 24
        for p in elements:
            text = p.cycle_string()
            assert parse_permutation(text) == p
            if p == Permutation.identity():
                assert text == "()"
                continue
            # cycles ascending by least point, each starting there, and
            # every moved point in exactly one cycle of length 2 or more
            cycles = [[int(c) - 1 for c in body] for body in re.findall(r"\((\d+)\)", text)]
            assert "".join(f"({''.join(str(i + 1) for i in c)})" for c in cycles) == text
            assert [c[0] for c in cycles] == sorted(min(c) for c in cycles)
            assert all(len(c) >= 2 for c in cycles)
            assert sorted(i for c in cycles for i in c) == [i for i in range(4) if p(i) != i]
            for c in cycles:
                assert [p(i) for i in c] == c[1:] + c[:1]

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_permutation("(12)x")
        with pytest.raises(ValueError):
            parse_permutation("(15)")
        with pytest.raises(ValueError):
            parse_permutation("(11)")

    def test_token_longer_than_the_int_limit_is_out_of_range(self):
        limit = sys.get_int_max_str_digits()
        assert parse_permutation(f"(1 {'0' * (limit - 1)}2)") == perm("(12)")
        message = r"^point 0000000000000\.\.\.00000000000002 out of range"
        with pytest.raises(ValueError, match=message):
            parse_permutation(f"(1 {'0' * limit}2)")

    def test_composition_applies_right_factor_first(self):
        r = perm("(13)")
        s = perm("(1234)")
        # (s * r)(1) = s(r(1)) = s(3) = 4, zero-based: 0 -> 2 -> 3
        assert (s * r)(0) == 3
        assert (s * r).cycle_string() == "(14)(23)"
        assert (r * s).cycle_string() == "(12)(34)"

    def test_inverse(self):
        for text in ["(1234)", "(123)", "(12)"]:
            p = perm(text)
            assert p * p.inverse() == Permutation.identity()
            assert p.inverse() * p == Permutation.identity()

    def test_bijection_required(self):
        for images in [(0, 0, 1, 2), (1, 0, 2), (1, 0, 2, 3, 4)]:
            with pytest.raises(ValueError):
                Permutation(images)

    def test_trusted_products_match_checked_construction(self):
        # identity, products and inverses skip the bijection check; each
        # must equal the checked constructor on the same images.
        S4 = resolve_group("S4").elements
        assert len(S4) == 24
        assert Permutation.identity() == Permutation(range(4))
        for p in S4:
            assert p.inverse() == Permutation(sorted(range(4), key=p))
            for q in S4:
                assert p * q == Permutation(p(q(i)) for i in range(4))


class TestGenerateGroup:
    def test_s3_embedded_in_four_points(self):
        G = generate_group([perm("(12)"), perm("(123)")])
        assert G.order == 6

    def test_empty_generators_give_trivial_group(self):
        G = generate_group([])
        assert G.order == 1
        assert G.elements == (Permutation.identity(),)

    def test_dihedral_of_order_eight(self):
        G = generate_group([perm("(1234)"), perm("(13)")])
        assert G.order == 8

    def test_closure_is_a_group(self):
        for name in ["S3", "D8", "A4", "S4"]:
            G = resolve_group(name)
            assert closure_oracle(G.elements) == frozenset(G.elements)

    def test_lagrange(self):
        for name in ["Z2", "Z3", "Z4", "V", "S3", "D8", "A4", "S4"]:
            G = resolve_group(name)
            assert 24 % G.order == 0


class TestSubgroupClasses:
    def test_s4_has_eleven_classes(self):
        classes = subgroup_classes(resolve_group("S4"))
        assert len(classes) == 11
        assert [c.representative.order for c in classes] == [
            1, 2, 2, 3, 4, 4, 4, 6, 8, 12, 24,
        ]

    def test_trivial_group_has_one_class(self):
        assert len(subgroup_classes(resolve_group("trivial"))) == 1

    def test_d8_reflection_classes_are_distinct(self):
        G = resolve_group("D8")
        flip = generate_group([perm("(13)")])
        double = generate_group([perm("(14)(23)")])
        assert class_index_of(G, flip) != class_index_of(G, double)

    def test_classes_partition_all_subgroups(self):
        for name in ["V", "S3", "D8", "A4", "S4"]:
            G = resolve_group(name)
            subs = set(all_subgroups(G))
            in_classes = [m for cls in subgroup_classes(G) for m in cls.members]
            assert len(in_classes) == len(set(in_classes))
            assert set(in_classes) == subs

    def test_members_are_conjugates_of_the_representative(self):
        G = resolve_group("S4")
        for cls in subgroup_classes(G):
            rep = cls.representative
            conjugates = {
                tuple(sorted(g * h * g.inverse() for h in rep.elements))
                for g in G.elements
            }
            assert {m.elements for m in cls.members} == conjugates

    def test_subgroup_list_closed_under_conjugation(self):
        for name in ["D8", "A4", "S4"]:
            G = resolve_group(name)
            subs = {frozenset(H.elements) for H in all_subgroups(G)}
            for H in subs:
                for g in G.elements:
                    assert frozenset(g * h * g.inverse() for h in H) in subs

    def test_presentation_independence(self):
        a = generate_group([perm("(123)"), perm("(12)")])
        b = generate_group([perm("(13)"), perm("(23)")])
        assert a is b
        assert subgroup_classes(a) == subgroup_classes(b)

    def test_s4_subgroup_count(self):
        counts = {
            "trivial": 1, "Z2": 2, "Z2d": 2, "Z3": 2, "Z4": 3, "V": 5,
            "V'": 5, "S3": 6, "D8": 10, "A4": 10, "S4": 30,
        }
        for name, count in counts.items():
            assert len(all_subgroups(resolve_group(name))) == count, name

    def test_minimal_generators_regenerate(self):
        s4_subgroups = subgroups_oracle(resolve_group("S4"))
        assert len(s4_subgroups) == 30
        for name in PRESETS:
            G = resolve_group(name)
            subs = all_subgroups(G)
            inside = {K for K in s4_subgroups if K <= frozenset(G.elements)}
            assert {frozenset(H.elements) for H in subs} == inside, name
            assert len(subs) == len(inside), name
            for H in subs:
                assert H.generators == minimal_generators_oracle(H)
                assert generate_group(H.generators) is H

    def test_lattice_walk_stops_without_losing_a_subgroup(self):
        # Closing all 277 tuples of at most two non-identity elements, as
        # the walk did before it stopped at the 30th subgroup, gives the
        # same masks, labels and order.
        labels = {}
        for size in range(3):
            for gens in combinations(range(1, 24), size):
                labels.setdefault(permgroup._close(gens), gens)
        masks = sorted(labels, key=lambda m: (m.bit_count(), permgroup._members(m)))
        assert len(masks) == 30
        assert [H.mask for H in permgroup._SUBGROUPS] == masks
        assert [H.generators for H in permgroup._SUBGROUPS] == [
            tuple(permgroup._ELEMENTS[i] for i in labels[m]) for m in masks
        ]

    def test_labels(self):
        G = resolve_group("V")
        assert subgroup_label(G, ambient=G) == "G"
        trivial = generate_group([])
        assert subgroup_label(trivial) == "<()>"


class TestOneObjectPerSubgroup:
    """The lattice's 30 groups are the only PermGroups: every routine hands
    back one of them, so equal subgroups are the same object."""

    @staticmethod
    def assert_in_lattice(H):
        assert any(H is K for K in permgroup._SUBGROUPS), H

    def test_equality_is_identity(self):
        assert "__eq__" not in vars(permgroup.PermGroup)
        assert "__hash__" not in vars(permgroup.PermGroup)

    def test_generated_groups(self):
        S4 = resolve_group("S4").elements
        for size in range(4):
            for gens in combinations(S4, size):
                self.assert_in_lattice(generate_group(gens))

    def test_presets_and_aliases(self):
        for name in [*PRESETS, *ALIASES]:
            self.assert_in_lattice(resolve_group(name))

    def test_subgroups_and_classes(self):
        for G in permgroup._SUBGROUPS:
            for H in all_subgroups(G):
                self.assert_in_lattice(H)
            for cls in subgroup_classes(G):
                self.assert_in_lattice(cls.representative)
                for K in cls.members:
                    self.assert_in_lattice(K)

    def test_stabilizers(self):
        from nodalcount.nodal import ALL_PAIRINGS, enumerate_sigma_configs, pairing_action

        for name in PRESETS:
            G = resolve_group(name)
            for sigma in enumerate_sigma_configs(G):
                act = pairing_action(sigma)
                for x in ALL_PAIRINGS:
                    self.assert_in_lattice(orbit_of(G, act, ALL_PAIRINGS, x, G.elements)[1])

        def on_cosets(g, coset):
            return tuple(sorted(g * x for x in coset))

        S4 = resolve_group("S4")
        for H in all_subgroups(S4):
            cosets = left_cosets(S4, H)
            for coset in cosets:
                self.assert_in_lattice(
                    orbit_of(S4, on_cosets, cosets, coset, S4.generators)[1]
                )


class TestOrbitStabilizer:
    def test_pairings_under_a4(self):
        from nodalcount.nodal import ALL_PAIRINGS, pairing_action, sigma_from_classes

        G = resolve_group("A4")
        # natural 4-point action: the class of an index-3 subgroup
        a3 = generate_group([perm("(123)")])
        sigma = sigma_from_classes(G, [class_index_of(G, a3)])
        act = pairing_action(sigma)
        ((orbit, stab),) = orbits(G, act, ALL_PAIRINGS, G.generators)
        assert len(orbit) == 3
        assert stab.order == 4

    def test_trivial_group_fixes_everything(self):
        G = resolve_group("trivial")
        assert orbits(G, lambda g, x: x, ("anything",), G.generators) == [
            (("anything",), G)
        ]

    def test_z2_pairing_orbit(self):
        from nodalcount.nodal import ALL_PAIRINGS, pairing_action, sigma_from_classes

        G = resolve_group("Z2")
        classes = subgroup_classes(G)
        # two fixed points plus one free orbit
        sigma = sigma_from_classes(G, [0, 1, 1])
        act = pairing_action(sigma)
        mixed = [p for p in ALL_PAIRINGS if p != ALL_PAIRINGS[0]]
        orbit, stab = orbit_of(G, act, ALL_PAIRINGS, mixed[0], G.elements)
        assert set(orbit) == set(mixed)
        assert stab.order == 1

    def test_orbit_stabilizer_identity_on_cosets(self):
        G = resolve_group("S4")
        H = generate_group([perm("(1234)"), perm("(13)")])
        cosets = left_cosets(G, H)

        def act(g, coset):
            return tuple(sorted(g * x for x in coset))

        for coset in cosets:
            orbit, stab = orbit_of(G, act, cosets, coset, G.generators)
            assert len(orbit) * stab.order == G.order

    def test_invalid_action_rejected(self):
        G = resolve_group("Z4")
        gen = perm("(1234)")

        def broken(g, x):
            # not an action: a 4-cycle pretending to be an involution
            return -x if g == gen else x

        with pytest.raises(InvalidActionError):
            orbits(G, broken, (1, -1), G.generators)

    def test_stabilizer_that_is_no_subgroup_is_rejected(self):
        # |orbit| * |stab| = |G| holds, but {(), (1234)} is not closed;
        # the generator's compatibility check sees it.
        G = resolve_group("Z4")
        half = {Permutation.identity(), perm("(1234)")}
        with pytest.raises(InvalidActionError, match="compatibility"):
            orbits(G, lambda g, x: x if g in half else -x, (1, -1), G.generators)

    def test_defect_on_one_non_generator_is_caught(self):
        G = resolve_group("S4")
        bad = perm("(13)(24)")
        assert bad not in G.generators

        def twisted(g, x):
            # the natural action on 0..3, and on 10..13 the natural action
            # except that one element swaps two images
            if x < 10:
                return g(x)
            y = g(x - 10)
            return 10 + ({0: 1, 1: 0}.get(y, y) if g == bad else y)

        # The orbit and stabilizer counts are those of the natural action,
        # so only the check of the axioms sees the defect, on whichever
        # orbit it lies.
        stab = generate_group([perm("(234)"), perm("(34)")])
        assert {g for g in G if twisted(g, 10) == 10} == set(stab)
        assert orbits(G, twisted, (0, 1, 2, 3), G.generators) == [((0, 1, 2, 3), stab)]
        for points in ((10, 11, 12, 13), (0, 1, 2, 3, 10, 11, 12, 13)):
            for left in (G.elements, G.generators):
                with pytest.raises(InvalidActionError, match="compatibility"):
                    orbits(G, twisted, points, left)

    def test_products_are_formed_once_per_call(self, monkeypatch):
        # Two orbits, the natural action on 0..3 and a copy of it on 10..13;
        # the products g*h are shared by both, so one call forms at most
        # |left| * |G| of them, however many orbits it checks.
        G = resolve_group("S4")
        count = 0
        multiply = Permutation.__mul__

        def counting(p, q):
            nonlocal count
            count += 1
            return multiply(p, q)

        monkeypatch.setattr(Permutation, "__mul__", counting)
        points = (0, 1, 2, 3, 10, 11, 12, 13)
        for left, bound in ((G.generators, 48), (G.elements, 576)):
            assert len(left) * G.order == bound
            count = 0
            found = orbits(G, lambda g, x: g(x) if x < 10 else 10 + g(x - 10), points, left)
            assert [orbit for orbit, _ in found] == [(0, 1, 2, 3), (10, 11, 12, 13)]
            assert count <= bound

    def test_shared_products_keep_the_first_failure(self):
        # The twisted action of test_defect_on_one_non_generator_is_caught,
        # whose defect lies on the second orbit: the first failing (g, h, p)
        # is the one found when each orbit formed its own products.
        G = resolve_group("S4")
        bad = perm("(13)(24)")

        def twisted(g, x):
            if x < 10:
                return g(x)
            y = g(x - 10)
            return 10 + ({0: 1, 1: 0}.get(y, y) if g == bad else y)

        message = (
            "compatibility fails: (Permutation('(34)') * Permutation('(13)(24)')) . 12"
            " != Permutation('(34)') . (Permutation('(13)(24)') . 12)"
        )
        for left in (G.elements, G.generators):
            with pytest.raises(InvalidActionError) as caught:
                orbits(G, twisted, (0, 1, 2, 3, 10, 11, 12, 13), left)
            assert str(caught.value) == message

    def test_identity_axiom_checked(self):
        G = resolve_group("Z2")
        with pytest.raises(InvalidActionError, match="identity axiom"):
            orbits(G, lambda g, x: x + 1, (0,), G.generators)

    def test_orbit_is_breadth_first_order(self):
        # For a valid action the orbit comes out in the order of a
        # breadth-first walk from x over all of G, here over every pairing
        # orbit of the sweep.
        from nodalcount.nodal import ALL_PAIRINGS, enumerate_sigma_configs, pairing_action

        def breadth_first(G, act, x):
            orbit = [x]
            for p in orbit:
                for g in G.elements:
                    if act(g, p) not in orbit:
                        orbit.append(act(g, p))
            return tuple(orbit)

        for name in PRESETS:
            G = resolve_group(name)
            for sigma in enumerate_sigma_configs(G):
                act = pairing_action(sigma)
                for x in ALL_PAIRINGS:
                    orbit, stab = orbit_of(G, act, ALL_PAIRINGS, x, G.elements)
                    assert orbit == breadth_first(G, act, x)
                    assert set(stab) == {g for g in G if act(g, x) == x}


def test_foreign_subgroup_is_refused():
    # V, the normal Klein group, holds no transposition
    V = resolve_group("V")
    H = generate_group([perm("(12)")])
    with pytest.raises(ValueError, match="is not a subgroup of the ambient group"):
        class_index_of(V, H)
    with pytest.raises(ValueError, match="left_cosets expects a subgroup"):
        left_cosets(V, H)

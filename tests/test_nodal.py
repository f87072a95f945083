import itertools
from collections import Counter

import pytest

from nodalcount import nodal
from nodalcount.burnside import BurnsideElement, be_equal, decompose, induce
from nodalcount.nodal import (
    ALL_PAIRINGS,
    SigmaConfig,
    enumerate_sigma_configs,
    nodal_orbit_reports,
    pairing_action,
    pairing_label,
    pulled_back_table,
    sigma_from_classes,
    verify,
    verify_all,
)
from nodalcount.permgroup import (
    InvalidActionError,
    Permutation,
    all_subgroups,
    class_index_of,
    generate_group,
    orbits,
    parse_permutation,
    subgroup_classes,
)
from nodalcount.presets import PRESET_ORDER, resolve_group
from oracles import (
    coset_config_oracle,
    has_klein_four,
    induce_concrete,
    lattice_orbit_reports,
    mark_defect_oracle,
    restrict_by_marks,
    sigma_multisets_oracle,
)


def perm(text):
    return parse_permutation(text)


def subgroup(G, *gens):
    return generate_group([perm(t) for t in gens])


def config_by_classes(G, multiset):
    return sigma_from_classes(G, multiset)


def config_index(G, *subgroups_gens):
    """Class-index multiset from generator strings ('' means the full group)."""
    out = []
    for gens in subgroups_gens:
        H = G if gens == "G" else subgroup(G, *gens)
        out.append(class_index_of(G, H))
    return out


def weight_marks_by_oracle(report, G):
    """Recompute a report's weight marks by literally counting fixed points
    of the concrete induced branch set, orbit by orbit."""
    totals = [0] * len(subgroup_classes(G))
    for orb in report.orbit_reports:
        H = orb.stabilizer
        blocks = orb.representative
        action = {
            (h, block): tuple(sorted(report.sigma.point_action[h](i) for i in block))
            for h in H.elements
            for block in blocks
        }
        branch_set = H, blocks, lambda h, b, t=action: t[(h, b)]
        lifted = induce_concrete(G, H, branch_set)
        lifted_point = induce_concrete(G, H, (H, ("pt",), lambda h, p: p))
        for cls in subgroup_classes(G):
            K = cls.representative

            def fixed(S):
                _, points, act = S
                return sum(
                    1 for p in points if all(act(k, p) == p for k in K.elements)
                )

            totals[cls.class_index] += fixed(lifted) - fixed(lifted_point)
    return tuple(totals)


def pairing_of(a, b, c, d):
    """The pairing {a, b} | {c, d}, as its pair of sorted blocks."""
    return tuple(sorted((tuple(sorted((a, b))), tuple(sorted((c, d))))))


class TestPairing:
    def test_exactly_three(self):
        assert len(set(ALL_PAIRINGS)) == 3
        for blocks in itertools.permutations(range(4)):
            assert pairing_of(*blocks) in ALL_PAIRINGS

    def test_labels(self):
        assert [pairing_label(p) for p in ALL_PAIRINGS] == ["12|34", "13|24", "14|23"]

    def test_sort_order_is_label_order(self):
        assert sorted(reversed(ALL_PAIRINGS)) == list(ALL_PAIRINGS)

    def test_s4_table_maps_each_pairing_to_the_images_of_its_blocks(self):
        # Against the definition, with blocks as frozensets: the image of a
        # block under g is g's image of its points, and the image of a
        # pairing is the pairing formed by g's images of both blocks.
        table = nodal._S4_IMAGES
        blocks = list(itertools.combinations(range(4), 2))
        assert len(table) == 24 * (6 + 3)
        for g in resolve_group("S4").elements:
            for block in blocks:
                image = table[g.images, block]
                assert image in blocks
                assert frozenset(image) == frozenset(map(g, block))
            for pairing in ALL_PAIRINGS:
                image = table[g.images, pairing]
                assert image in ALL_PAIRINGS
                assert {frozenset(b) for b in image} == {
                    frozenset(map(g, block)) for block in pairing
                }


class TestEnumerate:
    def test_z2_configs(self):
        G = resolve_group("Z2")
        configs = enumerate_sigma_configs(G)
        assert len(configs) == 3
        expected = {(1, 1, 1, 1), (0, 1, 1), (0, 0)}
        assert {c.orbit_classes for c in configs} == expected

    def test_repr_names_group_and_spec(self):
        G = resolve_group("V")
        assert repr(config_by_classes(G, [0])) == "SigmaConfig(<(12)(34),(13)(24)>, [G])"

    def test_trivial_single_config(self):
        configs = enumerate_sigma_configs(resolve_group("trivial"))
        assert len(configs) == 1
        assert configs[0].decomposition == 4 * BurnsideElement.point(
            resolve_group("trivial")
        )

    def test_a4_configs(self):
        G = resolve_group("A4")
        configs = enumerate_sigma_configs(G)
        assert len(configs) == 3
        klein = subgroup(G, "(12)(34)", "(13)(24)")
        a3 = subgroup(G, "(123)")
        expected = {
            tuple([class_index_of(G, G)] * 4),
            tuple(sorted([class_index_of(G, klein), class_index_of(G, G)])),
            (class_index_of(G, a3),),
        }
        assert {c.orbit_classes for c in configs} == expected

    def test_counts_by_group(self):
        expected = {
            "trivial": 1,
            "Z2": 3,
            "Z2d": 3,
            "Z3": 2,
            "Z4": 4,
            "V": 11,
            "V'": 11,
            "S3": 4,
            "D8": 13,
            "A4": 3,
            "S4": 5,
        }
        for name, count in expected.items():
            assert len(enumerate_sigma_configs(resolve_group(name))) == count

    def test_every_config_has_four_points(self):
        for name in PRESET_ORDER:
            for config in enumerate_sigma_configs(resolve_group(name)):
                assert config.decomposition.mark(0) == 4
                assert all(c >= 0 for c in config.decomposition.coeffs)

    def test_point_action_is_a_homomorphism(self):
        # sigma_from_classes builds its coset actions without a runtime
        # proof; check each one here, on every subgroup of S4: phi(g*h) =
        # phi(g)*phi(h) on all pairs, and from_action's own decomposition
        # of the action is the one the configuration carries.
        seen = 0
        for G in all_subgroups(resolve_group("S4")):
            for config in enumerate_sigma_configs(G):
                phi = config.point_action
                for g in G.elements:
                    for h in G.elements:
                        assert phi[g * h] == phi[g] * phi[h]
                proved = SigmaConfig.from_action(G, phi)
                assert proved.decomposition == config.decomposition
                seen += 1
        assert seen == 155

    def test_multisets_match_a_search_over_every_class(self):
        # enumerate_sigma_configs skips the classes of index above 4; the
        # oracle tries every multiset of at most 4 classes of each subgroup.
        for G in all_subgroups(resolve_group("S4")):
            found = [c.orbit_classes for c in enumerate_sigma_configs(G)]
            assert found == sigma_multisets_oracle(G)

    def test_coset_actions_match_permutation_products(self):
        # The element-number construction gives, point for point, the action
        # built from Permutation products on the cosets, and from_action's
        # decomposition of that action.
        seen = 0
        for G in all_subgroups(resolve_group("S4")):
            for config in enumerate_sigma_configs(G):
                oracle = coset_config_oracle(G, config.orbit_classes)
                assert config.point_action == oracle.point_action
                assert config.decomposition == oracle.decomposition
                seen += 1
        assert seen == 155

    def test_enumeration_builds_no_permutation(self, monkeypatch):
        groups = [resolve_group(name) for name in PRESET_ORDER]
        calls = Counter()

        def counted(name, original):
            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            return wrapper

        monkeypatch.setattr(Permutation, "__mul__", counted("mul", Permutation.__mul__))
        monkeypatch.setattr(Permutation, "__init__", counted("init", Permutation.__init__))
        configs = [c for G in groups for c in enumerate_sigma_configs(G)]
        assert len(configs) == 60
        assert calls == {}

    def test_from_action_rejects_a_broken_map(self):
        # Replace one image of the natural action, at every element of every
        # preset, the identity included, by every other permutation.
        # decompose checks only the identity and the generator edges; it must
        # reject exactly the maps that fail phi(g*h) = phi(g)*phi(h) somewhere.
        S4 = resolve_group("S4").elements
        for name in PRESET_ORDER:
            G = resolve_group(name)
            natural = {g: g for g in G.elements}
            SigmaConfig.from_action(G, natural)
            for x in G.elements:
                rejected = 0
                for y in S4:
                    if y == x:
                        continue
                    phi = {**natural, x: y}
                    if all(phi[g * h] == phi[g] * phi[h] for g in G for h in G):
                        SigmaConfig.from_action(G, phi)
                        continue
                    rejected += 1
                    with pytest.raises(InvalidActionError):
                        SigmaConfig.from_action(G, phi)
                # Only in a group of order 2 may x be sent elsewhere: to the
                # identity or to one of S4's 8 other involutions.
                assert rejected == (23 if G.order > 2 or x == Permutation.identity() else 14)
            del natural[G.elements[-1]]
            with pytest.raises(ValueError, match="every group element"):
                SigmaConfig.from_action(G, natural)
        # Every edge of V's first generator a holds, since A is an involution;
        # only the edges of b see that A and B do not commute.
        V = resolve_group("V")
        a, b = V.generators
        A, B = perm("(12)(34)"), perm("(123)")
        phi = {Permutation.identity(): Permutation.identity(), a: A, b: B, a * b: A * B}
        with pytest.raises(InvalidActionError):
            SigmaConfig.from_action(V, phi)


class TestPairingAction:
    def test_z2_mixed_pairings_swap(self):
        G = resolve_group("Z2")
        sigma = config_by_classes(G, [0, 1, 1])
        act = pairing_action(sigma)
        flip = perm("(12)")
        mixed = [p for p in ALL_PAIRINGS if sigma.point_action[flip] != Permutation.identity()]
        # the two pairings that mix the free orbit with the fixed points swap
        moved = [p for p in ALL_PAIRINGS if act(flip, p) != p]
        assert len(moved) == 2
        assert act(flip, moved[0]) == moved[1]
        assert act(flip, moved[1]) == moved[0]

    def test_identity_fixes_all(self):
        G = resolve_group("S4")
        sigma = config_by_classes(G, [class_index_of(G, subgroup(G, "(123)", "(12)"))])
        act = pairing_action(sigma)
        e = Permutation.identity()
        for p in ALL_PAIRINGS:
            assert act(e, p) == p

    def test_s3_three_cycle_cycles_all_pairings(self):
        G = resolve_group("S3")
        sigma = config_by_classes(G, [class_index_of(G, subgroup(G, "(12)")), class_index_of(G, G)])
        act = pairing_action(sigma)
        three_cycle = perm("(123)")
        orbit = {ALL_PAIRINGS[0]}
        current = ALL_PAIRINGS[0]
        for _ in range(2):
            current = act(three_cycle, current)
            orbit.add(current)
        assert orbit == set(ALL_PAIRINGS)


class TestNodalOrbits:
    def test_z2_free_orbit_weight(self):
        G = resolve_group("Z2")
        sigma = config_by_classes(G, [0, 1, 1])
        reports = nodal_orbit_reports(sigma)
        weights = {len(r.orbit): r.weight for r in reports}
        assert weights[1] == BurnsideElement.point(G)
        assert weights[2] == BurnsideElement.from_subgroup(G, generate_group([]))

    def test_trivial_group_three_orbits(self):
        G = resolve_group("trivial")
        sigma = enumerate_sigma_configs(G)[0]
        reports = nodal_orbit_reports(sigma)
        assert len(reports) == 3
        for r in reports:
            assert r.weight == BurnsideElement.point(G)

    def test_a4_natural_single_orbit_weight(self):
        G = resolve_group("A4")
        a3 = subgroup(G, "(123)")
        sigma = config_by_classes(G, [class_index_of(G, a3)])
        reports = nodal_orbit_reports(sigma)
        assert len(reports) == 1
        (report,) = reports
        assert report.stabilizer.order == 4
        klein = subgroup(G, "(12)(34)", "(13)(24)")
        assert report.stabilizer == klein
        double_class = class_index_of(G, subgroup(G, "(12)(34)"))
        expected = BurnsideElement.from_class(G, double_class) - (
            BurnsideElement.from_subgroup(G, klein)
        )
        assert report.weight == expected

    def test_orbit_times_stabilizer(self):
        # nodal_orbit_reports takes the first unseen pairing as the least of its orbit.
        assert list(ALL_PAIRINGS) == sorted(ALL_PAIRINGS)
        for name in PRESET_ORDER:
            G = resolve_group(name)
            for sigma in enumerate_sigma_configs(G):
                for r in nodal_orbit_reports(sigma):
                    assert len(r.orbit) * r.stabilizer.order == G.order
                    assert r.branch_set.mark(0) == 2
                    assert r.representative == min(r.orbit)

    def test_each_pairing_orbit_is_checked_over_all_pairs(self, monkeypatch):
        # One orbits call per configuration, over the three pairings and
        # all of G as left factors; orbits checks each orbit it returns.
        calls = []

        def spy(G, act, points, left):
            calls.append((points, left))
            return orbits(G, act, points, left)

        monkeypatch.setattr(nodal, "orbits", spy)
        for name in PRESET_ORDER:
            G = resolve_group(name)
            for sigma in enumerate_sigma_configs(G):
                calls.clear()
                nodal_orbit_reports(sigma)
                assert calls == [(ALL_PAIRINGS, G.elements)]


class TestVerify:
    def test_s3_one_fixed_point_case(self):
        G = resolve_group("S3")
        sigma = config_by_classes(
            G, [class_index_of(G, subgroup(G, "(12)")), class_index_of(G, G)]
        )
        report = verify(sigma)
        assert report.equal
        expected = BurnsideElement.from_subgroup(G, subgroup(G, "(12)"))
        assert report.lhs == expected
        assert report.rhs == expected

    def test_trivial_group(self):
        G = resolve_group("trivial")
        report = verify_all(G)[0]
        assert report.equal
        assert report.lhs == 3 * BurnsideElement.point(G)

    def test_klein_regular_fails_with_computed_witness(self):
        G = resolve_group("V")
        sigma = config_by_classes(G, [0])
        report = verify(sigma)
        assert not report.equal
        # independent oracle: literally count fixed points of the concrete
        # induced branch sets
        assert weight_marks_by_oracle(report, G) == report.lhs.mark_vector()
        # the weighted sum differs from [Sigma] - {*} exactly at the full group
        assert report.lhs.mark_vector() == (3, -1, -1, -1, -3)
        assert report.rhs.mark_vector() == (3, -1, -1, -1, -1)
        full = len(subgroup_classes(G)) - 1
        assert [w[0] for w in report.witnesses] == [full]

    def test_z2_golden_left_hand_sides(self):
        G = resolve_group("Z2")
        point = BurnsideElement.point(G)
        free = BurnsideElement.from_subgroup(G, generate_group([]))
        expected = {
            (1, 1, 1, 1): 3 * point,
            (0, 0): 2 * free - point,
            (0, 1, 1): free + point,
        }
        for report in verify_all(G):
            assert report.equal
            assert report.lhs == expected[report.sigma.orbit_classes]

    def test_d8_sigma_of_the_geometric_type_fails(self):
        G = resolve_group("D8")
        double = subgroup(G, "(14)(23)")
        report = verify(config_by_classes(G, [class_index_of(G, double)]))
        assert not report.equal

    def test_lhs_marks_match_oracle_across_the_sweep(self):
        for name in PRESET_ORDER:
            G = resolve_group(name)
            for report in verify_all(G):
                assert weight_marks_by_oracle(report, G) == report.lhs.mark_vector()

    def test_table_is_consistent_with_equal_flag(self):
        for name in PRESET_ORDER:
            G = resolve_group(name)
            for report in verify_all(G):
                rows_equal = all(lm == rm for _, lm, rm in report.table)
                assert rows_equal == report.equal
                expected = be_equal(report.lhs, report.rhs)
                assert (report.equal, report.witnesses, report.table) == expected

    def test_one_verify_reads_each_mark_vector_once(self, monkeypatch):
        calls = []
        original = BurnsideElement.mark_vector
        original_be_equal = nodal.be_equal

        def counted(self):
            calls.append(self)
            return original(self)

        def counted_be_equal(x, y):
            calls.append("be_equal")
            return original_be_equal(x, y)

        monkeypatch.setattr(BurnsideElement, "mark_vector", counted)
        monkeypatch.setattr(nodal, "be_equal", counted_be_equal)
        for sigma in enumerate_sigma_configs(resolve_group("S4")):
            calls.clear()
            report = verify(sigma)
            assert calls == ["be_equal", report.lhs, report.rhs]


class TestKleinCriterion:
    """The mark defect LHS^K - RHS^K depends only on the image H of K in S4,
    and a configuration is unequal exactly when the image of G contains a
    Klein four-group: the same cause for V, V', D8, A4 and S4."""

    def test_defect_is_counted_from_the_image_over_the_sweep(self):
        S4 = resolve_group("S4")
        configs = rows = 0
        defects = Counter()
        for name in PRESET_ORDER:
            G = resolve_group(name)
            classes = subgroup_classes(G)
            for report in verify_all(G):
                action = report.sigma.point_action
                configs += 1
                assert report.equal == (not has_klein_four({action[g] for g in G}))
                for idx, lm, rm in report.table:
                    rows += 1
                    H = {action[k] for k in classes[idx].representative}
                    assert lm - rm == mark_defect_oracle(H)
                    if lm != rm:
                        defects[class_index_of(S4, generate_group(H)), lm - rm] += 1
        assert (configs, rows) == (60, 329)

        def at(name, defect):
            return class_index_of(S4, resolve_group(name)), defect

        assert defects == {at("V'", 2): 12, at("V", -2): 7, at("A4", 1): 2, at("S4", 1): 1}


class TestClosedForm:
    """Summed over the pairing orbits, Ind(branch set) is the G-set of the
    six blocks, the 2-subsets of the base points, and Ind({*}) is the G-set
    of the three pairings.  So the left side is [C(Sigma,2)] - [P(Sigma)]
    for every configuration, computed here by two decompositions instead
    of orbits, stabilizers and induction."""

    def test_left_side_is_blocks_minus_pairings_over_the_sweep(self):
        blocks = tuple(itertools.combinations(range(4), 2))
        configs = 0
        for name in PRESET_ORDER:
            G = resolve_group(name)
            for sigma in enumerate_sigma_configs(G):
                act = pairing_action(sigma)
                closed = decompose(G, blocks, act) - decompose(G, ALL_PAIRINGS, act)
                assert verify(sigma).lhs == closed, (name, sigma.sigma_string())
                configs += 1
        assert configs == 60


class TestImageGroup:
    """Why the 60 configurations of the sweep cover every finite group.

    A projective map that fixes four points in general position is the
    identity, so a finite group G acting on P^2 acts on the four base
    points through its image Gbar <= S4.  Sigma, the pairings and the
    branches are pulled back from Gbar, and inflation along G -> Gbar is
    injective, so the identity holds for G exactly when it holds for Gbar.
    """

    def test_marks_are_those_of_the_image_group_acting_by_inclusion(self):
        rows = unfaithful = 0
        for name in PRESET_ORDER:
            G = resolve_group(name)
            classes = subgroup_classes(G)
            for report in verify_all(G):
                action = report.sigma.point_action
                image = generate_group(action.values())
                unfaithful += image.order < G.order
                inclusion = verify(SigmaConfig.from_action(image, {g: g for g in image}))
                for idx, lm, rm in report.table:
                    K = generate_group(action[k] for k in classes[idx].representative)
                    _, image_lm, image_rm = inclusion.table[class_index_of(image, K)]
                    assert (lm, rm) == (image_lm, image_rm), (name, idx)
                    rows += 1
        assert (rows, unfaithful) == (329, 40)


class TestLatticeWeights:
    """``oracles.lattice_orbit_reports`` gives each pairing orbit's branch
    set and weight by the two-case formula on the stabilizer S and the
    subgroup T of S that keeps the representative's first block.  It must
    match the orbit path field by field: representative, orbit,
    stabilizer, branch set and weight."""

    def test_every_configuration_of_every_subgroup(self):
        seen = 0
        for G in all_subgroups(resolve_group("S4")):
            for sigma in enumerate_sigma_configs(G):
                assert lattice_orbit_reports(sigma) == nodal_orbit_reports(sigma)
                seen += 1
        assert seen == 155

    def test_relabelled_preset_configurations(self):
        seen = 0
        relabellings = [Permutation(images) for images in itertools.permutations(range(4))]
        for name in PRESET_ORDER:
            G = resolve_group(name)
            for sigma in enumerate_sigma_configs(G):
                for tau in relabellings:
                    tau_inv = tau.inverse()
                    action = {g: tau * p * tau_inv for g, p in sigma.point_action.items()}
                    relabelled = SigmaConfig.from_action(G, action)
                    assert lattice_orbit_reports(relabelled) == nodal_orbit_reports(relabelled)
                    seen += 1
        assert seen == 60 * 24


class TestRestriction:
    """Restriction to a subgroup H commutes with verification.

    Restricting Sigma to H gives the point action sigma|H, and the pairings
    and branches restrict with it, so each side of verify(sigma|H) must be
    the restriction to H of the same side of verify(sigma).  The restriction
    comes from marks (``oracles.restrict_by_marks``), not from ``nodal``.
    """

    def test_both_sides_restrict_to_every_subgroup(self):
        triples = 0
        for name in PRESET_ORDER:
            G = resolve_group(name)
            for sigma in enumerate_sigma_configs(G):
                report = verify(sigma)
                for H in all_subgroups(G):
                    action = {h: sigma.point_action[h] for h in H.elements}
                    restricted = verify(SigmaConfig.from_action(H, action))
                    assert restricted.lhs == restrict_by_marks(report.lhs, H)
                    assert restricted.rhs == restrict_by_marks(report.rhs, H)
                    triples += 1
        assert triples == 473


class TestPullBack:
    """``pulled_back_table`` reads each configuration's table off S4's
    natural table at phi(K); the orbit path computes it from orbits,
    stabilizers and induction.  They must agree row by row."""

    def test_pulled_back_table_is_the_orbit_path_table_over_the_sweep(self):
        configs = rows = 0
        for name in PRESET_ORDER:
            G = resolve_group(name)
            for sigma in enumerate_sigma_configs(G):
                pulled, table = pulled_back_table(sigma), verify(sigma).table
                assert len(pulled) == len(table)
                for row, expected in zip(pulled, table):
                    assert row == expected, (name, sigma.sigma_string())
                configs += 1
                rows += len(table)
        assert (configs, rows) == (60, 329)

    def test_natural_table_differs_at_the_klein_groups_and_above(self):
        S4 = resolve_group("S4")
        natural = SigmaConfig.from_action(S4, {g: g for g in S4})
        table = pulled_back_table(natural)
        assert table == verify(natural).table
        defects = {idx: lm - rm for idx, lm, rm in table if lm != rm}

        def at(name):
            return class_index_of(S4, resolve_group(name))

        assert defects == {at("V'"): 2, at("V"): -2, at("A4"): 1, at("S4"): 1}


class TestInvariants:
    def test_cardinality_law(self):
        for name in PRESET_ORDER:
            G = resolve_group(name)
            for report in verify_all(G):
                assert report.lhs.mark(0) == 3

    def test_weight_well_definedness(self):
        for name in PRESET_ORDER:
            G = resolve_group(name)
            for sigma in enumerate_sigma_configs(G):
                act = pairing_action(sigma)
                for report in nodal_orbit_reports(sigma):
                    for other in report.orbit:
                        stab_elems = [
                            g for g in G.elements if act(g, other) == other
                        ]
                        stab = generate_group(stab_elems)
                        blocks = other
                        branch = decompose(
                            stab,
                            blocks,
                            lambda h, b: tuple(
                                sorted(sigma.point_action[h](i) for i in b)
                            ),
                        )
                        weight = induce(
                            G, stab, branch - BurnsideElement.point(stab)
                        )
                        assert weight == report.weight

    def test_labeling_invariance(self):
        import itertools as it

        for name in PRESET_ORDER:
            G = resolve_group(name)
            for sigma in enumerate_sigma_configs(G):
                base = verify(sigma)
                for tau_images in it.permutations(range(4)):
                    tau = Permutation(tau_images)
                    tau_inv = tau.inverse()
                    relabeled = SigmaConfig.from_action(
                        G,
                        {
                            g: tau * p * tau_inv
                            for g, p in sigma.point_action.items()
                        },
                    )
                    report = verify(relabeled)
                    assert report.lhs == base.lhs
                    assert report.rhs == base.rhs
                    assert report.equal == base.equal

"""Acceptance suite: one check (and one printed PASS/FAIL line) per criterion.

All arithmetic in the package is exact, so every tolerance here is zero.

Criteria 4, 5c, 5d and 7b compare the program with pinned fixed-point
tables.  Before that comparison each pin is checked to be the mark vector
of some virtual G-set: equal marks at conjugate subgroups and integer
coefficients against the table of marks.  A pin that fails this check is
reported as impossible, since no weight and no formula can produce it.

The 5c (Klein) and 7b (dihedral case 8) pins are counted by hand from the
definitions: a nodal orbit weighs ``inf([branches] - {*})``, so the left
side has mark ``#K-fixed lines - #K-fixed pairings`` at K, and the right
side ``[Sigma] - {*}`` has mark ``|Sigma^K| - 1``.  Each row carries its
count in a comment; the historically reported values, which are not mark
vectors, are kept in comments only.

Criteria 2[A4], 2[S4] and 4 pin the reported claim that the identity holds
for A4 and S4, and fail by design.  With the right side ``[Sigma] - {*}``
the claim cannot hold for the tetrahedral configuration: A4 permutes the
three pairings transitively, so every weighted sum of nodal orbits has
mark 0 at A4, while ``[G/A3] - {*}`` has mark -1 there.  The paper's
abstract does not state its base-locus formula, so whether the pin or the
program's right side is wrong is open; see the README section "Notes on
the reference tables".

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

from fractions import Fraction

import pytest

from nodalcount.burnside import (
    BurnsideElement,
    _coeffs_from_marks,
    be_equal,
    decompose,
    induce,
)
from nodalcount.geometry import (
    NotGeneral,
    ProjPoint,
    analyze_pencil,
    apply_matrix,
    d8_case_suite,
    d8_representation,
    klein_counterexample,
    klein_representation,
    mat,
    pencil_through,
    sym2,
)
from nodalcount.nodal import (
    SigmaConfig,
    enumerate_sigma_configs,
    nodal_orbit_reports,
    pairing_action,
    pairing_label,
    verify,
    verify_all,
)
from nodalcount.permgroup import (
    Permutation,
    all_subgroups,
    class_index_of,
    generate_group,
    parse_permutation,
    subgroup_classes,
    subgroup_label,
)
from nodalcount.presets import PRESET_ORDER, resolve_group
from oracles import (
    collinear,
    d8_invariant_structure,
    induce_concrete,
    left_cosets,
    product_gset,
    span_equal,
)

import random


def perm(text):
    return parse_permutation(text)


def subgroup(G, *gens):
    return generate_group([perm(t) for t in gens])


def check(criterion: str, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {status} criterion {criterion}: {description}"
    if detail and not ok:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def check_pin_possible(criterion: str, G, column: str, pinned):
    """Fail, calling the pin impossible, unless it is the marks of a virtual G-set.

    ``pinned`` holds (subgroup, mark) pairs covering every conjugacy class
    of subgroups of G.  Every element of the Burnside ring has equal marks
    at conjugate subgroups, and its marks over the classes invert to
    integer coefficients against the table of marks.
    """
    first = {}
    problems = []
    for H, mark in pinned:
        seen = first.setdefault(class_index_of(G, H), (H, mark))
        if seen[1] != mark:
            problems.append(
                f"conjugate subgroups {subgroup_label(seen[0], G)} and "
                f"{subgroup_label(H, G)} pinned {seen[1]} and {mark}"
            )
    n = len(subgroup_classes(G))
    missing = [i for i in range(n) if i not in first]
    if missing:
        raise ValueError(f"the pin leaves subgroup classes {missing} out")
    try:
        _coeffs_from_marks(G, [first[i][1] for i in range(n)])
    except ArithmeticError as exc:
        problems.append(str(exc))
    if problems:
        check(
            criterion,
            f"the pinned {column} table is impossible: "
            "no virtual G-set has these marks",
            False,
            "; ".join(problems),
        )


def class_pins(G, marks):
    """Pair a mark vector in canonical class order with the class representatives."""
    return [(c.representative, m) for c, m in zip(subgroup_classes(G), marks)]


# ---------------------------------------------------------------------------
# 1. classical count
# ---------------------------------------------------------------------------


def test_criterion_1_classical_count():
    bad = []
    for name in PRESET_ORDER:
        G = resolve_group(name)
        for report in verify_all(G):
            if report.lhs.mark(0) != 3:
                bad.append((name, report.sigma.sigma_string(), report.lhs.mark(0)))
    check(
        "1",
        "weighted orbit sum has cardinality 3 for every group and configuration",
        not bad,
        str(bad),
    )


# ---------------------------------------------------------------------------
# 2. theorem sweep
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name", ["trivial", "Z2", "Z2d", "Z3", "Z4", "S3", "A4", "S4"]
)
def test_criterion_2_sweep_expected_equal(name):
    reports = verify_all(resolve_group(name))
    failures = [r.sigma.sigma_string() for r in reports if not r.equal]
    check(
        "2",
        f"every configuration of {name} verifies as equal",
        not failures,
        f"unequal configs: {failures}",
    )


def test_criterion_2_sweep_counterexample_groups():
    ok = True
    details = []
    for name in ("V", "D8"):
        reports = verify_all(resolve_group(name))
        unequal = [r for r in reports if not r.equal]
        details.append(f"{name}: {len(unequal)} unequal")
        ok = ok and bool(unequal)
    check(
        "2",
        "the Klein four-group and the order-8 dihedral group each have a failing configuration",
        ok,
        "; ".join(details),
    )


def test_criterion_2_vprime_matches_golden():
    from nodalcount.cli import _load_sweep_golden

    golden = {
        entry["group"]: entry["configs"] for entry in _load_sweep_golden()["groups"]
    }
    reports = verify_all(resolve_group("V'"))
    observed = [
        {
            "sigma": r.sigma.sigma_string(),
            "orbit_classes": list(r.sigma.orbit_classes),
            "equal": r.equal,
        }
        for r in reports
    ]
    check(
        "2",
        "the non-normal Klein embedding reproduces its recorded per-config results",
        observed == golden["V'"],
    )


# ---------------------------------------------------------------------------
# 3. Z/2 golden values
# ---------------------------------------------------------------------------


def test_criterion_3_z2_golden_values():
    G = resolve_group("Z2")
    point = BurnsideElement.point(G)
    free = BurnsideElement.from_subgroup(G, generate_group([]))
    expected_by_sigma = {
        (4 * point).coeffs: 3 * point,  # [Sigma] = 4 fixed points
        (2 * free).coeffs: 2 * free - point,  # [Sigma] = two free orbits
        (2 * point + free).coeffs: free + point,  # [Sigma] = 2 fixed + free
    }
    results = {}
    for report in verify_all(G):
        results[report.sigma.decomposition.coeffs] = report.lhs
    ok = len(results) == 3 and all(
        results[key] == value for key, value in expected_by_sigma.items()
    )
    check(
        "3",
        "the three Z/2 configurations give 3{*}, 2[G]-{*} and [G]+{*}",
        ok,
        str({k: v.render() for k, v in results.items()}),
    )


# ---------------------------------------------------------------------------
# 4. A4 table
# ---------------------------------------------------------------------------


def test_criterion_4_a4_table():
    G = resolve_group("A4")
    a3 = subgroup(G, "(123)")
    config = next(
        c
        for c in enumerate_sigma_configs(G)
        if c.orbit_classes == (class_index_of(G, a3),)
    )
    report = verify(config)
    klein = subgroup(G, "(12)(34)", "(13)(24)")
    double = subgroup(G, "(12)(34)")
    expected_rows = {
        class_index_of(G, generate_group([])): 3,
        class_index_of(G, double): -1,
        class_index_of(G, klein): -1,
        class_index_of(G, a3): 0,
        class_index_of(G, G): -1,
    }
    classes = subgroup_classes(G)
    check_pin_possible(
        "4",
        G,
        "A4",
        [(classes[idx].representative, v) for idx, v in expected_rows.items()],
    )
    table = {idx: (lm, rm) for idx, lm, rm in report.table}
    mismatches = [
        (idx, table[idx], value)
        for idx, value in expected_rows.items()
        if table[idx] != (value, value)
    ]
    check(
        "4",
        "A4 with a single 4-point orbit: fixed-point table (3,-1,-1,0,-1) on both sides",
        not mismatches,
        f"rows (class, got(lhs,rhs), pinned): {mismatches}",
    )


# ---------------------------------------------------------------------------
# 5. Klein counterexample
# ---------------------------------------------------------------------------


def _klein_report():
    case = klein_counterexample()
    analysis = analyze_pencil(case)
    return case, analysis, verify(analysis.sigma)


def test_criterion_5a_klein_orbit_points():
    G, rep = klein_representation()
    seed = ProjPoint((1, 2, 3))
    orbit = {apply_matrix(rep[g], seed) for g in G.elements}
    expected = {
        ProjPoint((1, 2, 3)),
        ProjPoint((1, 2, -1)),
        ProjPoint((1, -2, -1)),
        ProjPoint((-3, -2, -1)),
    }
    check(
        "5a",
        "the orbit of [1:2:3] under the printed matrices is the printed base locus",
        orbit == expected,
        str(sorted(str(p) for p in orbit)),
    )


def test_criterion_5b_klein_no_three_collinear():
    _, analysis, _ = _klein_report()
    points = analysis.base
    ok = True
    for i in range(4):
        for j in range(i + 1, 4):
            for k in range(j + 1, 4):
                ok = ok and not collinear(points[i], points[j], points[k])
    check("5b", "no three of the Klein base points are collinear", ok)


def test_criterion_5c_klein_lhs_marks():
    _, _, report = _klein_report()
    # Classes: (), the three order-2 subgroups <a>, V.  V fixes each of the
    # three pairings; the two lines of a pairing are swapped by V and fixed
    # by the <a> that fixes their blocks.  LHS^K = #K-fixed lines -
    # #K-fixed pairings:
    #   ()   6 lines - 3 pairings =  3
    #   <a>  2 lines - 3 pairings = -1  (each of the three order-2 classes)
    #   V    0 lines - 3 pairings = -3
    # The historically reported (3, -2, -2, -2, -3) is no mark vector of V:
    # with mark -3 at V, the mark at an order-2 subgroup is 2*x - 3 for an
    # integer coefficient x, hence odd, never -2.
    pinned = (3, -1, -1, -1, -3)
    G = report.lhs.ambient
    check_pin_possible("5c", G, "LHS", class_pins(G, pinned))
    got = report.lhs.mark_vector()
    check(
        "5c",
        f"Klein weighted-sum marks equal the pinned table {pinned}",
        got == pinned,
        f"recomputed marks: {got}",
    )


def test_criterion_5d_klein_rhs_marks():
    _, _, report = _klein_report()
    pinned = (3, -1, -1, -1, -1)
    G = report.rhs.ambient
    check_pin_possible("5d", G, "RHS", class_pins(G, pinned))
    got = report.rhs.mark_vector()
    check(
        "5d",
        f"Klein base-locus-side marks equal the pinned table {pinned}",
        got == pinned,
        f"recomputed marks: {got}",
    )


def test_criterion_5_klein_inequality_observed():
    _, _, report = _klein_report()
    check("5", "the Klein configuration fails the verification", not report.equal)


# ---------------------------------------------------------------------------
# 6. D8 representation
# ---------------------------------------------------------------------------


def test_criterion_6_d8_representation():
    problems = []
    for a in (1, -1):
        for b in (1, -1):
            G, rep = d8_representation(a, b)
            printed_rot = mat(
                [
                    [0, 1, 0, 0, 0, 0],
                    [1, 0, 0, 0, 0, 0],
                    [0, 0, 1, 0, 0, 0],
                    [0, 0, 0, 0, a, 0],
                    [0, 0, 0, -a, 0, 0],
                    [0, 0, 0, 0, 0, -1],
                ]
            )
            printed_ref = mat(
                [
                    [1, 0, 0, 0, 0, 0],
                    [0, 1, 0, 0, 0, 0],
                    [0, 0, 1, 0, 0, 0],
                    [0, 0, 0, -b, 0, 0],
                    [0, 0, 0, 0, b, 0],
                    [0, 0, 0, 0, 0, -1],
                ]
            )
            if sym2(rep[perm("(1234)")]) != printed_rot:
                problems.append(f"sym2 rotation a={a}")
            if sym2(rep[perm("(13)")]) != printed_ref:
                problems.append(f"sym2 reflection b={b}")
            try:
                d8_invariant_structure(a, b)
            except ArithmeticError as exc:
                problems.append(f"invariant structure a={a} b={b}: {exc}")
            cases = d8_case_suite(a, b, Fraction(1), Fraction(1))
            if len(cases) != 9:
                problems.append(f"{len(cases)} pencils for a={a} b={b}")
            for index, case in enumerate(cases[:7], start=1):
                try:
                    analyze_pencil(case)
                    problems.append(f"case {index} unexpectedly general")
                except NotGeneral:
                    pass
    check(
        "6",
        "printed 6x6 matrices, invariant subspaces, nine pencils, cases 1-7 not general",
        not problems,
        "; ".join(problems),
    )


# ---------------------------------------------------------------------------
# 7. D8 case 8
# ---------------------------------------------------------------------------


def _d8_case8_report():
    cases = d8_case_suite(1, 1, Fraction(1), Fraction(1))
    analysis = analyze_pencil(cases[7])
    return cases[7], analysis, verify(analysis.sigma)


def test_criterion_7a_sigma_decomposition():
    case, analysis, _ = _d8_case8_report()
    G = case.group
    double = subgroup(G, "(14)(23)")
    expected = BurnsideElement.from_class(G, class_index_of(G, double))
    check(
        "7a",
        "case-8 base locus decomposes as one orbit with stabilizer class <(14)(23)>",
        analysis.sigma.decomposition == expected,
        analysis.sigma.decomposition.render(),
    )


def test_criterion_7b_ten_row_table():
    case, _, report = _d8_case8_report()
    G = case.group
    # G = <(1234),(13)> acts on the four base points Sigma = G/<(14)(23)>.
    # That action is the natural one composed with the automorphism of G
    # that fixes (1234) and sends (14)(23) -> (13), (12)(34) -> (24),
    # (13) -> (12)(34), (24) -> (14)(23); "acts as" below names the image,
    # and lines and pairings are named in the natural labels.
    # (LHS, RHS) = (#K-fixed lines - #K-fixed pairings, |Sigma^K| - 1).
    # |Sigma^K| is 2 for K conjugate to <(14)(23)> (|N_G(K)/K| = 2), else 0
    # for K != 1.
    pinned = {
        "()": (3, 3),  # 6 lines - 3 pairings; 4 points
        # H1 acts as the regular Klein group: it fixes all 3 pairings and
        # no line.
        "(13),(24)": (-3, -1),
        # H2 acts as <(13),(24)>, two 2-point orbits: it fixes the pairing
        # {13|24} and both of its lines.
        "(12)(34),(14)(23)": (1, -1),
        "(1234)": (-1, -1),  # 0 lines - 1 pairing ({13|24})
        "(13)": (-1, -1),  # acts as (12)(34): 2 lines - 3 pairings
        "(24)": (-1, -1),  # acts as (14)(23): 2 lines - 3 pairings
        "(13)(24)": (-1, -1),  # acts as (13)(24): 2 lines - 3 pairings
        "(12)(34)": (1, 1),  # acts as (24): 2 lines - 1 pairing; 2 points
        "(14)(23)": (1, 1),  # acts as (13): 2 lines - 1 pairing; 2 points
        "G": (-1, -1),  # 0 lines - 1 pairing ({13|24})
    }
    # Historically reported rows that differ: H1 (-2, -1), H2 (-2, -1),
    # (13) (1, -1), (12)(34) (-1, -1), (14)(23) (-1, 3).  They are no mark
    # vectors: (13) and (24) get LHS 1 and -1, and (12)(34) and (14)(23)
    # get RHS -1 and 3, though both pairs are conjugate by (1234).
    subgroups = {
        "()": generate_group([]),
        "(13),(24)": subgroup(G, "(13)", "(24)"),
        "(12)(34),(14)(23)": subgroup(G, "(12)(34)", "(14)(23)"),
        "(1234)": subgroup(G, "(1234)"),
        "(13)": subgroup(G, "(13)"),
        "(24)": subgroup(G, "(24)"),
        "(13)(24)": subgroup(G, "(13)(24)"),
        "(12)(34)": subgroup(G, "(12)(34)"),
        "(14)(23)": subgroup(G, "(14)(23)"),
        "G": G,
    }
    for column, side in (("LHS", 0), ("RHS", 1)):
        check_pin_possible(
            "7b", G, column, [(H, pinned[name][side]) for name, H in subgroups.items()]
        )
    mismatches = []
    for name, H in subgroups.items():
        idx = class_index_of(G, H)
        got = (report.lhs.mark(idx), report.rhs.mark(idx))
        if got != pinned[name]:
            mismatches.append((name, got, pinned[name]))
    check(
        "7b",
        "case-8 ten-row fixed-point table matches the pinned values exactly",
        not mismatches,
        f"rows (subgroup, recomputed, pinned): {mismatches}",
    )


def test_criterion_7_inequality_observed():
    _, _, report = _d8_case8_report()
    check("7", "the case-8 configuration fails the verification", not report.equal)


# ---------------------------------------------------------------------------
# 8. Burnside oracle suite
# ---------------------------------------------------------------------------


def _coset_table_gset(G, multiset):
    classes = subgroup_classes(G)
    table = {}
    offset = 0
    for idx in multiset:
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
    return G, tuple(range(offset)), lambda g, p, t=table: t[(g, p)]


def _random_multiset(G, rng, max_size):
    classes = subgroup_classes(G)
    sizes = {c.class_index: G.order // c.representative.order for c in classes}
    chosen = []
    total = 0
    while True:
        options = [i for i, s in sizes.items() if total + s <= max_size]
        if not options or (chosen and rng.random() < 0.4):
            break
        idx = rng.choice(options)
        chosen.append(idx)
        total += sizes[idx]
    return chosen or [len(classes) - 1]


def test_criterion_8a_products():
    rng = random.Random(8080)
    failures = 0
    for name in PRESET_ORDER:
        G = resolve_group(name)
        for _ in range(5):
            S = _coset_table_gset(G, _random_multiset(G, rng, 6))
            T = _coset_table_gset(G, _random_multiset(G, rng, 6))
            if decompose(*product_gset(S, T)) != decompose(*S) * decompose(*T):
                failures += 1
    check(
        "8a",
        "product-set decomposition equals the ring product for random G-sets",
        failures == 0,
        f"{failures} failures",
    )


def test_criterion_8b_induction_oracle():
    failures = []
    for name in PRESET_ORDER:
        G = resolve_group(name)
        for H in all_subgroups(G):
            classes = subgroup_classes(H)
            sizes = [H.order // c.representative.order for c in classes]
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
                S = _coset_table_gset(H, multiset)
                if decompose(*induce_concrete(G, H, S)) != induce(
                    G, H, decompose(*S)
                ):
                    failures.append((name, subgroup_label(H), multiset))
    check(
        "8b",
        "induction equals decomposing the literal (G x X)/~ for all H <= G, |X| <= 4",
        not failures,
        str(failures[:5]),
    )


def test_criterion_8c_equality_vs_coefficients():
    rng = random.Random(424242)
    names = list(PRESET_ORDER)
    failures = 0
    for trial in range(1000):
        G = resolve_group(names[rng.randrange(len(names))])
        n = len(subgroup_classes(G))
        x = BurnsideElement(G, tuple(rng.randint(-3, 3) for _ in range(n)))
        if trial % 3 == 0:
            y = BurnsideElement(G, x.coeffs)
        else:
            y = BurnsideElement(G, tuple(rng.randint(-3, 3) for _ in range(n)))
        equal, _, _ = be_equal(x, y)
        if equal != (x.coeffs == y.coeffs):
            failures += 1
    check(
        "8c",
        "mark equality agrees with coefficient equality on 1000 random virtual sets",
        failures == 0,
        f"{failures} failures",
    )


# ---------------------------------------------------------------------------
# 9. weight well-definedness and labeling invariance
# ---------------------------------------------------------------------------


def test_criterion_9_weight_well_definedness():
    from nodalcount.burnside import decompose as bdecompose

    failures = []
    for name in PRESET_ORDER:
        G = resolve_group(name)
        for sigma in enumerate_sigma_configs(G):
            act = pairing_action(sigma)
            for report in nodal_orbit_reports(sigma):
                for other in report.orbit:
                    stab_elems = [g for g in G.elements if act(g, other) == other]
                    stab = generate_group(stab_elems)
                    branch = bdecompose(
                        stab,
                        other,
                        lambda h, blk: tuple(
                            sorted(sigma.point_action[h](i) for i in blk)
                        ),
                    )
                    weight = induce(
                        G, stab, branch - BurnsideElement.point(stab)
                    )
                    if weight != report.weight:
                        failures.append(
                            (name, sigma.sigma_string(), pairing_label(other))
                        )
    check(
        "9",
        "orbit weights are independent of the chosen representative",
        not failures,
        str(failures[:5]),
    )


def test_criterion_9_labeling_invariance():
    import itertools

    failures = []
    for name in PRESET_ORDER:
        G = resolve_group(name)
        for sigma in enumerate_sigma_configs(G):
            base = verify(sigma)
            for tau_images in itertools.permutations(range(4)):
                tau = Permutation(tau_images)
                tau_inv = tau.inverse()
                relabeled = SigmaConfig.from_action(
                    G, {g: tau * p * tau_inv for g, p in sigma.point_action.items()}
                )
                report = verify(relabeled)
                if (
                    report.lhs != base.lhs
                    or report.rhs != base.rhs
                    or report.equal != base.equal
                ):
                    failures.append((name, sigma.sigma_string(), tau.cycle_string()))
    check(
        "9",
        "verification results are invariant under relabeling the four points",
        not failures,
        str(failures[:5]),
    )


# ---------------------------------------------------------------------------
# 10. geometry round trips
# ---------------------------------------------------------------------------


def test_criterion_10_round_trips():
    problems = []
    cases = [klein_counterexample()]
    suite = d8_case_suite(1, 1, Fraction(1), Fraction(1))
    cases.extend([suite[7], suite[8]])
    for case in cases:
        analysis = analyze_pencil(case)
        for p in analysis.base:
            if not case.f(p).is_zero() or not case.g(p).is_zero():
                problems.append(f"{case.label}: {p} not on both conics")
        f2, g2 = pencil_through(analysis.base)
        if not span_equal(
            [case.f.coeffs, case.g.coeffs], [f2.coeffs, g2.coeffs]
        ):
            problems.append(f"{case.label}: reconstructed pencil spans differently")
    check(
        "10",
        "base points satisfy both conics exactly and regenerate the same pencil span",
        not problems,
        "; ".join(problems),
    )

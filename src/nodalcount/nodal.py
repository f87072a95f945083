"""Weighted counting of nodal orbits in a pencil through four points.

A 4-point G-set determines three ways to pair the points into two blocks;
each pairing is the combinatorial shadow of a degenerate member of the
pencil (a pair of lines), and its two blocks are the branches.  A pairing
is its pair of sorted blocks.  For every orbit of pairings we form a
weight in the Burnside ring (induce the virtual branch set [X] - {*} from
the stabilizer), sum the weights, and compare against [Sigma] - {*} mark
by mark.  The comparison is reported, not assumed: the verifier prints
the full fixed-point table either way.

A configuration's text form, its sigma spec, is written by
``SigmaConfig.sigma_string`` and read back by ``parse_sigma_spec``.
"""

from __future__ import annotations

import re
import reprlib
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations
from typing import Callable, Mapping, NamedTuple, Sequence

from .burnside import BurnsideElement, be_equal, decompose, induce
from .permgroup import (
    _CYCLE_BODY,
    _ELEMENTS,
    _INDEX,
    _MUL,
    PermGroup,
    Permutation,
    _members,
    class_index_of,
    class_labels,
    generate_group,
    orbits,
    parse_permutation,
    subgroup_classes,
    subgroup_label,
)

__all__ = [
    "ALL_PAIRINGS",
    "pairing_label",
    "SigmaConfig",
    "enumerate_sigma_configs",
    "sigma_from_classes",
    "parse_sigma_spec",
    "pairing_action",
    "NodalOrbitReport",
    "nodal_orbit_reports",
    "VerificationReport",
    "fixed_point_lines",
    "verify",
    "verify_all",
    "pulled_back_table",
]


ALL_PAIRINGS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))

# How S4 permutes the six blocks and the three pairings, built once:
# (a permutation's images, x) -> the image of x, a sorted block or pairing.
_S4_IMAGES = {
    (images, block): tuple(sorted(images[i] for i in block))
    for images in permutations(range(4))
    for block in combinations(range(4), 2)
}
_S4_IMAGES.update(
    ((images, pairing), tuple(sorted(_S4_IMAGES[images, block] for block in pairing)))
    for images in permutations(range(4))
    for pairing in ALL_PAIRINGS
)


def pairing_label(pairing: tuple) -> str:
    """1-based display such as "12|34"."""
    (a, b), (c, d) = pairing
    return f"{a + 1}{b + 1}|{c + 1}{d + 1}"


class SigmaConfig:
    """A 4-point G-set: a homomorphism G -> S4 plus its orbit decomposition."""

    __slots__ = ("ambient", "point_action", "decomposition")

    def __init__(
        self,
        ambient: PermGroup,
        point_action: Mapping[Permutation, Permutation],
        decomposition: BurnsideElement,
    ) -> None:
        self.ambient = ambient
        self.point_action = dict(point_action)
        self.decomposition = decomposition

    @property
    def orbit_classes(self) -> tuple:
        """The class index of each orbit, ascending."""
        return tuple(
            idx for idx, n in enumerate(self.decomposition.coeffs) for _ in range(n)
        )

    @classmethod
    def from_action(
        cls, G: PermGroup, point_action: Mapping[Permutation, Permutation]
    ) -> "SigmaConfig":
        """Build from an explicit homomorphism G -> S4, validating it.

        Past the domain check, ``decompose`` proves phi(e) = e and
        phi(s*h) = phi(s)*phi(h) for each generator s and element h, or raises
        InvalidActionError; by induction on word length, phi(s*y*h) =
        phi(s)*phi(y*h) = phi(s)*phi(y)*phi(h) = phi(s*y)*phi(h).
        """
        if set(point_action) != set(G.elements):
            raise ValueError("point action must be defined on every group element")
        deco = decompose(G, (0, 1, 2, 3), lambda g, i: point_action[g](i))
        return cls(G, point_action, deco)

    def sigma_string(self) -> str:
        """Display like "2*+[G/(123)]"; "k*" counts fixed points, "[G]" is a free orbit."""
        classes = subgroup_classes(self.ambient)
        *counts, fixed = self.decomposition.coeffs
        terms = []
        if fixed:
            terms.append(f"{fixed}*")
        for idx, mult in enumerate(counts):
            if not mult:
                continue
            rep = classes[idx].representative
            gens = ",".join(g.cycle_string() for g in rep.generators)
            body = f"[G/{gens}]" if gens else "[G]"
            terms.append(body if mult == 1 else f"{mult}{body}")
        return "+".join(terms) if terms else "0"

    def __repr__(self) -> str:
        return f"SigmaConfig({subgroup_label(self.ambient)}, {self.sigma_string()})"


def sigma_from_classes(G: PermGroup, class_multiset: Sequence[int]) -> SigmaConfig:
    """Realize an abstract orbit-type multiset as a concretely labeled action.

    Points 0..3 are assigned orbit by orbit (classes in ascending index
    order); each orbit carries the left action on the cosets of the class
    representative, cosets by least element, all on S4's element numbers.
    Labeling invariance of the verifier makes this one choice as good as
    any.

    The result needs no proof: g.(xH) = (gx)H is an action by
    associativity, and the coset H has stabilizer H, so each orbit is
    [G/H] by definition and the decomposition is the multiset itself.
    """
    classes = subgroup_classes(G)
    multiset = tuple(sorted(class_multiset))
    sizes = [G.order // classes[idx].representative.order for idx in multiset]
    if sum(sizes) != 4:
        raise ValueError(
            f"orbit sizes {reprlib.repr(sizes)} do not add up to a 4-point configuration"
        )
    members = _members(G.mask)
    # points[p] = (orbit, least element x of p's coset xH); where[orbit, y] =
    # the point whose coset holds y.  x runs upwards, so a coset is first
    # met, and numbered, at its least element.
    points, where = [], {}
    for k, idx in enumerate(multiset):
        hs = _members(classes[idx].representative.mask)
        for x in members:
            if (k, x) not in where:
                where.update(((k, _MUL[x][h]), len(points)) for h in hs)
                points.append((k, x))
    # each image tuple names one of S4's shared elements: no product, no check
    point_action = {_ELEMENTS[g]: _ELEMENTS[_INDEX[tuple(where[k, _MUL[g][x]] for k, x in points)]]
                    for g in members}
    counts = tuple(multiset.count(idx) for idx in range(len(classes)))
    return SigmaConfig(G, point_action, BurnsideElement(G, counts))


_SIGMA_TERM = re.compile(r"^(?:(\d+)\*|(\d*)\[G(?:/(.+))?\])$")


def _count(digits: str) -> int:
    """A term's count, judged from its digits: 4 points have at most 4 orbits."""
    digits = digits.lstrip("0") or "0"
    if len(digits) > 1 or int(digits) > 4:
        raise ValueError("a count in a sigma spec is at most 4, the most orbits of 4 points")
    return int(digits)


def parse_sigma_spec(spec: str, G: PermGroup) -> SigmaConfig:
    """Read what ``SigmaConfig.sigma_string`` writes: "+"-separated orbit
    terms, "k*" fixed points, "[G]", "k[G/<gens>]".

    Each parenthesised cycle inside [G/...] is its own generator, so
    "[G/(12),(34)]" and "[G/(12)(34)]" both name <(12),(34)>.  Counts are
    at most 4, and the term multiset must describe a 4-point G-set, or
    ValueError is raised.
    """
    multiset = []
    for raw in spec.split("+"):
        term = raw.strip()
        if not term:
            raise ValueError(f"empty term in sigma spec {reprlib.repr(spec)}")
        match = _SIGMA_TERM.match(term)
        if not match:
            raise ValueError(f"cannot parse sigma term {reprlib.repr(term)}")
        fixed, mult, gens_text = match.groups()
        if fixed is not None:
            multiset.extend([len(subgroup_classes(G)) - 1] * _count(fixed))
            continue
        count = _count(mult or "1")
        if gens_text is None:
            subgroup = generate_group([])
        else:
            gens = [parse_permutation(m[0]) for m in _CYCLE_BODY.finditer(gens_text)]
            # Each "(...)" is one generator, optionally followed by a comma.
            # The whitespace after ")" has one place to go, so a failing
            # match takes linear time.
            if not re.fullmatch(r"\s*(?:\([^()]*\)\s*(?:,\s*)?)+", gens_text):
                raise ValueError(f"cannot parse generators {reprlib.repr(gens_text)}")
            subgroup = generate_group(gens)
        if not subgroup.is_subgroup_of(G):
            raise ValueError(
                f"term {reprlib.repr(term)} names a subgroup that does not lie in the group"
            )
        multiset.extend([class_index_of(G, subgroup)] * count)
    return sigma_from_classes(G, multiset)


def enumerate_sigma_configs(G: PermGroup) -> list:
    """All 4-point G-sets up to isomorphism, each realized with one labeling.

    Configurations are the multisets of subgroup classes whose coset
    spaces have sizes summing to 4.  Only the classes of index |G|/|H| at
    most 4 are considered, since a larger orbit fits in no configuration.
    The list is sorted by the coefficient vector of the decomposition
    (ascending lexicographic), which is deterministic and presentation
    independent.
    """
    classes = subgroup_classes(G)
    sizes = [G.order // cls.representative.order for cls in classes]
    indices = range(len(classes))
    fitting = [idx for idx in indices if sizes[idx] <= 4]
    multisets = [
        m
        for count in range(1, 5)
        for m in combinations_with_replacement(fitting, count)
        if sum(sizes[idx] for idx in m) == 4
    ]
    multisets.sort(key=lambda m: tuple(m.count(idx) for idx in indices))
    return [sigma_from_classes(G, m) for m in multisets]


def pairing_action(sigma: SigmaConfig) -> Callable:
    """The induced left action of G on pairings and blocks, read off the S4 table."""
    point_action = sigma.point_action
    return lambda g, x: _S4_IMAGES[point_action[g].images, x]


class NodalOrbitReport(NamedTuple):
    """One orbit of pairings with its stabilizer, branch set and weight."""

    representative: tuple
    orbit: tuple
    stabilizer: PermGroup
    branch_set: BurnsideElement
    weight: BurnsideElement

    def to_json(self) -> dict:
        return {
            "representative": pairing_label(self.representative),
            "orbit": [pairing_label(p) for p in self.orbit],
            "stabilizer": subgroup_label(self.stabilizer),
            "branch_set": self.branch_set.to_json(),
            "weight": self.weight.to_json(),
        }


def nodal_orbit_reports(sigma: SigmaConfig) -> list:
    """Orbit-by-orbit weights: Ind([branches] - {*}) from each stabilizer.

    ``orbits`` checks each pairing orbit over all pairs of G.  The
    representative is an orbit's first pairing, the least of its orbit:
    ALL_PAIRINGS is sorted, and each orbit is found from the first pairing
    not in an earlier one.  The branch set is the two blocks of the
    representative as a set acted on by the stabilizer, through the same
    action.
    """
    G = sigma.ambient
    act = pairing_action(sigma)
    reports = []
    for orbit, stab in orbits(G, act, ALL_PAIRINGS, G.elements):
        rep = orbit[0]
        branch_be = decompose(stab, rep, act)
        weight = induce(G, stab, branch_be - BurnsideElement.point(stab))
        reports.append(
            NodalOrbitReport(rep, tuple(sorted(orbit)), stab, branch_be, weight)
        )
    return reports


def fixed_point_lines(rows: Sequence) -> list:
    """The "K <= G | LHS^K | RHS^K" table of (name, lhs mark, rhs mark) rows."""
    width = max(len(name) for name, _, _ in rows)
    lines = [f"{'K <= G'.ljust(width)} | LHS^K | RHS^K"]
    for name, lm, rm in rows:
        lines.append(f"{name.ljust(width)} | {lm:5d} | {rm:5d}")
    return lines


class VerificationReport(NamedTuple):
    """Side-by-side fixed-point comparison of the weighted orbit sum and [Sigma] - {*}."""

    sigma: SigmaConfig
    orbit_reports: tuple
    lhs: BurnsideElement
    rhs: BurnsideElement
    equal: bool
    witnesses: tuple
    table: tuple  # rows (class_index, lhs mark, rhs mark)

    def render_text(self, group_name: str) -> str:
        G = self.sigma.ambient
        labels = class_labels(G)
        lines = [
            f"group: {group_name}",
            f"sigma: {self.sigma.sigma_string()}  ->  {self.sigma.decomposition.render()}",
            "orbits:",
        ]
        for rep in self.orbit_reports:
            orbit = ", ".join(pairing_label(p) for p in rep.orbit)
            lines.append(
                f"  {pairing_label(rep.representative)}: orbit {{{orbit}}}, "
                f"stab {subgroup_label(rep.stabilizer, ambient=G)}, "
                f"weight {rep.weight.render()}"
            )
        lines.append(f"lhs = {self.lhs.render()}")
        lines.append(f"rhs = {self.rhs.render()}")
        lines.append(f"equal: {'true' if self.equal else 'false'}")
        lines.extend(
            fixed_point_lines([(labels[idx], lm, rm) for idx, lm, rm in self.table])
        )
        return "\n".join(lines)

    def to_json(self, group_name: str | None = None) -> dict:
        labels = class_labels(self.sigma.ambient)
        return {
            "group": group_name or subgroup_label(self.sigma.ambient),
            "sigma": self.sigma.decomposition.to_json(),
            "sigma_spec": self.sigma.sigma_string(),
            "orbits": [rep.to_json() for rep in self.orbit_reports],
            "lhs": self.lhs.to_json(),
            "rhs": self.rhs.to_json(),
            "equal": self.equal,
            "table": [
                {"class": labels[idx], "lhs": lm, "rhs": rm}
                for idx, lm, rm in self.table
            ],
        }


def verify(sigma: SigmaConfig) -> VerificationReport:
    """Compare the summed orbit weights against [Sigma] - {*}, mark by mark."""
    G = sigma.ambient
    reports = nodal_orbit_reports(sigma)
    lhs = sum((rep.weight for rep in reports), BurnsideElement.zero(G))
    rhs = sigma.decomposition - BurnsideElement.point(G)
    return VerificationReport(sigma, tuple(reports), lhs, rhs, *be_equal(lhs, rhs))


def verify_all(G: PermGroup) -> list:
    """One VerificationReport per configuration, in canonical order."""
    return [verify(sigma) for sigma in enumerate_sigma_configs(G)]


@lru_cache(maxsize=None)
def _natural_table() -> tuple:
    """S4 and the table of its natural configuration X = {1, 2, 3, 4}, the
    identity action, verified through the orbit path once per process."""
    S4 = generate_group(map(Permutation, permutations(range(4))))
    return S4, verify(SigmaConfig.from_action(S4, {g: g for g in S4.elements})).table


def pulled_back_table(sigma: SigmaConfig) -> tuple:
    """``verify(sigma).table``, read off S4's natural table by restriction.

    Sigma is phi*(X), the restriction of S4's natural set X along the point
    action phi: G -> S4, a homomorphism by construction in
    ``sigma_from_classes`` or by ``from_action``'s proof.
    The 2-subsets and the pairings of Sigma are phi* of those of X, so by
    the closed form lhs = [C(Sigma, 2)] - [P(Sigma)] (``TestClosedForm``)
    lhs(Sigma) = phi*(lhs(X)), and rhs(Sigma) = [phi*(X)] - {*} =
    phi*(rhs(X)).  Restriction has marks m_K(phi*(x)) = m_phi(K)(x)
    (T. tom Dieck, "Transformation Groups", 1987; S. Bouc, "Burnside
    rings", Handbook of Algebra 2, 2000).  So the row of each class K of G
    is X's row at the class of phi(K), the group that the images of K's
    generators close to.
    """
    S4, natural = _natural_table()
    phi = sigma.point_action
    rows = []
    for cls in subgroup_classes(sigma.ambient):
        image = generate_group(phi[k] for k in cls.representative.generators)
        _, lhs_mark, rhs_mark = natural[class_index_of(S4, image)]
        rows.append((cls.class_index, lhs_mark, rhs_mark))
    return tuple(rows)

"""Finite permutation groups on a small number of points.

Everything here is exact and exhaustive: a group is its full, sorted
element list, built by one breadth-first walk over generator edges
(``_close``).  Cyclic subgroups are the walks from one element, every
other subgroup is a walk from a cyclic subgroup's generators plus one
more element, and conjugacy classes of subgroups receive a canonical
order so that integer vectors indexed by them mean the same thing in
every run.  Intended scale is degree <= 8 and order <= 48; nothing here
is clever enough for more.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Callable, Iterable, Sequence

__all__ = [
    "InvalidActionError",
    "Permutation",
    "PermGroup",
    "SubgroupClass",
    "parse_permutation",
    "generate_group",
    "all_subgroups",
    "subgroup_classes",
    "class_index_of",
    "subgroup_label",
    "class_labels",
    "minimal_generating_set",
    "orbit_and_stabilizer",
]


class InvalidActionError(ValueError):
    """A claimed group action failed the identity or compatibility axiom."""


class Permutation:
    """A permutation of {0, ..., degree-1} stored as a tuple of images.

    Composition applies the right factor first: ``(p * q)(i) == p(q(i))``,
    so products read the same way as function composition and left
    actions elsewhere in the package compose as ``(g*h) . x == g.(h.x)``.
    Cycle notation is 1-based and only appears at I/O boundaries.
    """

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]) -> None:
        imgs = tuple(images)
        if sorted(imgs) != list(range(len(imgs))):
            raise ValueError(f"not a bijection on 0..{len(imgs) - 1}: {imgs!r}")
        self.images = imgs

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, cycles: Sequence[Sequence[int]], degree: int) -> "Permutation":
        """Build a permutation from 0-based cycles, rightmost cycle applied first."""
        result = cls.identity(degree)
        for cycle in cycles:
            if len(set(cycle)) != len(cycle):
                raise ValueError(f"repeated point in cycle {cycle!r}")
            imgs = list(range(degree))
            for i, point in enumerate(cycle):
                if not 0 <= point < degree:
                    raise ValueError(f"point {point} out of range for degree {degree}")
                imgs[point] = cycle[(i + 1) % len(cycle)]
            result = result * cls(imgs)
        return result

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if not isinstance(other, Permutation):
            return NotImplemented
        if other.degree != self.degree:
            raise ValueError("cannot compose permutations of different degree")
        return Permutation(self.images[j] for j in other.images)

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(inv)

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def cycle_string(self) -> str:
        """Render in cycle notation; compact ("(12)(34)") for degree <= 9."""
        cycles = []
        seen = set()
        for start in range(self.degree):
            if start in seen or self.images[start] == start:
                seen.add(start)
                continue
            cycle = [start]
            seen.add(start)
            j = self.images[start]
            while j != start:
                cycle.append(j)
                seen.add(j)
                j = self.images[j]
            cycles.append(cycle)
        if not cycles:
            return "()"
        sep = "" if self.degree <= 9 else " "
        return "".join(
            "(" + sep.join(str(p + 1) for p in cycle) + ")" for cycle in cycles
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __le__(self, other: "Permutation") -> bool:
        return self.images <= other.images

    def __repr__(self) -> str:
        return f"Permutation({self.cycle_string()!r}, degree={self.degree})"


_CYCLE_BODY = re.compile(r"\(([^()]*)\)")


def parse_permutation(text: str, degree: int) -> Permutation:
    """Parse cycle notation; "(1 2)(3 4)" and compact "(12)(34)" both work.

    Points are 1-based on the way in.  The identity is "()" or an empty
    string of cycles.  Compact digit runs are only unambiguous for
    degree <= 9, which is all this package supports at the boundary.
    """
    stray = _CYCLE_BODY.sub("", text).strip()
    if stray:
        raise ValueError(f"cannot parse permutation {text!r}: stray {stray!r}")
    cycles = []
    for body in _CYCLE_BODY.findall(text):
        body = body.strip()
        if not body:
            continue
        if re.search(r"[ ,]", body):
            tokens = [tok for tok in re.split(r"[ ,]+", body) if tok]
        else:
            if not body.isdigit():
                raise ValueError(f"cannot parse cycle ({body})")
            tokens = list(body)
        points = []
        for tok in tokens:
            if not tok.isdigit():
                raise ValueError(f"cannot parse cycle ({body})")
            point = int(tok) - 1
            if not 0 <= point < degree:
                raise ValueError(
                    f"point {tok} out of range in {text!r} for degree {degree}"
                )
            points.append(point)
        cycles.append(points)
    return Permutation.from_cycles(cycles, degree)


def _close(gens: Sequence[Permutation], degree: int) -> frozenset:
    """The group generated by gens, by a breadth-first walk over generator edges.

    Starting at the identity, every element found is right-multiplied by
    each generator until nothing new appears.  In a finite group every
    element is a positive word in the generators, so this reaches the
    whole group with |<gens>| * |gens| products.
    """
    identity = Permutation.identity(degree)
    elems = {identity}
    queue = [identity]
    for x in queue:
        for s in gens:
            y = x * s
            if y not in elems:
                elems.add(y)
                queue.append(y)
    return frozenset(elems)


class PermGroup:
    """A finite permutation group given by its complete element list.

    Elements are kept sorted (image-tuple order) for cheap equality,
    hashing and canonical orderings.  Construction trusts the caller to
    pass a closed set; ``generate_group`` validates it.  ``generators`` is
    the tuple it was closed from, or (); geometry proves invariance on it.
    """

    __slots__ = ("degree", "elements", "generators", "_set")

    def __init__(
        self,
        degree: int,
        elements: Iterable[Permutation],
        generators: Iterable[Permutation] = (),
    ) -> None:
        self.degree = degree
        self.elements = tuple(sorted(elements))
        self.generators = tuple(generators)
        self._set = frozenset(self.elements)
        if not self.elements:
            raise ValueError("a group needs at least the identity")

    @property
    def order(self) -> int:
        return len(self.elements)

    def identity_element(self) -> Permutation:
        return Permutation.identity(self.degree)

    def __contains__(self, p: Permutation) -> bool:
        return p in self._set

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PermGroup)
            and self.degree == other.degree
            and self.elements == other.elements
        )

    def __hash__(self) -> int:
        return hash((self.degree, self.elements))

    def __repr__(self) -> str:
        return f"PermGroup(order={self.order}, {subgroup_label(self)})"

    def element_key(self) -> tuple:
        return tuple(p.images for p in self.elements)

    def validate(self) -> None:
        """Check identity, closure and inverses; raises ValueError on failure."""
        if self.identity_element() not in self:
            raise ValueError("identity missing")
        for a in self.elements:
            if a.inverse() not in self:
                raise ValueError(f"inverse of {a} missing")
            for b in self.elements:
                if a * b not in self:
                    raise ValueError(f"product {a}*{b} escapes the element set")

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        return self.degree == other.degree and self._set <= other._set

    def conjugated_by(self, g: Permutation) -> "PermGroup":
        ginv = g.inverse()
        return PermGroup(
            self.degree,
            (g * h * ginv for h in self.elements),
            tuple(g * h * ginv for h in self.generators),
        )

    def left_cosets(self, H: "PermGroup") -> tuple:
        """Left cosets g*H as sorted tuples, ordered by their minimal element."""
        if not H.is_subgroup_of(self):
            raise ValueError("left_cosets expects a subgroup")
        seen: set = set()
        cosets = []
        for g in self.elements:
            if g in seen:
                continue
            coset = tuple(sorted(g * h for h in H.elements))
            seen.update(coset)
            cosets.append(coset)
        return tuple(cosets)


def generate_group(generators: Iterable[Permutation], degree: int) -> PermGroup:
    """Close a generator list into a PermGroup with deterministic element order."""
    gens = tuple(generators)
    for p in gens:
        if p.degree != degree:
            raise ValueError(
                f"generator degree mismatch: {p!r} has degree {p.degree}, expected {degree}"
            )
    return PermGroup(degree, _close(gens, degree), gens)


@lru_cache(maxsize=None)
def minimal_generating_set(G: PermGroup) -> tuple:
    """A smallest generating set, chosen deterministically; () for the trivial group."""
    if G.order == 1:
        return ()
    candidates = [p for p in G.elements if not p.is_identity()]
    for size in range(1, 4):
        for combo in combinations(candidates, size):
            if len(_close(combo, G.degree)) == G.order:
                return combo
    # Subgroups of S4 never get here; fall back to everything.
    return tuple(candidates)


@lru_cache(maxsize=None)
def all_subgroups(G: PermGroup) -> tuple:
    """Every subgroup of G, canonically sorted by (order, element list).

    Every subgroup is a join of cyclic ones.  Starting from the cyclic
    subgroups <c>, each subgroup found keeps the generator tuple that
    produced it, and its join with <c> is ``_close(gens + (c,))``; the
    search runs breadth-first until no join is new.
    """
    found = {}
    for c in G.elements:
        found.setdefault(_close((c,), G.degree), (c,))
    cyclic_gens = [gens[0] for gens in found.values()]
    queue = list(found)
    for current in queue:
        for c in cyclic_gens:
            if c in current:
                continue
            gens = found[current] + (c,)
            joined = _close(gens, G.degree)
            if joined not in found:
                found[joined] = gens
                queue.append(joined)
    groups = [PermGroup(G.degree, fs, gens) for fs, gens in found.items()]
    groups.sort(key=lambda H: (H.order, H.element_key()))
    return tuple(groups)


@dataclass(frozen=True)
class SubgroupClass:
    """One conjugacy class of subgroups: canonical representative plus all members."""

    representative: PermGroup
    members: tuple
    class_index: int


@lru_cache(maxsize=None)
def subgroup_classes(G: PermGroup) -> tuple:
    """Conjugacy classes of subgroups of G in canonical order.

    Classes are ordered by (subgroup order, lexicographic element list of
    the smallest member); the representative is that smallest member.
    """
    subs = all_subgroups(G)
    position = {frozenset(H.elements): i for i, H in enumerate(subs)}
    classes = []
    used: set = set()
    for i, H in enumerate(subs):
        if i in used:
            continue
        member_indices = set()
        for g in G.elements:
            ginv = g.inverse()
            conj = frozenset(g * h * ginv for h in H.elements)
            member_indices.add(position[conj])
        used |= member_indices
        members = tuple(subs[j] for j in sorted(member_indices))
        classes.append(members)
    return tuple(
        SubgroupClass(members[0], members, idx) for idx, members in enumerate(classes)
    )


@lru_cache(maxsize=None)
def _class_lookup(G: PermGroup) -> dict:
    lookup = {}
    for cls in subgroup_classes(G):
        for member in cls.members:
            lookup[frozenset(member.elements)] = cls.class_index
    return lookup


def class_index_of(G: PermGroup, H: PermGroup) -> int:
    """Index of the conjugacy class of H among the canonical classes of G."""
    try:
        return _class_lookup(G)[frozenset(H.elements)]
    except KeyError:
        raise ValueError(f"{H!r} is not a subgroup of the ambient group") from None


def subgroup_label(H: PermGroup, ambient: PermGroup | None = None) -> str:
    """Short display name: "G" for the ambient group itself, else "<gens>"."""
    if ambient is not None and H == ambient:
        return "G"
    gens = minimal_generating_set(H)
    if not gens:
        return "<()>"
    return "<" + ",".join(g.cycle_string() for g in gens) + ">"


@lru_cache(maxsize=None)
def class_labels(G: PermGroup) -> tuple:
    return tuple(
        subgroup_label(cls.representative, ambient=G) for cls in subgroup_classes(G)
    )


def _verify_action(G: PermGroup, action: Callable, points: Sequence) -> None:
    """Check the identity axiom, then compatibility for every pair of elements."""
    identity = G.identity_element()
    for p in points:
        if action(identity, p) != p:
            raise InvalidActionError(f"identity axiom fails at {p!r}")
    for g in G.elements:
        for h in G.elements:
            gh = g * h
            for p in points:
                if action(gh, p) != action(g, action(h, p)):
                    raise InvalidActionError(
                        f"compatibility fails: ({g} * {h}) . {p!r} != {g} . ({h} . {p!r})"
                    )


def orbit_and_stabilizer(G: PermGroup, action: Callable, x) -> tuple:
    """Orbit (in BFS order) and stabilizer subgroup of x under a left action.

    The action axioms are checked on the points of the orbit before the
    result is returned; a violation raises InvalidActionError.
    """
    orbit = [x]
    seen = {x}
    i = 0
    while i < len(orbit):
        p = orbit[i]
        i += 1
        for g in G.elements:
            q = action(g, p)
            if q not in seen:
                seen.add(q)
                orbit.append(q)
    _verify_action(G, action, orbit)
    stab_elems = [g for g in G.elements if action(g, x) == x]
    stab = PermGroup(G.degree, stab_elems)
    stab = PermGroup(G.degree, stab_elems, minimal_generating_set(stab))
    if len(orbit) * stab.order != G.order:
        raise InvalidActionError("orbit-stabilizer identity fails; action is broken")
    return tuple(orbit), stab

"""Subgroups of S4, the symmetric group on the four base points.

Every group here permutes the four base points of a pencil, so it is a
subgroup of S4.  Everything is exact and exhaustive: a group is its
full, sorted element list, built by one breadth-first walk over
generator edges (``_close``).  Every subgroup of S4 is generated by at
most two elements, so the closures of all element pairs reach each one.
Conjugacy classes of subgroups receive a canonical order so that
integer vectors indexed by them mean the same thing in every run.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import combinations
from typing import Callable, Iterable, NamedTuple, Sequence

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
    "verify_action",
]


class InvalidActionError(ValueError):
    """A claimed group action failed the identity or compatibility axiom."""


_POINTS = [0, 1, 2, 3]


class Permutation:
    """A permutation of the four points {0, 1, 2, 3} stored as a tuple of images.

    Composition applies the right factor first: ``(p * q)(i) == p(q(i))``,
    so products read the same way as function composition and left
    actions elsewhere in the package compose as ``(g*h) . x == g.(h.x)``.
    Cycle notation is 1-based and only appears at I/O boundaries.

    The constructor checks that its images are a bijection; it is the
    input boundary.  ``identity``, products and ``inverse`` are trusted:
    a product or inverse of bijections is a bijection, so they build
    their result without the check.
    """

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]) -> None:
        imgs = tuple(images)
        if sorted(imgs) != _POINTS:
            raise ValueError(f"not a bijection on 0..3: {imgs!r}")
        self.images = imgs

    @classmethod
    def identity(cls) -> "Permutation":
        return _trusted((0, 1, 2, 3))

    @classmethod
    def from_cycles(cls, cycles: Sequence[Sequence[int]]) -> "Permutation":
        """Build a permutation from 0-based cycles, rightmost cycle applied first."""
        result = cls.identity()
        for cycle in cycles:
            if len(set(cycle)) != len(cycle):
                raise ValueError(f"repeated point in cycle {cycle!r}")
            imgs = list(_POINTS)
            for i, point in enumerate(cycle):
                if not 0 <= point < 4:
                    raise ValueError(f"point {point} out of range for degree 4")
                imgs[point] = cycle[(i + 1) % len(cycle)]
            result = result * cls(imgs)
        return result

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if not isinstance(other, Permutation):
            return NotImplemented
        return _trusted(tuple(self.images[j] for j in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * 4
        for i, j in enumerate(self.images):
            inv[j] = i
        return _trusted(tuple(inv))

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def cycle_string(self) -> str:
        """Render in compact cycle notation, such as "(12)(34)"."""
        cycles = []
        seen = set()
        for start in _POINTS:
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
        return "".join(
            "(" + "".join(str(p + 1) for p in cycle) + ")" for cycle in cycles
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __repr__(self) -> str:
        return f"Permutation({self.cycle_string()!r})"


def _trusted(images: tuple) -> Permutation:
    """A Permutation of images already known to be a bijection, unchecked."""
    p = object.__new__(Permutation)
    p.images = images
    return p


_CYCLE_BODY = re.compile(r"\(([^()]*)\)")


def parse_permutation(text: str) -> Permutation:
    """Parse cycle notation; "(1 2)(3 4)" and compact "(12)(34)" both work.

    Points are 1-based on the way in, so each is one of 1, 2, 3, 4.  The
    identity is "()" or an empty string of cycles.
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
            if not 0 <= point < 4:
                raise ValueError(f"point {tok} out of range in {text!r} for degree 4")
            points.append(point)
        cycles.append(points)
    return Permutation.from_cycles(cycles)


def _close(gens: Sequence[Permutation]) -> frozenset:
    """The group generated by gens, by a breadth-first walk over generator edges.

    Starting at the identity, every element found is right-multiplied by
    each generator until nothing new appears.  In a finite group every
    element is a positive word in the generators, so this reaches the
    whole group with |<gens>| * |gens| products.
    """
    identity = Permutation.identity()
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
    """A subgroup of S4 given by its complete element list.

    Elements are kept sorted (image-tuple order) for cheap equality,
    hashing and canonical orderings.  Construction trusts the caller to
    pass a closed set.  ``generators`` is the tuple it was closed from,
    or (): ``all_subgroups`` keeps each subgroup's label there, and
    geometry keys its generator matrices by a preset's generators.
    """

    __slots__ = ("elements", "generators", "_set")

    def __init__(
        self, elements: Iterable[Permutation], generators: Iterable[Permutation] = ()
    ) -> None:
        self.elements = tuple(sorted(elements))
        self.generators = tuple(generators)
        self._set = frozenset(self.elements)
        if not self.elements:
            raise ValueError("a group needs at least the identity")

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, p: Permutation) -> bool:
        return p in self._set

    def __iter__(self):
        return iter(self.elements)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PermGroup) and self.elements == other.elements

    def __hash__(self) -> int:
        return hash(self.elements)

    def __repr__(self) -> str:
        return f"PermGroup(order={self.order}, {subgroup_label(self)})"

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        return self._set <= other._set

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


def generate_group(generators: Iterable[Permutation]) -> PermGroup:
    """Close a generator list into a PermGroup with deterministic element order."""
    gens = tuple(generators)
    return PermGroup(_close(gens), gens)


@lru_cache(maxsize=None)
def all_subgroups(G: PermGroup) -> tuple:
    """Every subgroup of G, canonically sorted by (order, element list).

    Every subgroup of S4 is generated by at most two elements, so the
    closures of the tuples of at most two non-identity elements reach
    them all.  The walk goes by tuple size, then in ``combinations``
    order, and each subgroup keeps the first tuple that closes to it:
    its smallest generating set that comes first lexicographically.
    """
    others = [p for p in G.elements if not p.is_identity()]
    found = {}
    for size in range(3):
        for gens in combinations(others, size):
            found.setdefault(_close(gens), gens)
    groups = [PermGroup(fs, gens) for fs, gens in found.items()]
    groups.sort(key=lambda H: (H.order, H.elements))
    return tuple(groups)


def minimal_generating_set(G: PermGroup) -> tuple:
    """A smallest generating set, chosen deterministically; () for the trivial group."""
    return all_subgroups(G)[-1].generators


class SubgroupClass(NamedTuple):
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


def verify_action(G: PermGroup, action: Callable, points: Sequence) -> None:
    """Check the identity axiom, then compatibility for every pair of elements."""
    identity = Permutation.identity()
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
    """Orbit and stabilizer subgroup of x under a left action, unchecked.

    The orbit is {g.x} in first-seen order over G.elements, which starts
    at the identity, so x comes first when the action is valid.  Only
    |orbit| * |stab| = |G| is checked, raising InvalidActionError; the
    axioms are the caller's to check (``verify_action``).
    """
    images = [action(g, x) for g in G.elements]
    orbit = tuple(dict.fromkeys(images))
    stab = [g for g, y in zip(G.elements, images) if y == x]
    if len(orbit) * len(stab) != G.order:
        raise InvalidActionError("orbit-stabilizer identity fails; action is broken")
    return orbit, PermGroup(stab)

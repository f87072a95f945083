"""Subgroups of S4, the symmetric group on the four base points.

Every group here permutes the four base points of a pencil, so it is a
subgroup of S4.  S4's 30 subgroups are built once, at import, as masks
(bit i is set when S4's i-th element lies in the subgroup); they are the
only PermGroups, and every group's subgroups, conjugacy classes and
labels are read off them.
Classes receive a canonical order so that integer vectors indexed by
them mean the same thing in every run.
"""

from __future__ import annotations

import re
import reprlib
import sys
from functools import lru_cache
from itertools import combinations, permutations
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

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
    "orbits",
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

    def cycle_string(self) -> str:
        """Render in compact cycle notation, such as "(12)(34)": each cycle
        starts at its least point, and fixed points are left out."""
        text, seen = "", set()
        for start in _POINTS:
            cycle, j = "", start
            while j not in seen:
                seen.add(j)
                cycle += str(j + 1)
                j = self.images[j]
            if len(cycle) > 1:
                text += f"({cycle})"
        return text or "()"

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


def _clip(text: str) -> str:
    """Text to echo unquoted, cut to 30 characters as ``reprlib.repr`` cuts."""
    return text if len(text) <= 30 else f"{text[:13]}...{text[-14:]}"


def parse_permutation(text: str) -> Permutation:
    """Parse cycle notation; "(1 2)(3 4)" and compact "(12)(34)" both work.

    Points are 1-based on the way in, so each is one of 1, 2, 3, 4.  The
    identity is "()" or an empty string of cycles.
    """
    stray = _CYCLE_BODY.sub("", text).strip()
    if stray:
        raise ValueError(f"cannot parse permutation {reprlib.repr(text)}: "
                         f"stray {reprlib.repr(stray)}")
    # The product of the cycles, the rightmost applied first.  A cycle of
    # distinct points in range is a bijection, so each factor is trusted.
    result = Permutation.identity()
    for body in _CYCLE_BODY.findall(text):
        body = body.strip()
        tokens = re.split(r"[ ,]+", body) if re.search(r"[ ,]", body) else body
        cycle = []
        for tok in filter(None, tokens):
            # isdecimal holds for exactly the digits that int() reads
            if not tok.isdecimal():
                raise ValueError(f"cannot parse cycle ({_clip(body)})")
            # int() refuses a token longer than the int-string limit
            limit = sys.get_int_max_str_digits()
            point = int(tok) - 1 if not limit or len(tok) <= limit else -1
            if not 0 <= point < 4:
                raise ValueError(f"point {_clip(tok)} out of range in {reprlib.repr(text)}")
            if point in cycle:
                raise ValueError(f"repeated point in cycle ({_clip(body)})")
            cycle.append(point)
        imgs = list(_POINTS)
        for i, point in enumerate(cycle):
            imgs[point] = cycle[(i + 1) % len(cycle)]
        result = result * _trusted(tuple(imgs))
    return result


# S4, built once.  Its elements are numbered in image-tuple order, the
# order of ``permutations`` and of ``Permutation``, so 0 is the identity;
# _MUL[a][b] is the number of the product a * b.
_S4 = tuple(permutations(range(4)))
_INDEX = {images: i for i, images in enumerate(_S4)}
_MUL = tuple(
    tuple(_INDEX[a[b0], a[b1], a[b2], a[b3]] for b0, b1, b2, b3 in _S4) for a in _S4
)
_ELEMENTS = tuple(_trusted(images) for images in _S4)


def _members(mask: int) -> list:
    """The element numbers in a mask, ascending."""
    return [i for i in range(24) if mask >> i & 1]


def _walk(gens: Sequence[int]) -> list:
    """The elements of <gens> in the order of a breadth-first walk from the
    identity over generator edges (x, s) to x*s: every element of a finite
    group is a positive word in its generators, so |<gens>| * |gens|
    products reach them all."""
    mask = 1
    queue = [0]
    for x in queue:
        row = _MUL[x]
        for s in gens:
            y = row[s]
            if not mask >> y & 1:
                mask |= 1 << y
                queue.append(y)
    return queue


def _close(gens: Sequence[int]) -> int:
    """The mask of <gens>."""
    return sum(1 << x for x in _walk(gens))


class PermGroup:
    """A subgroup of S4, given by its mask over S4's numbered elements.

    ``_lattice`` builds the only instances, one per subgroup, so equality
    and hashing are identity.  Membership and containment read the mask;
    ``elements`` lists the members in image-tuple order, and
    ``generators`` is the subgroup's label, a smallest generating set
    (see ``_lattice``), and () for the trivial group.
    """

    __slots__ = ("mask", "elements", "generators")

    def __init__(self, mask: int, label: Sequence[int]) -> None:
        self.mask = mask
        self.elements = tuple(_ELEMENTS[i] for i in _members(mask))
        self.generators = tuple(_ELEMENTS[i] for i in label)

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, p: Permutation) -> bool:
        return bool(self.mask >> _INDEX[p.images] & 1)

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self) -> str:
        return f"PermGroup(order={self.order}, {subgroup_label(self)})"

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        return not self.mask & ~other.mask


def _lattice() -> tuple:
    """S4's 30 subgroups, sorted by (order, element list), each with its label.

    Every subgroup of S4 is 2-generated, so closing the tuples of at most
    two non-identity elements, by size and then in ``combinations`` order,
    reaches each; its label is the first tuple that closes to it.  Such a
    tuple lies in the subgroup, so a walk over its own elements agrees.
    <a, b> is generated by <a> | <b>, so a pair is walked only when that
    union is new.  A union that is a labelled subgroup is <a, b> itself,
    labelled by an earlier tuple; a union seen before closes as it did
    then.  The walk stops at the 30th subgroup, since a later tuple can
    only close to a subgroup that already has its label.
    """
    cyclic = [_close((a,)) for a in range(24)]
    labels = {1: ()}
    for a in range(1, 24):
        labels.setdefault(cyclic[a], (a,))
    known = set(labels)
    for a, b in combinations(range(1, 24), 2):
        union = cyclic[a] | cyclic[b]
        if union not in known:
            mask = _close((a, b))
            labels.setdefault(mask, (a, b))
            known |= {union, mask}
            if len(labels) == 30:
                break
    masks = sorted(labels, key=lambda m: (m.bit_count(), _members(m)))
    return tuple(PermGroup(m, labels[m]) for m in masks)


_SUBGROUPS = _lattice()
_GROUPS = {H.mask: H for H in _SUBGROUPS}


def generate_group(generators: Iterable[Permutation]) -> PermGroup:
    """The subgroup of S4 that a generator list closes to."""
    return _GROUPS[_close([_INDEX[g.images] for g in generators])]


def _hom_from_generators(images: Mapping, product, identity) -> tuple:
    """The group the generators close to, and their images extended to it.

    ``product`` multiplies images and ``identity`` is the identity's image.
    On each edge (x, s) of ``_walk``, in walk order, table[x*s] is set to,
    or checked against, product(table[x], images[s]); a table consistent on
    every edge is a homomorphism.
    """
    gens = [(_INDEX[s.images], image) for s, image in images.items()]
    table = {0: identity}
    for x in _walk([s for s, _ in gens]):
        for s, image in gens:
            value = product(table[x], image)
            if table.setdefault(_MUL[x][s], value) != value:
                raise ValueError("generator images do not extend to a homomorphism")
    group = _GROUPS[sum(1 << x for x in table)]
    return group, {_ELEMENTS[x]: v for x, v in table.items()}


@lru_cache(maxsize=None)
def all_subgroups(G: PermGroup) -> tuple:
    """Every subgroup of G, canonically sorted by (order, element list)."""
    return tuple(H for H in _SUBGROUPS if not H.mask & ~G.mask)


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
    # conjugation by g maps element number h to g * h * g^-1
    conjugators = [(_MUL[g], _MUL[g].index(0)) for g in _members(G.mask)]
    classes = []
    seen: set = set()
    for H in subs:
        if H.mask not in seen:
            hs = _members(H.mask)
            conjugates = {
                sum(1 << _MUL[row[h]][inv] for h in hs) for row, inv in conjugators
            }
            seen |= conjugates
            classes.append(tuple(K for K in subs if K.mask in conjugates))
    return tuple(
        SubgroupClass(members[0], members, idx) for idx, members in enumerate(classes)
    )


@lru_cache(maxsize=None)
def _class_lookup(G: PermGroup) -> dict:
    return {K: cls.class_index for cls in subgroup_classes(G) for K in cls.members}


def class_index_of(G: PermGroup, H: PermGroup) -> int:
    """Index of the conjugacy class of H among the canonical classes of G."""
    try:
        return _class_lookup(G)[H]
    except KeyError:
        raise ValueError(f"{H!r} is not a subgroup of the ambient group") from None


def _generators_text(H: PermGroup) -> str:
    """H's generators in cycle notation, as class labels and sigma specs write them."""
    return ",".join(g.cycle_string() for g in H.generators)


def subgroup_label(H: PermGroup, ambient: PermGroup | None = None) -> str:
    """Short display name: "G" for the ambient group itself, else "<gens>"."""
    if H is ambient:
        return "G"
    return f"<{_generators_text(H) or '()'}>"


@lru_cache(maxsize=None)
def class_labels(G: PermGroup) -> tuple:
    return tuple(
        subgroup_label(cls.representative, ambient=G) for cls in subgroup_classes(G)
    )


def orbits(G: PermGroup, action: Callable, points: Sequence, left: Sequence) -> list:
    """Split distinct points into orbits, checking the G-set axioms on each.

    Returns (orbit, stabilizer of its first point) per orbit, orbits in
    first-seen order over ``points``; an orbit lists {g.x} in first-seen
    order over G.elements, so its first point x is the point it was found
    from.  On each orbit the identity fixes every point, and each g in
    ``left`` keeps the point set and has (g*h).p == g.(h.p) for every h in
    G, or InvalidActionError is raised.  ``left`` must generate G:
    ``G.elements`` checks all pairs, and the generators suffice, by
    induction on word length.  An orbit that passes is a transitive G-set,
    so |orbit| * |stab| = |G| and the stabilizer is a subgroup of G, one of
    S4's.

    The |left| * |G| products g*h depend on neither the orbit nor the
    action, so they are formed once per call and shared by every orbit.
    Each orbit reads them in (g, h) order, the order of ``left`` and of
    G.elements, so sharing changes no check and no failure raised.
    """
    pointset = set(points)
    if len(pointset) != len(points):
        raise ValueError("duplicate points in a concrete G-set")
    identity = Permutation.identity()
    products = [(g, [(h, g * h) for h in G.elements]) for g in left]
    found = []
    seen: set = set()
    for x in points:
        if x in seen:
            continue
        images = [action(g, x) for g in G.elements]
        # x leads even if e.x != x, so that the identity check sees it
        orbit = tuple(dict.fromkeys([x, *images]))
        for p in orbit:
            if action(identity, p) != p:
                raise InvalidActionError(f"identity axiom fails at {p!r}")
        for g, row in products:
            for p in orbit:
                if action(g, p) not in pointset:
                    raise InvalidActionError(f"action leaves the point set at {g} . {p!r}")
            for h, gh in row:
                for p in orbit:
                    if action(gh, p) != action(g, action(h, p)):
                        raise InvalidActionError(
                            f"compatibility fails: ({g} * {h}) . {p!r} != {g} . ({h} . {p!r})"
                        )
        seen.update(orbit)
        stab = sum(1 << i for i, y in zip(_members(G.mask), images) if y == x)
        found.append((orbit, _GROUPS[stab]))
    return found

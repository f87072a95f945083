"""Test-only oracles: concrete G-set constructions checked against the ring.

Each builds a literal G-set, so ``decompose`` of it is an answer that the
Burnside-ring formulas (``inflate``, products, sums) must reproduce.
"""

from nodalcount.burnside import ConcreteGSet
from nodalcount.permgroup import PermGroup


def inflate_concrete(G: PermGroup, H: PermGroup, S: ConcreteGSet) -> ConcreteGSet:
    """The literal quotient (G x X)/~ with (gh, x) ~ (g, h.x), as a concrete G-set.

    Points are (coset representative index, x) pairs with the equivalence
    applied eagerly; used as the independent oracle for ``inflate``.
    """
    if S.ambient != H:
        raise ValueError("concrete inflation expects an H-set")
    if not H.is_subgroup_of(G):
        raise ValueError("concrete inflation requires H <= G")
    cosets = G.left_cosets(H)
    reps = [coset[0] for coset in cosets]
    split = {}
    for g in G.elements:
        for i, r in enumerate(reps):
            h = r.inverse() * g
            if h in H:
                split[g] = (i, h)
                break
    points = tuple((i, x) for i in range(len(reps)) for x in S.points)
    action = {}
    for g in G.elements:
        for (i, x) in points:
            j, h = split[g * reps[i]]
            action[(g, (i, x))] = (j, S.act(h, x))
    return ConcreteGSet(G, points, lambda g, p: action[(g, p)])


def product_gset(S: ConcreteGSet, T: ConcreteGSet) -> ConcreteGSet:
    """Cartesian product with the diagonal action."""
    if S.ambient != T.ambient:
        raise ValueError("product needs a common ambient group")
    points = tuple((x, y) for x in S.points for y in T.points)
    return ConcreteGSet(
        S.ambient, points, lambda g, p: (S.act(g, p[0]), T.act(g, p[1]))
    )


def disjoint_union_gset(S: ConcreteGSet, T: ConcreteGSet) -> ConcreteGSet:
    """Disjoint union, with points tagged by side."""
    if S.ambient != T.ambient:
        raise ValueError("disjoint union needs a common ambient group")
    points = tuple((0, x) for x in S.points) + tuple((1, y) for y in T.points)

    def act(g, p):
        side, x = p
        return (side, S.act(g, x) if side == 0 else T.act(g, x))

    return ConcreteGSet(S.ambient, points, act)

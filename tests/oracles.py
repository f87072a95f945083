"""Test-only oracles: concrete G-set constructions checked against the ring,
and brute-force subgroup searches checked against ``permgroup``.

Each G-set oracle builds a literal G-set, so ``decompose`` of it is an
answer that the Burnside-ring formulas (``inflate``, products, sums) must
reproduce.  The subgroup oracles close sets under all pairwise products,
not over generator edges, and assume no bound on the number of generators.
"""

from itertools import combinations

from nodalcount.burnside import ConcreteGSet
from nodalcount.permgroup import PermGroup, Permutation


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


def closure_oracle(elements) -> frozenset:
    """The set grown from the identity and elements by all pairwise products until stable."""
    group = {Permutation.identity(), *elements}
    while True:
        grown = group | {a * b for a in group for b in group}
        if grown == group:
            return frozenset(group)
        group = grown


def subgroups_oracle(G: PermGroup) -> set:
    """Every subgroup of G, found by adding one element at a time to each subgroup found.

    Every subgroup is reached from the trivial one this way, whatever the
    number of generators it needs.
    """
    found = {closure_oracle(())}
    queue = list(found)
    for H in queue:
        for g in G.elements:
            if g not in H:
                K = closure_oracle(H | {g})
                if K not in found:
                    found.add(K)
                    queue.append(K)
    return found


def minimal_generators_oracle(H: PermGroup) -> tuple:
    """The least number of generators, then the first such tuple in ``combinations``
    order over the sorted non-identity elements of H."""
    others = [p for p in H.elements if not p.is_identity()]
    target = frozenset(H.elements)
    for size in range(len(others) + 1):
        for gens in combinations(others, size):
            if closure_oracle(gens) == target:
                return gens

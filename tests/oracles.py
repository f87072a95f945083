"""Test-only oracles: concrete G-set constructions checked against the ring,
brute-force subgroup searches checked against ``permgroup``, coset
configurations and representations built from Permutation and QuadExt
products, checked against ``nodal`` and ``geometry``, the mark
defect of ``verify``'s table counted from the definitions, restriction
to a subgroup read off marks, collinearity of three points, a change of
coordinates on conics, the D8 invariant-subspace structure the dihedral
pencils are spanned from, square stripping by trial division over every
d, the inner product as a fold of the field's own ``+`` and ``*``, and a
deadline for checks that must not hang.

Each G-set oracle builds a literal G-set as a (group, points, action)
triple, so ``decompose`` of it is an answer that the Burnside-ring
formulas (``induce``, products, sums) must reproduce.  The subgroup
oracles close sets under all pairwise products, not over generator
edges, and assume no bound on the number of generators.
"""

import signal
from contextlib import contextmanager
from itertools import combinations, combinations_with_replacement

from nodalcount.burnside import BurnsideElement, _coeffs_from_marks
from nodalcount.geometry import (
    _D8_CONICS,
    ZERO,
    Conic,
    d8_representation,
    det3,
    identity_matrix,
    kernel_basis,
    mat,
    mat_mul,
    mat_vec,
    qe,
    rank,
    rref,
    sym2,
)
from nodalcount.nodal import SigmaConfig
from nodalcount.permgroup import (
    PermGroup,
    Permutation,
    class_index_of,
    parse_permutation,
    subgroup_classes,
)


@contextmanager
def deadline(seconds: float):
    """Fail the enclosed block with TimeoutError once it has run for seconds.

    SIGALRM interrupts the block between bytecodes, so a hang fails the
    test instead of stalling the suite.
    """

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def left_cosets(G: PermGroup, H: PermGroup) -> tuple:
    """Left cosets g*H as sorted tuples of products, ordered by their least element."""
    if not H.is_subgroup_of(G):
        raise ValueError("left_cosets expects a subgroup")
    # g runs upwards, so each coset first appears at its least element
    return tuple(dict.fromkeys(tuple(sorted(g * h for h in H)) for g in G.elements))


def sigma_multisets_oracle(G: PermGroup) -> list:
    """Every multiset of at most 4 classes of G whose orbit sizes |G|/|H| add up
    to 4, sorted by its count vector: ``enumerate_sigma_configs``' order."""
    classes = subgroup_classes(G)
    sizes = [G.order // cls.representative.order for cls in classes]
    found = [
        m
        for count in range(1, 5)
        for m in combinations_with_replacement(range(len(classes)), count)
        if sum(sizes[idx] for idx in m) == 4
    ]
    return sorted(found, key=lambda m: tuple(m.count(idx) for idx in range(len(classes))))


def coset_config_oracle(G: PermGroup, multiset) -> SigmaConfig:
    """The coset action of a class multiset, from Permutation products.

    Points are the cosets of each class representative, orbit by orbit in
    ascending class order, cosets by least element; g sends the point of
    xH to that of (g*x)H.  ``from_action`` proves the map an action and
    decomposes it.
    """
    classes = subgroup_classes(G)
    points = [
        (k, coset)
        for k, idx in enumerate(sorted(multiset))
        for coset in left_cosets(G, classes[idx].representative)
    ]
    where = {(k, x): p for p, (k, coset) in enumerate(points) for x in coset}
    action = {
        g: Permutation([where[k, g * coset[0]] for k, coset in points]) for g in G.elements
    }
    return SigmaConfig.from_action(G, action)


# Each representation's generators, cycles -> integer matrix rows, restated
# from ``geometry``: the dihedral rotation and reflection carry the signs a, b.
def d8_generators(a: int, b: int) -> dict:
    return {"(1234)": [[0, -1, 0], [1, 0, 0], [0, 0, a]],
            "(13)": [[1, 0, 0], [0, -1, 0], [0, 0, b]]}


KLEIN_GENERATORS = {"(12)(34)": [[-1, 1, 0], [0, 1, 0], [0, 1, -1]],
                    "(13)(24)": [[0, -1, 1], [0, -1, 0], [1, -1, 0]]}


def representation_oracle(generators: dict) -> dict:
    """The table g -> matrix that the generators close to, every product a
    QuadExt ``mat_mul``, grown from the identity until no product is new.
    A product that lands on a group element with another matrix raises."""
    gens = [(parse_permutation(cycle), mat(rows)) for cycle, rows in generators.items()]
    table = {Permutation.identity(): identity_matrix(3)}
    queue = list(table)
    for g in queue:
        for s, M in gens:
            h, value = g * s, mat_mul(table[g], M)
            if h not in table:
                table[h] = value
                queue.append(h)
            elif table[h] != value:
                raise ValueError("generator matrices do not give a representation")
    return table


def induce_concrete(G: PermGroup, H: PermGroup, S: tuple) -> tuple:
    """The literal quotient (G x X)/~ with (gh, x) ~ (g, h.x), as a G-set triple.

    Points are (coset representative index, x) pairs with the equivalence
    applied eagerly; used as the independent oracle for ``induce``.
    """
    ambient, xs, act = S
    if ambient != H:
        raise ValueError("concrete induction expects an H-set")
    if not H.is_subgroup_of(G):
        raise ValueError("concrete induction requires H <= G")
    cosets = left_cosets(G, H)
    reps = [coset[0] for coset in cosets]
    split = {}
    for g in G.elements:
        for i, r in enumerate(reps):
            h = r.inverse() * g
            if h in H:
                split[g] = (i, h)
                break
    points = tuple((i, x) for i in range(len(reps)) for x in xs)
    action = {}
    for g in G.elements:
        for (i, x) in points:
            j, h = split[g * reps[i]]
            action[(g, (i, x))] = (j, act(h, x))
    return G, points, lambda g, p: action[(g, p)]


def restrict_by_marks(x: BurnsideElement, H: PermGroup) -> BurnsideElement:
    """Res_H^G x for H <= G, computed from marks.

    The mark of Res x at K <= H is x's mark at the class of K in G; the
    coefficients over H come back by integer back-substitution against
    H's table of marks.
    """
    G = x.ambient
    marks = x.mark_vector()
    res = [marks[class_index_of(G, cls.representative)] for cls in subgroup_classes(H)]
    return BurnsideElement(H, _coeffs_from_marks(H, res))


def product_gset(S: tuple, T: tuple) -> tuple:
    """Cartesian product with the diagonal action."""
    (G, xs, act_s), (H, ys, act_t) = S, T
    if G != H:
        raise ValueError("product needs a common ambient group")
    points = tuple((x, y) for x in xs for y in ys)
    return G, points, lambda g, p: (act_s(g, p[0]), act_t(g, p[1]))


def disjoint_union_gset(S: tuple, T: tuple) -> tuple:
    """Disjoint union, with points tagged by side."""
    (G, xs, act_s), (H, ys, act_t) = S, T
    if G != H:
        raise ValueError("disjoint union needs a common ambient group")
    points = tuple((0, x) for x in xs) + tuple((1, y) for y in ys)

    def act(g, p):
        side, x = p
        return (side, act_s(g, x) if side == 0 else act_t(g, x))

    return G, points, act


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
    others = [p for p in H.elements if p != Permutation.identity()]
    target = frozenset(H.elements)
    for size in range(len(others) + 1):
        for gens in combinations(others, size):
            if closure_oracle(gens) == target:
                return gens


def mark_defect_oracle(H) -> int:
    """LHS^K - RHS^K of ``verify``'s table at a subgroup K with image H in S4.

    Counted from the definitions: the left side has mark #H-fixed 2-subsets
    of the base points - #H-fixed pairings, the right side [Sigma] - {*}
    has mark #H-fixed points - 1.  Blocks are frozensets, so nothing of
    ``nodal`` is used.
    """
    subsets = [frozenset(s) for s in combinations(range(4), 2)]
    pairings = {frozenset({s, frozenset(range(4)) - s}) for s in subsets}

    def fixed(blocks) -> bool:
        return all({frozenset(map(h, b)) for b in blocks} == blocks for h in H)

    lhs = sum(fixed({s}) for s in subsets) - sum(fixed(p) for p in pairings)
    rhs = sum(all(h(i) == i for h in H) for i in range(4)) - 1
    return lhs - rhs


def has_klein_four(H) -> bool:
    """Whether the group H of permutations has two distinct commuting
    involutions a, b, that is the Klein four-subgroup {1, a, b, ab}."""
    e = Permutation.identity()
    involutions = [h for h in H if h != e and h * h == e]
    return any(a * b == b * a for a, b in combinations(involutions, 2))


def collinear(p, q, r) -> bool:
    """Whether three projective points lie on one line: det(p, q, r) = 0."""
    return det3((p.coords, q.coords, r.coords)).is_zero()


def mat_inverse(M):
    """The inverse of an invertible square matrix, read off ``rref`` of [M | I]."""
    n = len(M)
    reduced, pivots = rref([tuple(row) + e for row, e in zip(M, identity_matrix(n))])
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(row[n:] for row in reduced)


def transform_conic(conic: Conic, P_inv) -> Conic:
    """The image of a conic under x -> P x: A' = P^-T A P^-1, given P^-1.

    A point y = P x lies on A' exactly when x lies on A, since
    y^T A' y = x^T A x.  Off-diagonal entries of A' are half coefficients.
    """
    A = mat_mul(mat_mul(tuple(zip(*P_inv)), conic.sym_matrix()), P_inv)
    return Conic((A[0][0], A[1][1], A[2][2], 2 * A[1][2], 2 * A[0][2], 2 * A[0][1]))


def dot_oracle(u, v):
    """The inner product summed term by term with the field's ``+`` and
    ``*``, starting from ZERO: the fold ``geometry._dot`` must equal."""
    return sum((a * b for a, b in zip(u, v)), ZERO)


def strip_squares_oracle(n: int) -> tuple:
    """n = s^2 * m with the sign on m, trying every divisor 2 <= d < 2^16
    while d^2 <= |n|: the loop ``geometry._strip_squares`` skips the even
    d > 2 of."""
    sign = -1 if n < 0 else 1
    n = abs(n)
    s, m = 1, 1
    d = 2
    while d * d <= n and d < 1 << 16:
        exp = 0
        while n % d == 0:
            n //= d
            exp += 1
        s *= d ** (exp // 2)
        if exp % 2:
            m *= d
        d += 1
    m *= n
    return s, sign * m


def span_equal(rows_a, rows_b) -> bool:
    """Whether two lists of vectors span the same space."""
    return rref(rows_a)[0] == rref(rows_b)[0]


def d8_invariant_structure(a: int, b: int) -> dict:
    """Common invariant subspaces of the D8 action on conic space, for signs a, b.

    Eigen-kernels of sym2 of the two generator matrices are intersected
    for eigenvalue pairs in {1,-1}^2.  The result, for every sign choice:
    a 2-dimensional common eigenspace spanned by z^2 and x^2+y^2, the
    lines x^2-y^2 and xy, and a residual invariant plane span{yz, xz}
    containing no invariant line.  Raises ArithmeticError otherwise.
    """
    G, rep = d8_representation(a, b)
    S_rot = sym2(rep[parse_permutation("(1234)")])
    S_ref = sym2(rep[parse_permutation("(13)")])

    def eigen_rows(S, eigenvalue):
        return [
            tuple(S[i][j] - (qe(eigenvalue) if i == j else ZERO) for j in range(6))
            for i in range(6)
        ]

    intersections = {}
    for lam in (1, -1):
        rows_rot = eigen_rows(S_rot, lam)
        for mu in (1, -1):
            rows = rows_rot + eigen_rows(S_ref, mu)
            intersections[(lam, mu)] = kernel_basis(rows)

    basis = dict(zip(_D8_CONICS, mat(_D8_CONICS.values())))
    checks = (
        span_equal(intersections[(1, 1)], [basis["Z^2"], basis["X^2+Y^2"]]),
        span_equal(intersections[(-1, 1)], [basis["X^2-Y^2"]]),
        span_equal(intersections[(-1, -1)], [basis["XY"]]),
        intersections[(1, -1)] == [],
    )
    if not all(checks):
        raise ArithmeticError("invariant subspace structure is not the expected one")
    plane = [basis["YZ"], basis["XZ"]]
    for S in (S_rot, S_ref):
        if rank(plane + [mat_vec(S, v) for v in plane]) != 2:
            raise ArithmeticError("span{yz, xz} is not invariant")
    return {
        "lines": {name: basis[name] for name in ("Z^2", "X^2+Y^2", "X^2-Y^2", "XY")},
        "plane": tuple(plane),
        "eigenspaces": intersections,
    }

"""The Burnside ring of a finite group, with exact integer arithmetic.

A virtual G-set is a coefficient vector over the canonical conjugacy
classes of subgroups of G.  Fixed-point counts ("marks") are read off a
cached table of marks; equality of elements is coefficient equality, and
the classical criterion (equal marks at every subgroup) is a theorem the
test suite checks rather than the representation itself.  Multiplication
goes through mark space: multiply mark vectors pointwise and invert the
triangular table of marks by integer back-substitution.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Sequence

from .permgroup import (
    PermGroup,
    class_index_of,
    class_labels,
    orbits,
    subgroup_classes,
    subgroup_label,
)

__all__ = [
    "table_of_marks",
    "BurnsideElement",
    "be_equal",
    "decompose",
    "induce",
]


@lru_cache(maxsize=None)
def table_of_marks(G: PermGroup) -> tuple:
    """The rows M[h][k] = #{K_k-fixed cosets in G/H_h}, classes in canonical order.

    Counted as #{g in G : K <= gHg^-1} / |H|.  A coset gH is K-fixed iff
    K <= gHg^-1, and that conjugate depends only on the coset, so each
    fixed coset is counted |H| times.  Each member of H's class is gHg^-1
    for |N_G(H)| = |G| / |class| elements g.  The canonical class order
    (ascending subgroup order) makes the matrix lower-triangular with
    positive diagonal |N_G(H)| / |H|.
    """
    classes = subgroup_classes(G)
    rows = []
    for hcls in classes:
        per_conjugate = G.order // len(hcls.members)
        rows.append(tuple(
            per_conjugate
            * sum(kcls.representative.is_subgroup_of(C) for C in hcls.members)
            // hcls.representative.order
            for kcls in classes
        ))
    return tuple(rows)


def _coeffs_from_marks(G: PermGroup, mark_vec: Sequence[int]) -> tuple:
    """Invert the (lower-triangular) table of marks over the integers."""
    M = table_of_marks(G)
    n = len(mark_vec)
    coeffs = [0] * n
    for k in range(n - 1, -1, -1):
        residue = mark_vec[k] - sum(coeffs[h] * M[h][k] for h in range(k + 1, n))
        diag = M[k][k]
        if residue % diag:
            raise ArithmeticError(
                "mark vector is not integral against the table of marks"
            )
        coeffs[k] = residue // diag
    return tuple(coeffs)


def _signed_sum(terms: Sequence[str]) -> str:
    """Signed terms as one sum: a term's leading "-" becomes the operator
    before it, so "a", "-b" read "a - b"; "0" when there are none."""
    if not terms:
        return "0"
    return terms[0] + "".join(
        f" - {term[1:]}" if term.startswith("-") else f" + {term}" for term in terms[1:]
    )


class BurnsideElement:
    """A virtual G-set: integer coefficient per [G/H_i], H_i a subgroup class."""

    __slots__ = ("ambient", "coeffs")

    def __init__(self, ambient: PermGroup, coeffs: tuple) -> None:
        expected = len(subgroup_classes(ambient))
        if len(coeffs) != expected:
            raise ValueError(
                f"coefficient vector has length {len(coeffs)}, expected {expected}"
            )
        self.ambient = ambient
        self.coeffs = coeffs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BurnsideElement):
            return NotImplemented
        return self.coeffs == other.coeffs and self.ambient == other.ambient

    def __hash__(self) -> int:
        return hash((self.ambient, self.coeffs))

    def __repr__(self) -> str:
        return f"BurnsideElement(ambient={self.ambient!r}, coeffs={self.coeffs!r})"

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, G: PermGroup) -> "BurnsideElement":
        return cls(G, (0,) * len(subgroup_classes(G)))

    @classmethod
    def from_class(cls, G: PermGroup, index: int) -> "BurnsideElement":
        coeffs = [0] * len(subgroup_classes(G))
        coeffs[index] = 1
        return cls(G, tuple(coeffs))

    @classmethod
    def from_subgroup(cls, G: PermGroup, H: PermGroup) -> "BurnsideElement":
        """[G/H]."""
        return cls.from_class(G, class_index_of(G, H))

    @classmethod
    def point(cls, G: PermGroup) -> "BurnsideElement":
        """The one-point G-set [G/G]."""
        return cls.from_subgroup(G, G)

    # -- ring structure -----------------------------------------------

    def _check_ambient(self, other: "BurnsideElement") -> None:
        if self.ambient != other.ambient:
            raise ValueError("Burnside elements live over different ambient groups")

    def __add__(self, other: "BurnsideElement") -> "BurnsideElement":
        if not isinstance(other, BurnsideElement):
            return NotImplemented
        self._check_ambient(other)
        return BurnsideElement(
            self.ambient, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "BurnsideElement") -> "BurnsideElement":
        if not isinstance(other, BurnsideElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "BurnsideElement":
        return BurnsideElement(self.ambient, tuple(-a for a in self.coeffs))

    def __rmul__(self, n: int) -> "BurnsideElement":
        if not isinstance(n, int):
            return NotImplemented
        return BurnsideElement(self.ambient, tuple(n * a for a in self.coeffs))

    def __mul__(self, other):
        """Cartesian product: pointwise product of marks, pulled back to coefficients."""
        if isinstance(other, int):
            return self.__rmul__(other)
        if not isinstance(other, BurnsideElement):
            return NotImplemented
        self._check_ambient(other)
        marks = tuple(
            a * b for a, b in zip(self.mark_vector(), other.mark_vector())
        )
        return BurnsideElement(self.ambient, _coeffs_from_marks(self.ambient, marks))

    # -- marks ----------------------------------------------------------

    def mark(self, k: int) -> int:
        """Fixed-point count at the subgroup class of index k."""
        return self.mark_vector()[k]

    def mark_vector(self) -> tuple:
        M = table_of_marks(self.ambient)
        n = len(self.coeffs)
        return tuple(
            sum(self.coeffs[h] * M[h][k] for h in range(n)) for k in range(n)
        )

    # -- presentation ---------------------------------------------------

    def render(self) -> str:
        labels = class_labels(self.ambient)
        return _signed_sum(
            [f"{c}*[G/{labels[i]}]" for i, c in enumerate(self.coeffs) if c]
        )

    def to_json(self) -> dict:
        labels = class_labels(self.ambient)
        return {
            "ambient": subgroup_label(self.ambient),
            "coeffs": [
                {"class": labels[i], "n": c}
                for i, c in enumerate(self.coeffs)
                if c != 0
            ],
        }


def be_equal(x: BurnsideElement, y: BurnsideElement):
    """Equality via the fixed-point criterion, with witnesses on failure.

    Returns (equal, witnesses, table): table lists (class_index, mark_x,
    mark_y) for every subgroup class, and witnesses the rows at which the
    marks disagree.  Each mark vector is read once.
    """
    x._check_ambient(y)
    marks = zip(x.mark_vector(), y.mark_vector())
    table = tuple((k, a, b) for k, (a, b) in enumerate(marks))
    witnesses = tuple(row for row in table if row[1] != row[2])
    return (not witnesses), witnesses, table


def decompose(G: PermGroup, points: tuple, act: Callable) -> BurnsideElement:
    """Write a genuine G-set as a sum of orbit classes sum n_i [G/H_i].

    ``orbits`` checks the axioms on each orbit over the generator edges,
    which suffices, raising InvalidActionError on a failure.  The trivial
    group has none, and needs only the distinct-points and identity checks.
    """
    coeffs = [0] * len(subgroup_classes(G))
    for _, stab in orbits(G, act, points, G.generators):
        coeffs[class_index_of(G, stab)] += 1
    return BurnsideElement(G, tuple(coeffs))


def induce(G: PermGroup, H: PermGroup, x: BurnsideElement) -> BurnsideElement:
    """Induction Ind_H^G along H <= G: G x_H (H/K) = G/K, so the coefficient
    of [H/K] moves to [G/K].  Linear in x, so virtual elements induce term by
    term.  Inflation is another map, the pull-back along a quotient G -> G/N.
    """
    if x.ambient != H:
        raise ValueError("element to induce must live over the given subgroup")
    if not H.is_subgroup_of(G):
        raise ValueError("induction requires H to be a subgroup of G")
    coeffs = [0] * len(subgroup_classes(G))
    for hcls in subgroup_classes(H):
        n = x.coeffs[hcls.class_index]
        if n == 0:
            continue
        coeffs[class_index_of(G, hcls.representative)] += n
    return BurnsideElement(G, tuple(coeffs))

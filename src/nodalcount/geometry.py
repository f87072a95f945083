"""Exact projective geometry over Q and quadratic extensions Q(sqrt(m)).

Numbers are a + b*sqrt(m) with rational a, b and a fixed integer
radicand m that is not a perfect square (possibly negative); pure
rationals carry no radicand.
Arithmetic never leaves the field silently: combining incompatible
radicands raises, and square roots either stay in the working field,
adjoin the one allowed radical, or fail loudly.  On top of that sit
points of P^2, conics in the monomial basis (x^2, y^2, z^2, yz, xz, xy),
pencils, degenerate-member factorization and base loci.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

from .burnside import _signed_sum
from .nodal import SigmaConfig
from .permgroup import Permutation, PermGroup, _hom_from_generators, parse_permutation

__all__ = [
    "QuadExt",
    "qe",
    "field_sqrt",
    "FieldExtensionError",
    "NotGeneral",
    "IrrationalNodalParameter",
    "ProjPoint",
    "Conic",
    "conic_to_string",
    "line_to_string",
    "sym2",
    "mat_mul",
    "mat_vec",
    "apply_matrix",
    "pencil_invariant",
    "nodal_members",
    "factor_degenerate",
    "base_locus",
    "pencil_through",
    "induced_sigma",
    "PencilCase",
    "PencilAnalysis",
    "analyze_pencil",
    "d8_representation",
    "d8_case_suite",
    "klein_representation",
    "klein_counterexample",
]


class FieldExtensionError(ArithmeticError):
    """A computation needs a second independent square root; out of scope."""


class NotGeneral(ValueError):
    """The two conics are not in general position; .reason says why."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class IrrationalNodalParameter(ValueError):
    """The determinant cubic does not split over the rationals."""


class QuadExt:
    """An element a + b*sqrt(radicand) of Q or of one quadratic extension.

    The radicand is any integer that is not a perfect square.  It need not
    be squarefree, so checking it takes one isqrt, not a factorization.
    The constructor is where a number enters: it coerces both parts to
    Fraction and checks the radicand.  Field operations build their results
    with ``_trusted``, so a result inherits the radicand its operands carry
    and is not checked again.  A sum or product of two rationals is one
    Fraction operation, with a zero radical part and no radicand.  An inner
    product of vectors over one radicand is not a chain of these: ``_dot``
    sums each part over one common denominator and builds one Fraction per
    part and one result.
    """

    __slots__ = ("a", "b", "radicand")

    def __init__(self, a, b=0, radicand: int | None = None):
        a = Fraction(a)
        b = Fraction(b)
        if b == 0:
            radicand = None
        elif radicand is None:
            raise ValueError("a radical part needs a radicand")
        else:
            if _rational_sqrt(radicand) is not None:
                raise ValueError(f"radicand {radicand} is a perfect square")
        self.a = a
        self.b = b
        self.radicand = radicand

    # -- coercion -------------------------------------------------------

    @staticmethod
    def _lift(value) -> "QuadExt | None":
        if isinstance(value, QuadExt):
            return value
        if isinstance(value, (int, Fraction)):
            return QuadExt(value)
        return None

    def _join(self, other: "QuadExt") -> int | None:
        if self.radicand is None:
            return other.radicand
        if other.radicand is None or other.radicand == self.radicand:
            return self.radicand
        raise FieldExtensionError(
            f"cannot mix sqrt({self.radicand}) with sqrt({other.radicand})"
        )

    # -- field operations -------------------------------------------------

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        if self.radicand is None and other.radicand is None:
            return _trusted(self.a + other.a, _FRACTION_ZERO, None)
        m = self._join(other)
        return _trusted(self.a + other.a, self.b + other.b, m)

    __radd__ = __add__

    def __neg__(self):
        return _trusted(-self.a, -self.b, self.radicand)

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        if self.radicand is None and other.radicand is None:
            return _trusted(self.a * other.a, _FRACTION_ZERO, None)
        m = self._join(other)
        return _trusted(
            self.a * other.a + self.b * other.b * m,
            self.a * other.b + self.b * other.a,
            m,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        if self.is_zero():
            raise ZeroDivisionError("division by zero in the working field")
        if self.radicand is None:
            return _trusted(1 / self.a, self.b, None)  # b is 0 here
        norm = self.a * self.a - self.b * self.b * self.radicand
        # Non-square radicand: the norm of a nonzero element is nonzero.
        return _trusted(self.a / norm, -self.b / norm, self.radicand)

    def __truediv__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return other / self

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_rational(self) -> bool:
        return self.b == 0

    def _value_key(self) -> tuple:
        """a, the sign of b and b*b*radicand: one key for every radicand
        the same number can be written over, such as sqrt(8) and 2*sqrt(2)."""
        return self.a, self.b > 0, self.b * self.b * (self.radicand or 0)

    def __eq__(self, other) -> bool:
        other = self._lift(other)
        if other is None:
            return NotImplemented
        if self.radicand == other.radicand:
            return self.a == other.a and self.b == other.b
        return self._value_key() == other._value_key()

    def __hash__(self) -> int:
        # A rational hashes as the int or Fraction it equals.
        return hash(self.a) if self.b == 0 else hash(self._value_key())

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        if self.b == 1:
            radical = f"sqrt({self.radicand})"
        elif self.b == -1:
            radical = f"-sqrt({self.radicand})"
        else:
            radical = f"{self.b}*sqrt({self.radicand})"
        if self.a == 0:
            return radical
        sign = "+" if not radical.startswith("-") else ""
        return f"{self.a}{sign}{radical}"

    def __repr__(self) -> str:
        return f"QuadExt({self})"


# The radical part of every rational result of + and *.
_FRACTION_ZERO = Fraction(0)


def _trusted(a: Fraction, b: Fraction, radicand: int | None) -> QuadExt:
    """a + b*sqrt(radicand) from Fraction parts and a radicand already
    checked, unchecked.  A zero b drops the radicand: ``__eq__`` and
    ``__hash__`` rely on radicand being None exactly when b == 0."""
    x = object.__new__(QuadExt)
    x.a = a
    x.b = b
    x.radicand = radicand if b else None
    return x


ZERO = QuadExt(0)
ONE = QuadExt(1)


def qe(value) -> QuadExt:
    """Coerce an int/Fraction/QuadExt into the number type."""
    lifted = QuadExt._lift(value)
    if lifted is None:
        raise TypeError(f"cannot interpret {value!r} as a field element")
    return lifted


def field_sqrt(x: QuadExt) -> QuadExt:
    """Exact square root, extending Q by at most one radicand.

    For rational x: a rational square root if one exists, otherwise the
    result lives in Q(sqrt(m)), m the numerator times the denominator with
    small square factors moved out, for display only (``_strip_squares``).
    For x already in Q(sqrt(m)): the root is found inside the same field
    or FieldExtensionError is raised (a tower would be needed).
    """
    x = qe(x)
    if x.is_zero():
        return QuadExt(0)
    if x.is_rational():
        root = _rational_sqrt(x.a)
        if root is not None:
            return QuadExt(root)
        s, m = _strip_squares(x.a.numerator * x.a.denominator)
        return QuadExt(0, Fraction(s, x.a.denominator), m)
    # Solve (u + v sqrt(m))^2 = a + b sqrt(m): u^2 + m v^2 = a, 2uv = b.
    m = x.radicand
    disc = x.a * x.a - m * x.b * x.b
    droot = _rational_sqrt(disc)
    if droot is not None:
        for candidate in (x.a + droot, x.a - droot):
            usq = candidate / 2
            u = _rational_sqrt(usq)
            if u is not None and u != 0:
                v = x.b / (2 * u)
                return QuadExt(u, v, m)
    raise FieldExtensionError(
        f"sqrt of {x} is not expressible in Q(sqrt({m}))"
    )


def _strip_squares(n: int):
    """n = s^2 * m, returns (s, m) with the sign kept on m.  Only squares of
    primes below 2^16 are moved into s, so m is squarefree when |n| < 2^32
    and may keep a large square factor above that.

    One loop of trial division, over runs of candidate divisors, each with
    a product: a d of the run's product divides n exactly when it divides
    r = n mod product, so a run costs one remainder of n.  A composite d
    never divides n by the time the loop reaches it, since its prime
    factors went first, so ``_prime_runs`` of 2^32 or more gives the same
    (s, m) as every d.  A smaller n takes ``_SMALL_RUNS``, 2 and the odd d
    with product 1, so r = 0 and each d is tried on n itself: the prime
    table costs a fresh interpreter 3-4 ms, more than any such n costs,
    and the pencils' radicands all fall here.
    """
    sign = -1 if n < 0 else 1
    n = abs(n)
    s, m = 1, 1
    for product, divisors in _prime_runs() if n >> 32 else _SMALL_RUNS:
        if divisors[0] * divisors[0] > n:
            break  # n is 1 or a prime
        r = n % product
        for d in divisors:
            if d * d > n:
                break
            if r % d:
                continue
            exp = 0
            while n % d == 0:
                n //= d
                exp += 1
            s *= d ** (exp // 2)
            if exp % 2:
                m *= d
    m *= n
    return s, sign * m


# Once 2 is divided out, no even d divides.
_SMALL_RUNS = ((1, (2,)), (1, range(3, 1 << 16, 2)))


@lru_cache(maxsize=None)
def _prime_runs() -> tuple:
    """The primes below 2^16 in ascending runs, each with its product, which
    stays below 2^1024; built on first need.  The remainder r of n by a run's
    product is short, and p divides n exactly when it divides r.  Runs of
    about 70 primes beat word-sized ones: for a 28,000-bit n, a remainder
    by a 1024-bit product costs about four times one by a word and covers
    over ten times as many primes, and a 1024-bit r is still cheap to
    divide by each prime."""
    bound = 1 << 16
    sieve = bytearray([1]) * bound
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(bound) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, bound, i)))
    runs, run, product = [], [], 1
    for p in itertools.compress(range(bound), sieve):
        if (product * p) >> 1024:
            runs.append((product, tuple(run)))
            run, product = [], 1
        run.append(p)
        product *= p
    runs.append((product, tuple(run)))
    return tuple(runs)


def _rational_sqrt(q: Fraction | int):
    """The non-negative square root of q, or None: in lowest terms, q is a
    rational square exactly when its numerator and denominator are squares."""
    if q < 0:
        return None
    num, den = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if num * num == q.numerator and den * den == q.denominator:
        return Fraction(num, den)
    return None


# ---------------------------------------------------------------------------
# Vectors, matrices, Gaussian elimination
# ---------------------------------------------------------------------------

Vec = tuple
Matrix = tuple


def mat(rows) -> Matrix:
    return tuple(tuple(qe(v) for v in row) for row in rows)


def identity_matrix(n: int) -> Matrix:
    return tuple(
        tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)
    )


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    """The product AB, over QuadExt or plain int entries alike."""
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0])))
        for i in range(len(A))
    )


def _dot(u: Vec, v: Vec) -> QuadExt:
    """The inner product of two sequences, as ``_fold_dot`` gives it, with
    one Fraction per part and one QuadExt.

    Operands are lifted as ``*`` lifts them.  Over one radicand m, the term
    (a1 + b1 sqrt(m))(a2 + b2 sqrt(m)) adds a1 a2 + m b1 b2 to the rational
    part and a1 b2 + b1 a2 to the radical part; each product of two
    Fractions is kept as an unreduced integer pair, and each part is summed
    over the lcm of its denominators (``_sum_over_lcm``).  Operands that
    carry two different radicands, or one that is not a number, go to the
    fold, which raises or cancels exactly as the field operations do.
    """
    m = None
    nums, dens, radical_nums, radical_dens = [], [], [], []
    for x, y in zip(u, v):
        if type(x) is not QuadExt:
            x = QuadExt._lift(x)
        if type(y) is not QuadExt:
            y = QuadExt._lift(y)
        if x is None or y is None:
            return _fold_dot(u, v)
        xa, ya = x.a, y.a
        nums.append(xa.numerator * ya.numerator)
        dens.append(xa.denominator * ya.denominator)
        mx, my = x.radicand, y.radicand  # None exactly when b == 0
        if mx is None and my is None:
            continue
        if m is None:
            m = mx or my
        if mx not in (None, m) or my not in (None, m):
            return _fold_dot(u, v)
        xb, yb = x.b, y.b
        if my is not None:
            radical_nums.append(xa.numerator * yb.numerator)
            radical_dens.append(xa.denominator * yb.denominator)
            if mx is not None:
                nums.append(m * xb.numerator * yb.numerator)
                dens.append(xb.denominator * yb.denominator)
        if mx is not None:
            radical_nums.append(xb.numerator * ya.numerator)
            radical_dens.append(xb.denominator * ya.denominator)
    b = _sum_over_lcm(radical_nums, radical_dens) if radical_nums else _FRACTION_ZERO
    return _trusted(_sum_over_lcm(nums, dens), b, m)


def _sum_over_lcm(nums: list, dens: list) -> Fraction:
    """The sum of the fractions nums[i]/dens[i], reduced once."""
    den = math.lcm(*dens)
    if den == 1:
        return Fraction(sum(nums))
    return Fraction(sum([n * (den // d) for n, d in zip(nums, dens)]), den)


def _fold_dot(u: Vec, v: Vec) -> QuadExt:
    """The inner product as a sum of the field's own products, for operands
    ``_dot`` does not take; ``tests/oracles.dot_oracle`` is a copy of it,
    kept as the reference, so a change here asks for a look there."""
    return sum((a * b for a, b in zip(u, v)), ZERO)


def mat_vec(A: Matrix, v: Vec) -> Vec:
    return tuple(_dot(row, v) for row in A)


def scale_vec(c: QuadExt, v: Vec) -> Vec:
    return tuple(c * x for x in v)


def add_vec(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def cross(u: Vec, v: Vec) -> Vec:
    """Cross product; as lines, the point they share, and vice versa."""
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def det3(A: Matrix) -> QuadExt:
    return _dot(A[0], cross(A[1], A[2]))


def rref(rows: Sequence[Vec]):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    matrix = [list(row) for row in rows]
    nrows = len(matrix)
    ncols = len(matrix[0]) if matrix else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if not matrix[i][c].is_zero()), None)
        if pivot_row is None:
            continue
        matrix[r], matrix[pivot_row] = matrix[pivot_row], matrix[r]
        inv = matrix[r][c].inverse()
        matrix[r] = [x * inv for x in matrix[r]]
        for i in range(nrows):
            if i != r and not matrix[i][c].is_zero():
                factor = matrix[i][c]
                matrix[i] = [
                    x - factor * y for x, y in zip(matrix[i], matrix[r])
                ]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return [tuple(row) for row in matrix[:r]], pivots


def rank(rows: Sequence[Vec]) -> int:
    return len(rref(rows)[0])


def kernel_basis(rows: Sequence[Vec]):
    """Basis of the right kernel of a matrix with at least one row, from
    the reduced echelon form."""
    reduced, pivots = rref(rows)
    width = len(rows[0])
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * width
        v[f] = ONE
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][f]
        basis.append(tuple(v))
    return basis


# ---------------------------------------------------------------------------
# Projective points and conics
# ---------------------------------------------------------------------------


class ProjPoint:
    """A point of P^2, stored in canonical form (first nonzero coordinate 1)."""

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable) -> None:
        cs = [qe(c) for c in coords]
        if len(cs) != 3:
            raise ValueError("a projective point has three coordinates")
        lead = next((c for c in cs if not c.is_zero()), None)
        if lead is None:
            raise ValueError("(0:0:0) is not a projective point")
        inv = lead.inverse()
        self.coords = tuple(c * inv for c in cs)

    def __eq__(self, other) -> bool:
        return isinstance(other, ProjPoint) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __str__(self) -> str:
        return "[" + ":".join(str(c) for c in self.coords) + "]"

    def __repr__(self) -> str:
        return f"ProjPoint({self})"


def apply_matrix(M: Matrix, p: ProjPoint) -> ProjPoint:
    if det3(M).is_zero():
        raise ValueError("projective transformations must be invertible")
    return ProjPoint(mat_vec(M, p.coords))


MONOMIALS = ("X^2", "Y^2", "Z^2", "YZ", "XZ", "XY")


def _monomial_row(p: ProjPoint) -> Vec:
    x, y, z = p.coords
    return (x * x, y * y, z * z, y * z, x * z, x * y)


class Conic:
    """A plane conic as six coefficients over (x^2, y^2, z^2, yz, xz, xy)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable) -> None:
        cs = tuple(qe(c) for c in coeffs)
        if len(cs) != 6:
            raise ValueError("a conic has six coefficients")
        if all(c.is_zero() for c in cs):
            raise ValueError("the zero polynomial is not a conic")
        self.coeffs = cs

    def __call__(self, p: ProjPoint) -> QuadExt:
        return _dot(self.coeffs, _monomial_row(p))

    def sym_matrix(self) -> Matrix:
        """Symmetric matrix; an off-diagonal entry is half the paired coefficient."""
        a, b, c, yz, xz, xy = self.coeffs
        half = Fraction(1, 2)
        return (
            (a, xy * half, xz * half),
            (xy * half, b, yz * half),
            (xz * half, yz * half, c),
        )

    def is_proportional(self, other: "Conic") -> bool:
        return rank([self.coeffs, other.coeffs]) == 1

    def __repr__(self) -> str:
        return f"Conic({conic_to_string(self)})"


def _product_column(u: Vec, v: Vec) -> Vec:
    """Coefficients of the product of two linear forms in the monomial basis."""
    return (
        u[0] * v[0],
        u[1] * v[1],
        u[2] * v[2],
        u[1] * v[2] + u[2] * v[1],
        u[0] * v[2] + u[2] * v[0],
        u[0] * v[1] + u[1] * v[0],
    )


def conic_from_lines(l1: Vec, l2: Vec) -> Conic:
    """The degenerate conic l1 * l2 expanded into monomial coefficients."""
    return Conic(_product_column(l1, l2))


def _coeff_str(c: QuadExt) -> str:
    """An integer stands bare; a fraction or a radical is parenthesized."""
    return str(c) if c.is_rational() and c.a.denominator == 1 else f"({c})"


def _form_to_string(coeffs: Vec, names: Sequence[str]) -> str:
    """A nonzero form as signed terms "c*name", unit coefficients elided."""
    parts = []
    for c, name in zip(coeffs, names):
        if c.is_zero():
            continue
        if c == ONE:
            term = name
        elif c == QuadExt(-1):
            term = f"-{name}"
        else:
            term = f"{_coeff_str(c)}*{name}"
        parts.append(term)
    return _signed_sum(parts)


def conic_to_string(conic: Conic) -> str:
    return _form_to_string(conic.coeffs, MONOMIALS)


def line_to_string(line: Vec) -> str:
    return _form_to_string(line, ("X", "Y", "Z"))


# ---------------------------------------------------------------------------
# Symmetric square of a 3x3 matrix
# ---------------------------------------------------------------------------


def sym2(M: Matrix) -> Matrix:
    """The induced 6x6 matrix on the monomial basis (x^2, y^2, z^2, yz, xz, xy).

    Columns are images of basis monomials; the construction makes
    sym2(M @ N) == sym2(M) @ sym2(N) automatic.
    """
    if det3(M).is_zero():
        raise ValueError("sym2 expects an invertible matrix")
    cols = tuple(zip(*M))
    pairs = [(0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1)]
    return tuple(zip(*(_product_column(cols[i], cols[j]) for i, j in pairs)))


# ---------------------------------------------------------------------------
# Pencils: invariance, degenerate members, base locus
# ---------------------------------------------------------------------------


def pencil_invariant(rep: Mapping[Permutation, Matrix], f: Conic, g: Conic) -> bool:
    """Does the group carry the coefficient span of {f, g} into itself?

    ``rep`` maps group elements to point matrices, and every matrix in it
    is checked.  The images of the generators alone suffice, since a span
    that every generator carries into itself is carried into itself by
    every word in the generators; a full table costs one check per element.

    A point matrix M turns a conic q(x) into q(M^-1 x).  The inverse of
    that map on conic space is q(x) -> q(M x), which is sym2(M^T), so no
    matrix is inverted: an invertible map carries a subspace into itself
    exactly when its inverse does.
    """
    if not rep:
        raise ValueError("no matrices to check invariance under")
    span = [f.coeffs, g.coeffs]
    if rank(span) != 2:
        raise ValueError("f and g do not span a pencil")
    for M in rep.values():
        S = sym2(tuple(zip(*M)))
        if rank(span + [mat_vec(S, v) for v in span]) != 2:
            return False
    return True


def _det_cubic(f: Conic, g: Conic):
    """Coefficients [c0..c3] of det(A + x B) for the symmetric matrices of f, g.

    c0 = det A and c3 = det B; the values at x = 1 and x = -1 give
    c0 + c2 and c1 + c3 as their half sum and half difference.
    """
    A = f.sym_matrix()
    B = g.sym_matrix()
    c0, c3 = det3(A), det3(B)
    plus, minus = (
        det3(tuple(add_vec(a, scale_vec(x, b)) for a, b in zip(A, B)))
        for x in (ONE, -ONE)
    )
    return [c0, (plus - minus) / 2 - c3, (plus + minus) / 2 - c0, c3]


def _rational_roots(coeffs) -> list:
    """Rational roots, with multiplicity, of an integer polynomial of degree <= 3.

    A nonzero p of degree n becomes the monic integer polynomial
    lead^(n-1)*p(y/lead) (``monic`` holds its coefficients below the
    leading 1), whose rational roots y are integers, and x = y/lead.  A
    cubic has a real root inside the Cauchy bound B = 1 + max|coefficient|;
    integer bisection on [-B, B] either lands on it or traps it between two
    consecutive integers, which proves it irrational.  The quadratic left
    after dividing out an integer root splits when ``_rational_sqrt``
    finds its discriminant a square.  Raises
    IrrationalNodalParameter if any root is irrational.
    """
    poly = list(coeffs)
    while poly[-1] == 0:
        poly.pop()
    n, lead = len(poly) - 1, poly[-1]
    monic = [c * lead ** (n - 1 - i) for i, c in enumerate(poly[:-1])]
    ys = []
    if n == 3:
        c0, c1, c2 = monic
        lo = -1 - max(map(abs, monic))
        hi = -lo
        while hi - lo > 1:
            y = (lo + hi) // 2
            value = ((y + c2) * y + c1) * y + c0
            if value == 0:
                break
            lo, hi = (y, hi) if value < 0 else (lo, y)
        else:
            raise IrrationalNodalParameter("determinant cubic has an irrational root")
        ys.append(y)
        monic = [c1 + y * (c2 + y), c2 + y]
    if len(monic) == 2:
        c0, c1 = monic
        root = _rational_sqrt(c1 * c1 - 4 * c0)
        if root is None:
            raise IrrationalNodalParameter("determinant cubic has an irrational root")
        ys += [(-c1 - root) // 2, (-c1 + root) // 2]
    elif monic:
        ys.append(-monic[0])
    return [Fraction(y, lead) for y in ys]


def nodal_members(f: Conic, g: Conic) -> list:
    """The degenerate members of the pencil {mu f + lambda g}.

    Solves det(mu A + lambda B) = 0 exactly: the dehomogenized cubic,
    scaled to integers, goes to ``_rational_roots`` (integer bisection and
    isqrt).  Returns [(mu, lambda), member] pairs with the affine roots in
    ascending order and [0:1] last.  Raises NotGeneral ("common
    component") if the cubic vanishes identically (every member singular)
    and IrrationalNodalParameter if the cubic does not split over Q.
    """
    cubic = _det_cubic(f, g)
    if not all(c.is_rational() for c in cubic):
        raise IrrationalNodalParameter(
            "determinant cubic has coefficients outside Q"
        )
    rational = [c.a for c in cubic]
    if all(c == 0 for c in rational):
        raise NotGeneral("common component")
    denominator = math.lcm(*(c.denominator for c in rational))
    ints = [int(c * denominator) for c in rational]
    members = []
    for lam in sorted(set(_rational_roots(ints))):
        scale = QuadExt(lam)
        coeffs = tuple(cf + scale * cg for cf, cg in zip(f.coeffs, g.coeffs))
        members.append(((Fraction(1), lam), Conic(coeffs)))
    if ints[3] == 0:
        members.append(((Fraction(0), Fraction(1)), Conic(g.coeffs)))
    return members


def factor_degenerate(c: Conic) -> tuple:
    """Split a singular conic into two lines; a double line comes back twice.

    Rank 2 conics factor over the working field or one quadratic
    extension of it; the product of the returned lines reproduces the
    conic up to a scalar (checked).  Rank 3 input is rejected.
    """
    M = c.sym_matrix()
    kernel = kernel_basis(M)
    if not kernel:
        raise ValueError("conic is not degenerate")
    if len(kernel) == 2:  # rank 1
        row = next(row for row in M if any(not x.is_zero() for x in row))
        lines = row, row
    else:
        # rank 2: split on a line x_k = 0 that misses the singular point p,
        # that is, one with p_k nonzero.
        p = kernel[0]
        k = next(k for k in (2, 1, 0) if not p[k].is_zero())
        q1, q2 = _split_on_line(M, identity_matrix(3)[k])
        lines = cross(q1, p), cross(q2, p)
    if not conic_from_lines(*lines).is_proportional(c):
        raise ArithmeticError(f"rank-{3 - len(kernel)} factorization failed")
    return lines


def _split_on_line(M: Matrix, line: Vec) -> tuple:
    """The two zeros of the quadratic form M on a line, adjoining at most one radical.

    The restriction at s*u + t*v, u and v the line's kernel basis, is
    alpha s^2 + beta s t + gamma t^2, read off M u and M v.  Raises
    NotGeneral when it vanishes ("common component") or has a double
    zero ("repeated base point").
    """
    u, v = kernel_basis([line])
    Mu, Mv = mat_vec(M, u), mat_vec(M, v)
    alpha, beta, gamma = _dot(u, Mu), 2 * _dot(u, Mv), _dot(v, Mv)
    if alpha.is_zero() and beta.is_zero() and gamma.is_zero():
        raise NotGeneral("common component")
    if alpha.is_zero() and gamma.is_zero():
        return u, v
    if alpha.is_zero():
        if beta.is_zero():
            raise NotGeneral("repeated base point")
        # gamma t^2 + beta s t = t (beta s + gamma t)
        return u, add_vec(scale_vec(-gamma, u), scale_vec(beta, v))
    disc = beta * beta - 4 * alpha * gamma
    if disc.is_zero():
        raise NotGeneral("repeated base point")
    droot = field_sqrt(disc)
    r1 = (-beta + droot) / (2 * alpha)
    r2 = (-beta - droot) / (2 * alpha)
    return add_vec(scale_vec(r1, u), v), add_vec(scale_vec(r2, u), v)


def base_locus(f: Conic, g: Conic, t: tuple, lines: tuple) -> list:
    """The four base points of a general pencil, exactly.

    ``t`` = (mu, lambda) names a degenerate member mu*f + lambda*g and
    ``lines`` is its factorization (from ``factor_degenerate``); each line
    is split on a member independent of it (``_split_on_line``).  Raises
    NotGeneral ("common component" or "repeated base point") when the
    pencil is not general.  Four distinct points have no three collinear:
    of any three, two share a line, and the third on it would be a third
    zero of M there.
    """
    if lines[0] == lines[1]:
        raise NotGeneral("repeated base point")
    M = (g if t[1] == 0 else f).sym_matrix()
    points = [ProjPoint(q) for line in lines for q in _split_on_line(M, line)]
    if len(set(points)) != 4:
        raise NotGeneral("repeated base point")
    for p in points:
        if not f(p).is_zero() or not g(p).is_zero():
            raise ArithmeticError("base point fails to satisfy the pencil exactly")
    return points


def pencil_through(points: Sequence[ProjPoint]) -> tuple:
    """The pencil of conics through four points in general position."""
    if len(points) != 4:
        raise ValueError("a pencil is determined by four base points")
    rows = [_monomial_row(p) for p in points]
    basis = kernel_basis(rows)
    if len(basis) != 2:
        raise NotGeneral("three collinear")
    return Conic(basis[0]), Conic(basis[1])


# ---------------------------------------------------------------------------
# Group actions on P^2 and the counterexample machinery
# ---------------------------------------------------------------------------


def induced_sigma(
    rep: Mapping[Permutation, Matrix], base: Sequence[ProjPoint], G: PermGroup
) -> SigmaConfig:
    """Read off the permutation of the base points induced by the matrices.

    Only the generators' matrices are applied (``rep[identity]`` for the
    trivial group), and ``_hom_from_generators``' walk extends their
    permutations to G; this needs ``rep`` to be a homomorphism on G, which
    that walk proves for every representation the package builds.  With
    ``base`` from ``base_locus`` (four distinct points, no three collinear,
    each on f and g), span{f, g} is the set of conics through them, which
    matrices that permute them carry onto itself: this proves the pencil
    invariant.  A generator that moves a base point off the locus raises
    ValueError.
    """
    base = list(base)
    if len(base) != 4:
        raise ValueError("expected a base locus of four points")
    identity = Permutation.identity()
    images = {}
    for s in G.generators or (identity,):
        # No invertibility check: a singular matrix maps the plane into a
        # line, so it cannot permute four points with no three collinear,
        # and it fails here as a ValueError, at a (0:0:0) image or in a
        # Permutation that is not a bijection.  Only a caller-made base of
        # four collinear points could let one pass.
        targets = [ProjPoint(mat_vec(rep[s], p.coords)) for p in base]
        for p, q in zip(base, targets):
            if q not in base:
                raise ValueError(f"{s} does not preserve the base locus: {p} -> {q}")
        images[s] = Permutation(map(base.index, targets))
    _, point_action = _hom_from_generators(images, Permutation.__mul__, identity)
    return SigmaConfig.from_action(G, point_action)


class PencilCase(NamedTuple):
    """A named invariant pencil: the two spanning conics plus the acting group."""

    label: str
    group: PermGroup
    rep: Mapping[Permutation, Matrix]
    f: Conic
    g: Conic


class PencilAnalysis(NamedTuple):
    """Derived data of a general PencilCase."""

    members: tuple  # ((mu, lambda), Conic) triples of degenerate members
    lines: tuple  # per member: the two factor lines
    base: tuple  # four ProjPoints
    sigma: SigmaConfig


def analyze_pencil(case: PencilCase) -> PencilAnalysis:
    """Degenerate members, their lines, the base locus and the induced 4-point G-set.

    This is the one runtime proof that the pencil is G-invariant:
    ``base_locus`` proves four distinct base points, no three collinear,
    each on f and g, so span{f, g} is exactly the set of conics through
    them, and ``induced_sigma`` proves that the generators, so all of G, permute them.
    A general pencil that is not invariant fails there with ValueError.
    Raises NotGeneral / IrrationalNodalParameter for pencils outside the
    general-position regime.  The cubic is solved and each member
    factored once; the first member's lines also give the base locus.
    """
    members = nodal_members(case.f, case.g)
    (t, first), rest = members[0], members[1:]
    lines = [factor_degenerate(first)]
    base = base_locus(case.f, case.g, t, lines[0])
    # No member is a double line: it would put all four base points on
    # one line, and base_locus has proved that no three are collinear.
    for _, member in rest:
        lines.append(factor_degenerate(member))
    sigma = induced_sigma(case.rep, base, case.group)
    return PencilAnalysis(tuple(members), tuple(lines), tuple(base), sigma)


def _representation(generators: Mapping[str, list]) -> tuple:
    """(G, rep) from each generator's cycles and integer matrix rows: the walk
    multiplies integer matrices, then each result is coerced once with ``mat``."""
    images = {parse_permutation(cycle): rows for cycle, rows in generators.items()}
    G, table = _hom_from_generators(images, mat_mul, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    return G, MappingProxyType({g: mat(M) for g, M in table.items()})


# -- dihedral group of order 8 on P^2 ---------------------------------------


# The D8-invariant conics the nine dihedral pencils are spanned from, built
# at import on coefficients of (x^2, y^2, z^2, yz, xz, xy).  A Conic is never
# changed after construction, so every PencilCase shares them.
_D8_CONICS = {
    "YZ": Conic((0, 0, 0, 1, 0, 0)),
    "XZ": Conic((0, 0, 0, 0, 1, 0)),
    "Z^2": Conic((0, 0, 1, 0, 0, 0)),
    "X^2+Y^2": Conic((1, 1, 0, 0, 0, 0)),
    "X^2-Y^2": Conic((1, -1, 0, 0, 0, 0)),
    "XY": Conic((0, 0, 0, 0, 0, 1)),
}
# The spans of the nine pencils, in case order.  The one name that is not a
# key of _D8_CONICS is the conic of the parameters c and d.
_D8_SPANS = (
    ("YZ", "XZ"),
    ("Z^2", "X^2-Y^2"),
    ("Z^2", "X^2+Y^2"),
    ("Z^2", "XY"),
    ("X^2-Y^2", "X^2+Y^2"),
    ("X^2-Y^2", "XY"),
    ("X^2+Y^2", "XY"),
    ("X^2-Y^2", "c*(X^2+Y^2) + d*Z^2"),
    ("XY", "c*(X^2+Y^2) + d*Z^2"),
)


@lru_cache(maxsize=None)
def d8_representation(a: int, b: int):
    """The order-8 dihedral subgroup of S4 acting on P^2, for signs a, b.

    The four-cycle (1234) acts by the rotation-type matrix (90-degree block
    plus the sign a on z) and the transposition (13) by the reflection-type
    diagonal matrix carrying the sign b; these satisfy the dihedral
    relations exactly, and the induced permutations of the base points in
    the general cases below reproduce the published action tables.
    Each sign pair is built and checked once per process; the matrix
    table is a read-only mapping that every caller shares.
    """
    if a not in (1, -1) or b not in (1, -1):
        raise ValueError("signs a and b must be +1 or -1")
    return _representation({"(1234)": [[0, -1, 0], [1, 0, 0], [0, 0, a]],
                            "(13)": [[1, 0, 0], [0, -1, 0], [0, 0, b]]})


def d8_case_suite(a: int, b: int, c: Fraction, d: Fraction) -> list:
    """The nine candidate invariant pencils for the order-8 dihedral action.

    Each pencil is spanned by two conics named in _D8_SPANS, literal conics
    built at import, or c*(X^2+Y^2) + d*Z^2, built on each call:
    pencils 8 and 9 take the free parameters c, d (both nonzero), the
    first seven none.  Nothing is proved here: ``analyze_pencil`` proves a
    general pencil invariant from the permutation of its base points.
    Pencils 8 and 9 are general for every nonzero c, d, with base points
    [1:+-1:+-w], w^2 = -2c/d, and [0:1:+-w], [1:0:+-w], w^2 = -c/d, so
    every run proves them.  Pencils 1-7 are not general, but they take no
    parameter, and the tests prove them invariant for all four sign pairs
    (a, b).
    """
    c = Fraction(c)
    d = Fraction(d)
    if c == 0 or d == 0:
        raise ValueError("parameters c and d must be nonzero")
    G, rep = d8_representation(a, b)
    free = Conic((c, c, d, 0, 0, 0))
    return [
        PencilCase(f"case {index}", G, rep, _D8_CONICS[first], _D8_CONICS.get(second, free))
        for index, (first, second) in enumerate(_D8_SPANS, start=1)
    ]


# -- the Klein four-group inside the standard S4 action ----------------------


@lru_cache(maxsize=None)
def klein_representation():
    """The normal Klein four-group with its exact 3x3 matrices, built once;
    the matrix table is a read-only mapping that every caller shares."""
    return _representation({"(12)(34)": [[-1, 1, 0], [0, 1, 0], [0, 1, -1]],
                            "(13)(24)": [[0, -1, 1], [0, -1, 0], [1, -1, 0]]})


def klein_counterexample() -> PencilCase:
    """The pencil through the Klein orbit of [1:2:3]; analyze_pencil proves it invariant."""
    G, rep = klein_representation()
    seed = ProjPoint((1, 2, 3))
    base = [apply_matrix(rep[g], seed) for g in G.elements]
    return PencilCase("klein", G, rep, *pencil_through(base))

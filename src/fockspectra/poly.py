"""Exact polynomial arithmetic in countably many variables x1, x2, x3, ...

A monomial is stored as a tuple of (variable, exponent) pairs, sorted by
variable index, with every exponent >= 1; the empty tuple is the constant
monomial 1.  A polynomial maps monomials to nonzero Fraction coefficients.

Every monomial corresponds to an integer partition (each variable k repeated
as many times as its exponent), and the canonical term order used for all
deterministic output is decreasing lexicographic order on that partition.

Two gradings are used throughout: deg(x_k) = k and len(x_k) = 1.  The scalar
product makes distinct monomials orthogonal, with the squared norm of a
monomial equal to the product of the factorials of its exponents, so that
d/dx_k is adjoint to multiplication by x_k.

The text forms of rationals (rational_str) and of signed sums such as
"x1*x3 + 1/2*x2^2" (combination_str) live here; genfun prints with them too.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Iterable, Iterator, Mapping, NamedTuple, Union

from . import partitions

Monomial = tuple[tuple[int, int], ...]
Scalar = Union[int, Fraction]

MONO_ONE: Monomial = ()


class Bidegree(NamedTuple):
    d: int    # weighted degree, deg(x_k) = k
    ell: int  # length, len(x_k) = 1


def monomial(exponents: Union[Mapping[int, int], Iterable[tuple[int, int]]]) -> Monomial:
    """Normalize variable -> exponent data into a canonical monomial."""
    items = exponents.items() if isinstance(exponents, Mapping) else exponents
    merged: dict[int, int] = {}
    for k, a in items:
        if k < 1:
            raise ValueError(f"variable index must be >= 1, got {k}")
        if a < 0:
            raise ValueError(f"exponent must be >= 0, got {a}")
        if a:
            merged[k] = merged.get(k, 0) + a
    return tuple(sorted(merged.items()))


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    merged = dict(a)
    for k, e in b:
        merged[k] = merged.get(k, 0) + e
    return tuple(sorted(merged.items()))


def bidegree(m: Monomial) -> Bidegree:
    """Weighted degree and length of a monomial; the constant 1 has (0, 0)."""
    return Bidegree(sum(k * a for k, a in m), sum(a for _, a in m))


def mono_partition(m: Monomial) -> tuple[int, ...]:
    """The partition whose parts are the variables of m with multiplicity."""
    parts: list[int] = []
    for k, a in reversed(m):
        parts.extend([k] * a)
    return tuple(parts)


def partition_monomial(parts: Iterable[int]) -> Monomial:
    """Inverse of mono_partition: x_{p1} x_{p2} ... over the parts."""
    exps: dict[int, int] = {}
    for p in parts:
        exps[p] = exps.get(p, 0) + 1
    return monomial(exps)


def mono_norm_sq(m: Monomial) -> int:
    """Squared norm of a monomial: the product of its exponent factorials."""
    out = 1
    for _, a in m:
        out *= factorial(a)
    return out


def mono_str(m: Monomial) -> str:
    if not m:
        return "1"
    return "*".join(f"x{k}" if a == 1 else f"x{k}^{a}" for k, a in m)


def rational_str(q: Scalar) -> str:
    """Short text of a rational: "3" for an integer, "1/2" otherwise."""
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def combination_str(terms: Iterable[tuple[str, Scalar]]) -> str:
    """Signed sum of (body, coefficient) terms in the order given, such as
    "-2/3*g(4,2) - g(3,1)g(1,1)": a coefficient of magnitude 1 is left out,
    the unit body "1" prints as its coefficient alone, and no terms as "0"."""
    pieces: list[str] = []
    for body, c in terms:
        mag = rational_str(abs(c))
        text = mag if body == "1" else body if mag == "1" else f"{mag}*{body}"
        if not pieces:
            pieces.append(text if c > 0 else f"-{text}")
        else:
            pieces.append(f"+ {text}" if c > 0 else f"- {text}")
    return " ".join(pieces) or "0"


class Polynomial:
    """Immutable sparse polynomial over exact rationals.

    Supports +, -, * (by polynomial or scalar), / (by scalar) and ** with a
    nonnegative integer exponent.  All operations return fresh values; stored
    coefficients are always nonzero Fractions.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Union[Mapping[Monomial, Scalar], Iterable[tuple[Monomial, Scalar]]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[Monomial, Fraction] = {}
        for m, c in items:
            q = Fraction(c)
            if q:
                clean[m] = q
        self._terms = clean

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def one(cls) -> "Polynomial":
        return cls({MONO_ONE: 1})

    @classmethod
    def variable(cls, k: int) -> "Polynomial":
        return cls({monomial({k: 1}): 1})

    def coefficient(self, m: Monomial) -> Fraction:
        return self._terms.get(m, Fraction(0))

    def terms(self) -> Iterator[tuple[Monomial, Fraction]]:
        """Terms in the canonical order (partition-decreasing)."""
        for m in sorted(self._terms, key=mono_partition, reverse=True):
            yield m, self._terms[m]

    def monomials(self) -> tuple[Monomial, ...]:
        return tuple(sorted(self._terms, key=mono_partition, reverse=True))

    def is_zero(self) -> bool:
        return not self._terms

    def bidegree(self) -> Bidegree:
        """Common bidegree of all terms; rejects 0 and non-bihomogeneous input."""
        degrees = {bidegree(m) for m in self._terms}
        if len(degrees) != 1:
            raise ValueError(f"polynomial is not bihomogeneous (bidegrees {sorted(degrees)})")
        return degrees.pop()

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == Polynomial({MONO_ONE: other})._terms
        return NotImplemented

    __hash__ = None  # mutable-dict backed; values compared structurally

    def __add__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial({MONO_ONE: other})
        if not isinstance(other, Polynomial):
            return NotImplemented
        out = dict(self._terms)
        for m, c in other._terms.items():
            s = out.get(m, Fraction(0)) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        result = Polynomial.zero()
        result._terms = out
        return result

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        result = Polynomial.zero()
        result._terms = {m: -c for m, c in self._terms.items()}
        return result

    def __sub__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        return self + (-other if isinstance(other, Polynomial) else -Fraction(other))

    def __rsub__(self, other: Scalar) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            result = Polynomial.zero()
            if q:
                result._terms = {m: c * q for m, c in self._terms.items()}
            return result
        if not isinstance(other, Polynomial):
            return NotImplemented
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = mono_mul(m1, m2)
                s = out.get(m, Fraction(0)) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        result = Polynomial.zero()
        result._terms = out
        return result

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "Polynomial":
        return self * (Fraction(1) / Fraction(other))

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = Polynomial.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __str__(self) -> str:
        return combination_str((mono_str(m), c) for m, c in self.terms())

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def x(k: int) -> Polynomial:
    """The generator x_k."""
    return Polynomial.variable(k)


def partial_derivative(f: Polynomial, k: int) -> Polynomial:
    """Formal partial derivative d/dx_k."""
    if k < 1:
        raise ValueError(f"variable index must be >= 1, got {k}")
    out: dict[Monomial, Fraction] = {}
    for m, c in f._terms.items():
        exps = dict(m)
        a = exps.get(k, 0)
        if not a:
            continue
        if a == 1:
            del exps[k]
        else:
            exps[k] = a - 1
        dm = tuple(sorted(exps.items()))
        out[dm] = out.get(dm, Fraction(0)) + c * a
    return Polynomial(out)


def inner_product(f: Polynomial, g: Polynomial) -> Fraction:
    """Scalar product with <mu, mu> = product of exponent factorials of mu.

    Distinct monomials are orthogonal; under this product d/dx_k is adjoint
    to multiplication by x_k, and the product is positive definite.
    """
    if len(f._terms) > len(g._terms):
        f, g = g, f
    total = Fraction(0)
    for m, c in f._terms.items():
        other = g._terms.get(m)
        if other is not None:
            total += c * other * mono_norm_sq(m)
    return total


@lru_cache(maxsize=None)
def monomial_basis(d: int, ell: int) -> tuple[Monomial, ...]:
    """All monomials of weighted degree d and length ell, partition-decreasing.

    Empty when no such monomial exists (for example ell > d).
    """
    return tuple(partition_monomial(p) for p in partitions.partitions_with_length(d, ell))


def apply_degree_operator(f: Polynomial) -> Polynomial:
    """The grading operator sum_k k x_k d/dx_k: scales each term by its degree."""
    return Polynomial({m: c * bidegree(m).d for m, c in f._terms.items()})


def apply_length_operator(f: Polynomial) -> Polynomial:
    """The grading operator sum_k x_k d/dx_k: scales each term by its length."""
    return Polynomial({m: c * bidegree(m).ell for m, c in f._terms.items()})

"""Coefficient-list arithmetic, the exact output type of the engines, and
moments from integer counts.

The engines count first-hit orders in Python integers: a table entry or a
root layer is a list of counts summing to n!. Only what they return is a
`RationalPolynomial`, a probability generating function (PGF) with
`fractions.Fraction` coefficients, built once by `from_counts`. Moments are
taken from the counts by `count_moments`, or from a PGF by `pgf_moments`.
Every exact number the package prints is written by `fraction_string`.

On coefficient lists of ints or `Fraction`s (index = power),
`coefficient_product` and `add_into` are the package's one product and
weighted sum: the first-step root recursion, the unit-gap triples and
`RationalPolynomial.__mul__` use them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational


def fraction_string(value) -> str:
    """An int or `Fraction` as "num/den" in lowest terms, the wire format of
    every exact number the package prints."""
    return f"{value.numerator}/{value.denominator}"


def coefficient_product(a, b) -> list:
    """Coefficients of the product of the polynomials with coefficient lists
    ``a`` and ``b``; empty when either is."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for p, x in enumerate(a):
        if x:
            for q, y in enumerate(b):
                out[p + q] += x * y
    return out


def add_into(acc: list, poly, weight=1) -> None:
    """acc += weight * poly, in place, extending ``acc`` with zeros as needed."""
    if len(acc) < len(poly):
        acc.extend([0] * (len(poly) - len(acc)))
    for p, c in enumerate(poly):
        acc[p] += weight * c


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, Rational)):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class RationalPolynomial:
    """Immutable dense polynomial; index = power, no trailing zeros."""

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients=()):
        coeffs = [_as_fraction(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self._coeffs = tuple(coeffs)

    @classmethod
    def from_counts(cls, counts, total: int) -> "RationalPolynomial":
        """The PGF whose coefficient of x**d is counts[d] / total."""
        return cls([Fraction(c, total) for c in counts])

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, RationalPolynomial):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __mul__(self, other) -> "RationalPolynomial":
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return RationalPolynomial(coefficient_product(self._coeffs, other._coeffs))

    def __call__(self, x):
        """Evaluate by Horner's rule; exact for int/Fraction arguments."""
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def is_pgf(self) -> bool:
        """True when coefficients are a probability vector (sum 1, all >= 0)."""
        return all(c >= 0 for c in self._coeffs) and self(1) == 1

    def fraction_strings(self) -> list[str]:
        """Coefficients as "num/den" strings."""
        return list(map(fraction_string, self._coeffs))

    def __repr__(self) -> str:
        return f"RationalPolynomial([{', '.join(str(c) for c in self._coeffs)}])"


@dataclass(frozen=True)
class MomentSummary:
    """Exact first/second moments of a distribution."""

    mean: Fraction
    variance: Fraction
    second_factorial_moment: Fraction


def count_moments(counts, total) -> MomentSummary:
    """Moments of the distribution P(X = d) = counts[d] / total.

    mean = sum d*c / total and the second factorial moment E(X(X-1)) =
    sum d(d-1)*c / total, so variance = E(X(X-1)) + mean - mean**2.
    """
    mean = Fraction(sum(d * c for d, c in enumerate(counts)), total)
    sfm = Fraction(sum(d * (d - 1) * c for d, c in enumerate(counts)), total)
    return MomentSummary(mean=mean, variance=sfm + mean - mean**2,
                         second_factorial_moment=sfm)


def pgf_moments(p: RationalPolynomial) -> MomentSummary:
    """Mean and variance of the distribution encoded by PGF ``p``."""
    if not p.is_pgf():
        raise ValueError("polynomial is not a normalized PGF")
    return count_moments(p.coefficients, 1)

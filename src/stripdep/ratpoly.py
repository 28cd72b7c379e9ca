"""Dense univariate polynomials with exact rational coefficients.

Probability generating functions (PGFs) of bounded integer statistics are
polynomials, so all distribution work in this package reduces to polynomial
arithmetic over `fractions.Fraction`. Denominators grow factorially with the
substrate width, which rules out fixed-width arithmetic; Python's unbounded
integers make the exact path straightforward.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational


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
    def zero(cls) -> "RationalPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "RationalPolynomial":
        return cls((1,))

    @classmethod
    def constant(cls, value) -> "RationalPolynomial":
        return cls((value,))

    @classmethod
    def monomial(cls, power: int, coefficient=1) -> "RationalPolynomial":
        if power < 0:
            raise ValueError("power must be non-negative")
        return cls((0,) * power + (coefficient,))

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def coefficient(self, power: int) -> Fraction:
        if 0 <= power < len(self._coeffs):
            return self._coeffs[power]
        return Fraction(0)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, RationalPolynomial):
            return self._coeffs == other._coeffs
        if isinstance(other, (int, Fraction)):
            return self == RationalPolynomial.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __add__(self, other) -> "RationalPolynomial":
        if isinstance(other, (int, Fraction)):
            other = RationalPolynomial.constant(other)
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return RationalPolynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "RationalPolynomial":
        return RationalPolynomial([-c for c in self._coeffs])

    def __sub__(self, other) -> "RationalPolynomial":
        return self + (-other if isinstance(other, RationalPolynomial)
                       else RationalPolynomial.constant(-_as_fraction(other)))

    def __rsub__(self, other) -> "RationalPolynomial":
        return RationalPolynomial.constant(other) - self

    def __mul__(self, other) -> "RationalPolynomial":
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            return RationalPolynomial([a * c for a in self._coeffs])
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return RationalPolynomial()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return RationalPolynomial(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "RationalPolynomial":
        c = _as_fraction(scalar)
        if c == 0:
            raise ZeroDivisionError("division of polynomial by zero")
        return RationalPolynomial([a / c for a in self._coeffs])

    def shift(self, powers: int) -> "RationalPolynomial":
        """Multiply by x**powers."""
        if powers < 0:
            raise ValueError("powers must be non-negative")
        if not self._coeffs:
            return self
        return RationalPolynomial((Fraction(0),) * powers + self._coeffs)

    def derivative(self) -> "RationalPolynomial":
        return RationalPolynomial([k * c for k, c in enumerate(self._coeffs)][1:])

    def __call__(self, x):
        """Evaluate by Horner's rule; exact for int/Fraction arguments."""
        if isinstance(x, (int, Fraction)):
            acc = Fraction(0)
            for c in reversed(self._coeffs):
                acc = acc * x + c
            return acc
        acc = 0.0
        for c in reversed(self._coeffs):
            acc = acc * x + float(c)
        return acc

    def sum_of_coefficients(self) -> Fraction:
        return sum(self._coeffs, Fraction(0))

    def is_pgf(self) -> bool:
        """True when coefficients are a probability vector (sum 1, all >= 0)."""
        return all(c >= 0 for c in self._coeffs) and self.sum_of_coefficients() == 1

    def fraction_strings(self) -> list[str]:
        """Coefficients as "num/den" strings (wire format for exact output)."""
        return [f"{c.numerator}/{c.denominator}" for c in self._coeffs]

    def __repr__(self) -> str:
        return f"RationalPolynomial([{', '.join(str(c) for c in self._coeffs)}])"


@dataclass(frozen=True)
class MomentSummary:
    """Exact first/second moments extracted from a PGF."""

    mean: Fraction
    variance: Fraction
    second_factorial_moment: Fraction

    def __post_init__(self):
        if self.variance != self.second_factorial_moment + self.mean - self.mean**2:
            raise ValueError("inconsistent moment summary")


def pgf_moments(p: RationalPolynomial) -> MomentSummary:
    """Mean and variance of the distribution encoded by PGF ``p``.

    mean = p'(1); the second derivative at 1 is the second factorial moment
    E(X(X-1)), so variance = p''(1) + p'(1) - p'(1)**2.
    """
    if not p.is_pgf():
        raise ValueError("polynomial is not a normalized PGF")
    d1 = p.derivative()
    mean = d1(1)
    sfm = d1.derivative()(1)
    return MomentSummary(mean=mean, variance=sfm + mean - mean**2,
                         second_factorial_moment=sfm)


class RationalFunctionSeries:
    """Taylor series at 0 of numerator/denominator, coefficients on demand."""

    def __init__(self, numerator: RationalPolynomial, denominator: RationalPolynomial):
        if denominator.coefficient(0) == 0:
            raise ValueError("denominator must not vanish at 0")
        self.numerator = numerator
        self.denominator = denominator

    def coefficients(self, count: int) -> tuple[Fraction, ...]:
        """First ``count`` Taylor coefficients, exact.

        The coefficients satisfy the linear recurrence induced by the
        denominator: d0*c_n = num_n - sum_{j>=1} d_j*c_{n-j}.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        den = self.denominator.coefficients
        d0 = den[0]
        out: list[Fraction] = []
        for n in range(count):
            acc = self.numerator.coefficient(n)
            for j in range(1, min(n, len(den) - 1) + 1):
                acc -= den[j] * out[n - j]
            out.append(acc / d0)
        return tuple(out)

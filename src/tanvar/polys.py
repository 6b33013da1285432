"""Exact sparse multivariate polynomials over Q, and the generating-family solve.

Unlike the jets, these are honest polynomials (finitely many terms, no
truncation).  They back the symbolic constructions of unbounded degree: the
Morin ramification-module generator tables and the generating families with
their eliminated parametrizations.  The family's envelope system is solved
here in closed form, by divided-difference weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Dict, List, Sequence, Tuple, Union

from .jets import _render_terms

Scalar = Union[int, Fraction]


def _frac(x: Scalar) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class Poly:
    """Sparse multivariate polynomial over Q with a fixed variable tuple."""

    variables: Tuple[str, ...]
    terms: Tuple[Tuple[Tuple[int, ...], Fraction], ...]  # sorted by grlex key

    @staticmethod
    def _normal(variables, mapping: Dict[Tuple[int, ...], Fraction]) -> "Poly":
        items = [(e, c) for e, c in mapping.items() if c != 0]
        items.sort(key=lambda ec: (sum(ec[0]), ec[0]))
        return Poly(tuple(variables), tuple(items))

    @staticmethod
    def zero(variables: Sequence[str]) -> "Poly":
        return Poly(tuple(variables), ())

    @staticmethod
    def monomial(coeff: Scalar, exponents: Sequence[int], variables: Sequence[str]) -> "Poly":
        c = _frac(coeff)
        if c == 0:
            return Poly.zero(variables)
        return Poly._normal(variables, {tuple(exponents): c})

    def _require_same(self, other: "Poly") -> None:
        if self.variables != other.variables:
            raise ValueError("mixed variable sets")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if isinstance(other, Poly):
            self._require_same(other)
            acc = dict(self.terms)
            for e, c in other.terms:
                acc[e] = acc.get(e, Fraction(0)) + c
            return Poly._normal(self.variables, acc)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, Poly):
            return self + (-other)
        return NotImplemented

    def __neg__(self):
        return Poly(self.variables, tuple((e, -c) for e, c in self.terms))

    def __mul__(self, other):
        if isinstance(other, Poly):
            self._require_same(other)
            acc: Dict[Tuple[int, ...], Fraction] = {}
            for e1, c1 in self.terms:
                for e2, c2 in other.terms:
                    e = tuple(a + b for a, b in zip(e1, e2))
                    acc[e] = acc.get(e, Fraction(0)) + c1 * c2
            return Poly._normal(self.variables, acc)
        if isinstance(other, (int, Fraction)):
            f = _frac(other)
            return Poly._normal(self.variables, {e: c * f for e, c in self.terms})
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def derivative(self, name: str) -> "Poly":
        idx = list(self.variables).index(name)
        acc: Dict[Tuple[int, ...], Fraction] = {}
        for e, c in self.terms:
            if e[idx] >= 1:
                e2 = list(e)
                e2[idx] -= 1
                acc[tuple(e2)] = acc.get(tuple(e2), Fraction(0)) + c * e[idx]
        return Poly._normal(self.variables, acc)

    def weighted_integral(self, name: str, ell: int) -> "Poly":
        """Integral from 0 of ``x^ell * self`` in the named variable."""
        idx = list(self.variables).index(name)
        acc: Dict[Tuple[int, ...], Fraction] = {}
        for e, c in self.terms:
            e2 = list(e)
            e2[idx] += ell + 1
            acc[tuple(e2)] = c / (e[idx] + ell + 1)
        return Poly._normal(self.variables, acc)

    def coefficient(self, exponents: Sequence[int]) -> Fraction:
        for e, c in self.terms:
            if e == tuple(exponents):
                return c
        return Fraction(0)

    def render(self) -> str:
        return _render_terms(
            (c, tuple(zip(self.variables, e))) for e, c in self.terms
        )

    def __str__(self):
        return self.render()


def solve_ratfun_system(
    exponents: Sequence[int], targets: Sequence[int]
) -> List[List[Fraction]]:
    """Solve sum_j falling(n_j, d) x_j = -falling(s, d), d < N, for each target s.

    falling(n, d) = n (n-1) ... (n-d+1); the N exponents n_j are distinct
    integers and no target equals one of them.  The unique solution is

        x_j = prod_k (s - n_k) / ((n_j - s) * prod_{k != j} (n_j - n_k)),

    the divided-difference weights over (s, n_1..n_N) divided by that of s:
    the weights annihilate every polynomial of degree < N, such as
    falling(., d).  The benchmark's tracer binds this name, so it stays.
    """
    spreads = [prod(n - m for m in exponents if m != n) for n in exponents]
    solutions = []
    for s in targets:
        lead = prod(s - m for m in exponents)
        solutions.append([Fraction(lead, (n - s) * w) for n, w in zip(exponents, spreads)])
    return solutions

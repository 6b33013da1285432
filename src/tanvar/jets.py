"""Exact truncated power series ("jets") in one and two variables.

A jet of truncation order ``K`` stores the coefficients of a power series
up to and including total degree ``K``, with all coefficients kept as exact
``fractions.Fraction`` values.  Degrees above the truncation are *unknown*,
not zero: arithmetic never claims information it does not have.  In
particular

* binary ring operations require both operands to share one truncation
  order and raise :class:`TruncationMismatch` otherwise,
* differentiation lowers the truncation by one,
* division lowers it by the order of the divisor (two-variable jets divide
  degree by degree through the one-variable recurrence, with no linear solve),
* weighted integration raises it.

The two-variable jets are stored as dense triangular coefficient tables
(total degree ``i + j <= K``); the supported envelope is total degree
``<= 24``, which covers every computation performed by the rest of the
library with room to spare.

:class:`Jet1` and :class:`Jet2` share one core for what does not depend on
the number of variables: ``+``, ``-``, negation, scalar ``*``, the
equal-truncation check, ``is_zero``, ``order``, ``truncate``, ``zero``,
``constant`` and ``str``, and with them :func:`align` and
:func:`equal_as_polynomials`.  Products, calculus, construction from terms,
composition and rendering are written per class.  A two-variable product
multiplies integer numerators over each operand's common denominator and
returns ``Fraction`` coefficients like every other operation.

All jet values are immutable; every operation returns a fresh jet.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Tuple, Union

Scalar = Union[int, Fraction]

#: largest truncation order a curve document may ask for
MAX_TRUNCATION_1 = 256

#: largest supported truncation order for two-variable jets
MAX_TRUNCATION_2 = 24


class TruncationMismatch(ValueError):
    """Raised when a binary operation mixes two truncation orders."""


class JetDomainError(ValueError):
    """Raised when an operation's precondition on the operands fails."""


class InvariantError(RuntimeError):
    """An identity the library guarantees by construction failed to hold.

    Raised when an exact re-check after a computation (the contact pullback
    of a completed surface, the frontality of a slice, the lift identity of
    an opening certificate) finds a nonzero residual.  This is a bug in the
    library, not bad input, so it deliberately does not derive from
    ``ValueError``; the CLI reports it as ``internal error:`` with exit 3.
    """


class _AboveTruncation(float):
    """Order of a jet that vanishes identically within its truncation.

    Its one instance is infinity, so it compares greater than every integer
    and equal to no integer.  It prints as its name, and copy and pickle
    return the instance itself.
    """

    def __repr__(self):
        return "ABOVE_TRUNCATION"

    __str__ = __repr__

    def __reduce__(self):
        return "ABOVE_TRUNCATION"


ABOVE_TRUNCATION = _AboveTruncation("inf")

ExtOrder = Union[int, _AboveTruncation]

_ZERO = Fraction(0)


def _frac(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


# --------------------------------------------------------------------------
# shared core
# --------------------------------------------------------------------------


class _Jet:
    """Jet operations that do not depend on the number of variables.

    A subclass keeps its coefficient table in the tuple ``coeffs`` and
    provides three hooks: ``_size(K)``, the table length at truncation K;
    ``_make(coeffs, K)``, the jet with that table; and ``terms()``, which
    yields ``(exponents..., coeff)`` over the nonzero coefficients in
    increasing total degree.
    """

    # -- construction ------------------------------------------------------

    @classmethod
    def zero(cls, truncation: int):
        return cls._make((Fraction(0),) * cls._size(truncation), truncation)

    @classmethod
    def constant(cls, value: Scalar, truncation: int):
        c = [Fraction(0)] * cls._size(truncation)
        c[0] = _frac(value)
        return cls._make(tuple(c), truncation)

    # -- queries -------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def order(self) -> ExtOrder:
        """Smallest total degree with a nonzero coefficient (ABOVE_TRUNCATION if none)."""
        for *exponents, _ in self.terms():
            return sum(exponents)
        return ABOVE_TRUNCATION

    # -- ring operations -----------------------------------------------------

    def _require_same(self, other: "_Jet") -> None:
        if self.truncation != other.truncation:
            raise TruncationMismatch(f"truncation {self.truncation} vs {other.truncation}")

    def _pointwise(self, other, op):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._require_same(other)
        return self._make(tuple(map(op, self.coeffs, other.coeffs)), self.truncation)

    def __add__(self, other):
        return self._pointwise(other, operator.add)

    def __sub__(self, other):
        return self._pointwise(other, operator.sub)

    def __neg__(self):
        return self._make(tuple(-a for a in self.coeffs), self.truncation)

    def _scale(self, other):
        """Product with an exact scalar; each ``__mul__`` ends here."""
        if isinstance(other, (int, Fraction)):
            f = _frac(other)
            return self._make(tuple(a * f for a in self.coeffs), self.truncation)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    # -- misc ------------------------------------------------------------------

    def truncate(self, new_truncation: int):
        if new_truncation > self.truncation:
            raise JetDomainError("cannot raise a truncation order")
        return self._make(self.coeffs[: self._size(new_truncation)], new_truncation)

    def __str__(self):
        return self.render()


# --------------------------------------------------------------------------
# one variable
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Jet1(_Jet):
    """Truncated power series in one variable with exact rational coefficients.

    ``coeffs[k]`` is the coefficient of degree ``k``; the truncation order is
    ``len(coeffs) - 1``.
    """

    coeffs: Tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise ValueError("a jet stores at least the degree-0 coefficient")

    @staticmethod
    def _size(truncation: int) -> int:
        return truncation + 1

    @staticmethod
    def _make(coeffs: Tuple[Fraction, ...], truncation: int) -> "Jet1":
        return Jet1(coeffs)

    # -- construction ------------------------------------------------------

    @staticmethod
    def variable(truncation: int) -> "Jet1":
        return Jet1.from_terms([(1, 1)], truncation)

    @staticmethod
    def term(coeff: Scalar, power: int, truncation: int) -> "Jet1":
        return Jet1.from_terms([(power, coeff)], truncation)

    @staticmethod
    def from_terms(terms: Iterable[Tuple[int, Scalar]], truncation: int) -> "Jet1":
        c = [Fraction(0)] * (truncation + 1)
        for power, coeff in terms:
            if power < 0:
                raise ValueError("negative power")
            if power <= truncation:
                c[power] += _frac(coeff)
        return Jet1(tuple(c))

    # -- basic queries -------------------------------------------------------

    @property
    def truncation(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Fraction:
        if not 0 <= k <= self.truncation:
            raise IndexError(f"degree {k} outside truncation {self.truncation}")
        return self.coeffs[k]

    def terms(self):
        """Yield (k, coeff) over nonzero coefficients, by increasing degree."""
        for k, c in enumerate(self.coeffs):
            if c != 0:
                yield k, c

    def render(self, var: str = "t") -> str:
        return _render_terms((c, ((var, k),)) for k, c in self.terms())

    def degree(self) -> ExtOrder:
        """Largest stored degree with a nonzero coefficient."""
        return max((k for k, _ in self.terms()), default=ABOVE_TRUNCATION)

    # -- ring operations -----------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, Jet1):
            self._require_same(other)
            K = self.truncation
            out = [Fraction(0)] * (K + 1)
            for i, a in self.terms():
                for j in range(0, K + 1 - i):
                    b = other.coeffs[j]
                    if b != 0:
                        out[i + j] += a * b
            return Jet1(tuple(out))
        return self._scale(other)

    # -- calculus --------------------------------------------------------------

    def derivative(self) -> "Jet1":
        """Formal derivative; the result has truncation one lower."""
        if self.truncation < 1:
            raise JetDomainError("cannot differentiate a truncation-0 jet")
        return Jet1(tuple(self.coeffs[k] * k for k in range(1, self.truncation + 1)))

    def weighted_integral(self, ell: int) -> "Jet1":
        """Jet of ``int_0^t s^ell * self(s) ds``; truncation rises to K + ell + 1."""
        if ell < 0:
            raise ValueError("negative weight")
        out = [Fraction(0)] * (self.truncation + ell + 2)
        for k, c in self.terms():
            out[k + ell + 1] = c / (k + ell + 1)
        return Jet1(tuple(out))

    def compose(self, phi: "Jet1") -> "Jet1":
        """Jet of the composite self(phi(t)), truncated at K.  Requires ord(phi) >= 1."""
        self._require_same(phi)
        if phi.order() == 0:
            raise JetDomainError("inner jet must vanish at 0")
        K = self.truncation
        # Horner evaluation in the jet ring
        result = Jet1.constant(self.coeffs[K], K)
        for k in range(K - 1, -1, -1):
            result = result * phi + Jet1.constant(self.coeffs[k], K)
        return result

    def divide(self, other: "Jet1"):
        """Exact quotient q with self = q * other, or None when no jet quotient exists.

        The quotient carries truncation ``K - ord(other)``.  Raises
        ZeroDivisionError when the divisor vanishes identically within its
        truncation.
        """
        self._require_same(other)
        d = other.order()
        if d is ABOVE_TRUNCATION:
            raise ZeroDivisionError("divisor vanishes within its truncation")
        K = self.truncation
        nord = self.order()
        if isinstance(nord, int) and nord < d:
            return None
        Kq = K - d
        lead = other.coeffs[d]
        q = [Fraction(0)] * (Kq + 1)
        for k in range(0, Kq + 1):
            acc = self.coeffs[k + d]
            for jj in range(0, k):
                b = other.coeffs[d + k - jj]
                if b != 0 and q[jj] != 0:
                    acc -= q[jj] * b
            q[k] = acc / lead
        return Jet1(tuple(q))

    def shift_down(self, e: int):
        """Exact division by t**e, or None if a coefficient below degree e is nonzero."""
        if e == 0:
            return self
        if any(c != 0 for c in self.coeffs[:e]):
            return None
        return Jet1(tuple(self.coeffs[e:]))


# --------------------------------------------------------------------------
# two variables
# --------------------------------------------------------------------------


def _tri_size(K: int) -> int:
    """Table length at truncation K; refuses K above the supported envelope."""
    if K > MAX_TRUNCATION_2:
        raise ValueError(f"two-variable jets support total degree <= {MAX_TRUNCATION_2}")
    return (K + 1) * (K + 2) // 2


def _tri_index(i: int, j: int) -> int:
    d = i + j
    return d * (d + 1) // 2 + j


@dataclass(frozen=True)
class Jet2(_Jet):
    """Truncated power series in two variables, stored as a dense triangular table.

    ``coefficient(i, j)`` is the coefficient of ``x**i * y**j``; all bidegrees
    with ``i + j <= truncation`` are stored.  The two variables are positional
    (index 0 and 1); display names are chosen at rendering time.
    """

    coeffs: Tuple[Fraction, ...]
    truncation: int

    def __post_init__(self):
        if self.truncation < 0:
            raise ValueError("negative truncation")
        if len(self.coeffs) != _tri_size(self.truncation):
            raise ValueError("coefficient table does not match truncation")

    _size = staticmethod(_tri_size)

    @staticmethod
    def _make(coeffs: Tuple[Fraction, ...], truncation: int) -> "Jet2":
        return Jet2(coeffs, truncation)

    # -- construction ------------------------------------------------------

    @staticmethod
    def variable(index: int, truncation: int) -> "Jet2":
        if index not in (0, 1):
            raise ValueError("variable index must be 0 or 1")
        return Jet2.from_terms([(1, 0, 1) if index == 0 else (0, 1, 1)], truncation)

    @staticmethod
    def term(coeff: Scalar, i: int, j: int, truncation: int) -> "Jet2":
        return Jet2.from_terms([(i, j, coeff)], truncation)

    @staticmethod
    def from_terms(terms: Iterable[Tuple[int, int, Scalar]], truncation: int) -> "Jet2":
        c = [Fraction(0)] * _tri_size(truncation)
        for i, j, coeff in terms:
            if i < 0 or j < 0:
                raise ValueError("negative exponent")
            if i + j <= truncation:
                c[_tri_index(i, j)] += _frac(coeff)
        return Jet2(tuple(c), truncation)

    @staticmethod
    def from_jet1(jet: Jet1, var: int, truncation: int) -> "Jet2":
        """Embed a one-variable jet as a two-variable jet in the given variable.

        Requires the embedded degrees to fit: deg(jet) <= truncation.
        """
        deg = jet.degree()
        if isinstance(deg, int) and deg > truncation:
            raise JetDomainError("one-variable jet does not fit the target truncation")
        if var not in (0, 1):
            raise ValueError("variable index must be 0 or 1")
        return Jet2.from_terms(
            ((k, 0, c) if var == 0 else (0, k, c) for k, c in jet.terms()), truncation
        )

    # -- queries ---------------------------------------------------------------

    def coefficient(self, i: int, j: int) -> Fraction:
        if i < 0 or j < 0 or i + j > self.truncation:
            raise IndexError(f"bidegree ({i},{j}) outside truncation {self.truncation}")
        return self.coeffs[_tri_index(i, j)]

    def terms(self):
        """Yield (i, j, coeff) over nonzero entries, ordered by (total degree, j)."""
        pos = 0
        for d in range(self.truncation + 1):
            for j in range(d + 1):
                c = self.coeffs[pos]
                if c != 0:
                    yield d - j, j, c
                pos += 1

    def render(self, vars: Tuple[str, str] = ("s", "t")) -> str:
        return _render_terms((c, ((vars[0], i), (vars[1], j))) for i, j, c in self.terms())

    # -- ring operations ---------------------------------------------------------

    # bound in this class's own namespace, where per-class method tracing finds them
    __add__ = _Jet.__add__
    __sub__ = _Jet.__sub__

    def __mul__(self, other):
        if isinstance(other, Jet2):
            self._require_same(other)
            K = self.truncation
            # products of integer numerators over one denominator per operand;
            # the pairs of a left term run by increasing degree, so they stop
            # at the first one past the truncation
            left, dl = self._numerators()
            right, dr = other._numerators()
            out = [0] * _tri_size(K)
            for d1, j1, n1 in left:
                for d2, j2, n2 in right:
                    d = d1 + d2
                    if d > K:
                        break
                    out[d * (d + 1) // 2 + j1 + j2] += n1 * n2
            den = dl * dr
            return Jet2(tuple(Fraction(n, den) if n else _ZERO for n in out), K)
        return self._scale(other)

    def _numerators(self):
        """(total degree, j, numerator) over the terms, and their common denominator."""
        terms = list(self.terms())
        den = math.lcm(*(c.denominator for _, _, c in terms))
        return [(i + j, j, c.numerator * (den // c.denominator)) for i, j, c in terms], den

    # -- calculus -------------------------------------------------------------------

    def derivative(self, var: int) -> "Jet2":
        """Formal partial derivative; truncation drops by one."""
        if self.truncation < 1:
            raise JetDomainError("cannot differentiate a truncation-0 jet")
        K = self.truncation - 1
        out = [Fraction(0)] * _tri_size(K)
        for i, j, c in self.terms():
            if var == 0 and i >= 1:
                out[_tri_index(i - 1, j)] = c * i
            elif var == 1 and j >= 1:
                out[_tri_index(i, j - 1)] = c * j
        return Jet2(tuple(out), K)

    def weighted_integral(self, var: int, ell: int) -> "Jet2":
        """Integrate ``s^ell * self`` from 0 in the given variable; truncation rises."""
        if ell < 0:
            raise ValueError("negative weight")
        K = self.truncation + ell + 1
        out = [Fraction(0)] * _tri_size(K)
        for i, j, c in self.terms():
            if var == 0:
                out[_tri_index(i + ell + 1, j)] = c / (i + ell + 1)
            else:
                out[_tri_index(i, j + ell + 1)] = c / (j + ell + 1)
        return Jet2(tuple(out), K)

    def divide(self, other: "Jet2"):
        """Exact quotient q with self = q * other, or None when inconsistent.

        Solved degree by degree with :meth:`Jet1.divide`, reading a form of degree n
        as the polynomial in y whose y**j coefficient is that of x**(n-j) * y**j.
        With g_d the lowest form of the divisor, the degree-m part q_m solves
        q_m * g_d = r, r the degree-(m + d) part of self minus the lower parts of q
        times the divisor.  Multiplication by g_d is injective, so r / g_d is the
        only candidate, and q_m exists exactly when it has no coefficient above
        degree m.  The quotient carries truncation ``K - ord(other)``.
        """
        self._require_same(other)
        d = other.order()
        if d is ABOVE_TRUNCATION:
            raise ZeroDivisionError("divisor vanishes within its truncation")
        K = self.truncation
        nord = self.order()
        if isinstance(nord, int) and nord < d:
            return None
        forms: list = [[] for _ in range(K + 1)]  # the divisor's (j, c) by degree
        for i, j, c in other.terms():
            forms[i + j].append((j, c))
        parts: list = []  # the (j, c) of q_0, q_1, ...
        for m in range(K - d + 1):
            n = m + d
            r = [self.coefficient(n - j, j) for j in range(n + 1)]
            for k, qk in enumerate(parts):
                for j1, c1 in qk:
                    for j2, c2 in forms[n - k]:
                        r[j1 + j2] -= c1 * c2
            cand = Jet1(tuple(r)).divide(Jet1.from_terms(forms[d], n))
            if cand is None or any(j > m for j, _ in cand.terms()):
                return None
            parts.append(list(cand.terms()))
        return Jet2.from_terms(((m - j, j, c) for m, qm in enumerate(parts) for j, c in qm), K - d)

    def mul_monomial(self, i: int, j: int) -> "Jet2":
        """Exact product with x**i * y**j; the truncation rises by i + j."""
        if i < 0 or j < 0:
            raise ValueError("negative exponent")
        K = self.truncation + i + j
        out = [Fraction(0)] * _tri_size(K)
        for i0, j0, c in self.terms():
            out[_tri_index(i0 + i, j0 + j)] = c
        return Jet2(tuple(out), K)

    def substitute(self, phi0: "Jet2", phi1: "Jet2") -> "Jet2":
        """Substitute jets for the two variables; both must vanish at the origin."""
        phi0._require_same(phi1)
        if phi0.order() == 0 or phi1.order() == 0:
            raise JetDomainError("substituted jets must vanish at 0")
        K = phi0.truncation
        # powers of phi0 and phi1 up to what can matter
        result = Jet2.zero(K)
        pow0 = [Jet2.constant(1, K)]
        pow1 = [Jet2.constant(1, K)]
        for i, j, c in self.terms():
            if i + j > K:
                continue
            while len(pow0) <= i:
                pow0.append(pow0[-1] * phi0)
            while len(pow1) <= j:
                pow1.append(pow1[-1] * phi1)
            result = result + c * (pow0[i] * pow1[j])
        return result


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------


def _render_power(var: str, k: int) -> str:
    if k == 1:
        return var
    return f"{var}^{k}"


def _render_terms(terms) -> str:
    parts = []
    for coeff, powers in terms:
        mono = "*".join(_render_power(v, k) for v, k in powers if k > 0)
        c = coeff
        if mono:
            if c == 1:
                body = mono
            elif c == -1:
                body = f"-{mono}"
            else:
                body = f"{c}*{mono}"
        else:
            body = str(c)
        parts.append(body)
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        if p.startswith("-"):
            out += " - " + p[1:]
        else:
            out += " + " + p
    return out


def align(*jets):
    """Truncate jets of one kind to their common (minimal) truncation order."""
    K = min(j.truncation for j in jets)
    return tuple(j.truncate(K) for j in jets)


def equal_as_polynomials(a, b) -> bool:
    """Compare two jets as exact polynomials.

    True when all shared coefficients agree and each jet is zero beyond the
    other's truncation (so both represent one polynomial of degree at most
    the smaller truncation).
    """
    if not (isinstance(a, _Jet) and type(a) is type(b)):
        raise TypeError("mismatched jet kinds")
    n = a._size(min(a.truncation, b.truncation))
    if a.coeffs[:n] != b.coeffs[:n]:
        return False
    return all(c == 0 for c in a.coeffs[n:]) and all(c == 0 for c in b.coeffs[n:])

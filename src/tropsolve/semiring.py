"""Idempotent semifields over the extended reals.

A semifield here is a commutative semiring whose addition is idempotent
(``x (+) x = x``) and whose multiplication is invertible away from the
zero element.  Scalars are plain ``float64`` values; a :class:`Semifield`
instance supplies the operations.  Two instances ship:

``MAX_PLUS``
    addition is ``max``, multiplication is ``+``, zero is ``-inf``,
    identity is ``0``.

``MIN_PLUS``
    addition is ``min``, multiplication is ``+``, zero is ``+inf``,
    identity is ``0``.

Idempotent addition induces the order ``x <= y  iff  x (+) y = y``; for
``MIN_PLUS`` this is the reverse of the numeric order.  All arithmetic on
integer-valued scalars is exact in this representation, so comparisons
throughout the library are plain ``==`` with no epsilon.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import DomainError, ParseError

__all__ = ["Semifield", "MAX_PLUS", "MIN_PLUS", "semifield_by_name"]


class Semifield:
    """One totally ordered idempotent semifield on the extended reals.

    Do not instantiate; use the module constants ``MAX_PLUS`` and
    ``MIN_PLUS``.  Instances are stateless and safe to share between
    threads.
    """

    def __init__(self, name: str, zero: float, maximizing: bool):
        self.name = name
        self.zero = zero
        self.one = 0.0
        self._maximizing = maximizing
        self._zero_token = "-inf" if maximizing else "inf"
        # numpy kernels used by the tensor layer
        self.np_add = np.maximum if maximizing else np.minimum
        self.np_reduce_add = np.max if maximizing else np.min

    def __repr__(self) -> str:
        return f"Semifield({self.name!r})"

    # -- scalar construction ------------------------------------------------

    def scalar(self, value: float) -> float:
        """Validate ``value`` as a scalar of this semifield.

        NaN and the infinity opposite to the zero element are rejected:
        neither has a semifield meaning and both would corrupt order
        comparisons.
        """
        x = float(value)
        if math.isnan(x):
            raise DomainError("NaN is not a semifield scalar")
        if math.isinf(x) and x != self.zero:
            raise DomainError(
                f"{x!r} is not a {self.name} scalar (zero element is {self._zero_token})"
            )
        return x

    # -- arithmetic ----------------------------------------------------------

    def add(self, x: float, y: float) -> float:
        """Idempotent addition: ``max`` (max-plus) or ``min`` (min-plus)."""
        return max(x, y) if self._maximizing else min(x, y)

    def mul(self, x: float, y: float) -> float:
        """Multiplication is ordinary addition; the zero element absorbs."""
        return x + y

    def inv(self, x: float) -> float:
        """Multiplicative inverse. The zero element has no inverse."""
        if x == self.zero:
            raise DomainError("zero element has no inverse")
        return 0.0 if x == 0.0 else -x

    def rational_pow(self, x: float, p: Fraction | int) -> float:
        """Raise ``x`` to an exact rational power.

        In an extended-real semifield a power is exponent scaling, so
        ``x ** (p/q)`` is the real number ``x * p / q``.  ``p`` must be an
        ``int`` or :class:`fractions.Fraction`; floats are rejected to
        avoid exponent parsing ambiguity.  The k-th root ``p = 1/k`` costs
        one correctly rounded division.
        """
        if isinstance(p, float):
            raise TypeError("rational_pow wants an int or Fraction exponent, not float")
        p = Fraction(p)
        if x == self.zero:
            if p > 0:
                return self.zero
            raise DomainError("zero element admits only positive powers")
        y = x if p.numerator == 1 else x * p.numerator
        return y / p.denominator if p.denominator != 1 else y

    # -- order ----------------------------------------------------------------

    def leq(self, x: float, y: float) -> bool:
        """Order induced by addition: true iff ``x (+) y == y``."""
        return x <= y if self._maximizing else y <= x

    def lt(self, x: float, y: float) -> bool:
        return self.leq(x, y) and x != y

    # -- text tokens -----------------------------------------------------------

    def format_scalar(self, x: float) -> str:
        """Render a scalar token: ``-inf``/``inf`` for the zero element,
        integers without a decimal point, shortest round-trip decimal
        otherwise."""
        if x == self.zero:
            return self._zero_token
        if x == int(x):
            return str(int(x))
        return repr(x)

    def parse_scalar(self, token: str) -> float:
        """Parse a scalar token. Inverse of :meth:`format_scalar`."""
        tok = token.strip()
        if tok == self._zero_token or (tok == "+inf" and self._zero_token == "inf"):
            return self.zero
        try:
            value = float(tok)
        except ValueError:
            raise ParseError(f"malformed scalar token {token!r}") from None
        try:
            return self.scalar(value)
        except DomainError as exc:
            raise ParseError(f"invalid {self.name} scalar token {token!r}: {exc}") from None


MAX_PLUS = Semifield("max-plus", zero=-math.inf, maximizing=True)
MIN_PLUS = Semifield("min-plus", zero=math.inf, maximizing=False)

_BY_NAME = {"max-plus": MAX_PLUS, "min-plus": MIN_PLUS}


def semifield_by_name(name: str) -> Semifield:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise DomainError(f"unknown semifield {name!r}") from None

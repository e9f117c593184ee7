"""Exact one-variable Laurent polynomials with integer coefficients."""

from __future__ import annotations

from typing import Iterable, Mapping, Union


class LaurentPolynomial:
    """Polynomial in t and 1/t over the integers.

    Immutable; only nonzero coefficients are stored, keyed by exponent.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Union[Mapping[int, int], Iterable[tuple[int, int]], None] = None):
        acc: dict[int, int] = {}
        if coeffs is not None:
            # dict first: the exact type check is far cheaper than the ABC one
            items = coeffs.items() if isinstance(coeffs, (dict, Mapping)) else coeffs
            for e, c in items:
                acc[int(e)] = acc.get(int(e), 0) + int(c)
        object.__setattr__(self, "_coeffs", {e: c for e, c in acc.items() if c})

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPolynomial is immutable")

    @classmethod
    def term(cls, coeff: int, exp: int = 0) -> "LaurentPolynomial":
        return cls({exp: coeff})

    def items(self) -> list[tuple[int, int]]:
        """(exponent, coefficient) pairs, descending by exponent."""
        return sorted(self._coeffs.items(), key=lambda ec: -ec[0])

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def is_unit(self) -> bool:
        """True for the units of Z[t, 1/t], the monomials ±t^m."""
        return len(self._coeffs) == 1 and abs(next(iter(self._coeffs.values()))) == 1

    def degree_range(self) -> tuple[int, int] | None:
        """(min exponent, max exponent), or None for the zero polynomial."""
        if not self._coeffs:
            return None
        exps = self._coeffs.keys()
        return min(exps), max(exps)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPolynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPolynomial({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPolynomial(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    def evaluate_unit(self, v: int) -> int:
        """Exact value at t = v for v in {1, -1} (the only integer units)."""
        if v not in (1, -1):
            raise ValueError("evaluate_unit accepts only 1 or -1")
        return sum(c * (v ** (e & 1)) if v == -1 else c for e, c in self._coeffs.items())

    def evaluate_mod(self, p: int, u: int) -> int:
        """Value at t = u in Z/p for a prime p and a unit u (1 <= u < p)."""
        if not 1 <= u < p:
            raise ValueError("u must satisfy 1 <= u < p")
        total = 0
        for e, c in self._coeffs.items():
            # u^(p-1) = 1 mod p, so negative exponents reduce cleanly
            total += c * pow(u, e % (p - 1), p)
        return total % p

    def unit_canonical(self) -> "LaurentPolynomial":
        """Representative of the class {±t^m · self}: lowest exponent 0,
        lowest-degree coefficient positive."""
        if not self._coeffs:
            return LaurentPolynomial()
        lo = min(self._coeffs)
        shifted = {e - lo: c for e, c in self._coeffs.items()}
        if shifted[0] < 0:
            shifted = {e: -c for e, c in shifted.items()}
        return LaurentPolynomial(shifted)

    def __str__(self):
        if not self._coeffs:
            return "0"
        parts = []
        for i, (e, c) in enumerate(self.items()):
            text = f"{c}*t^{e}"
            if i and c > 0:
                text = "+" + text
            parts.append(text)
        return "".join(parts)

    def __repr__(self):
        return f"LaurentPolynomial({dict(sorted(self._coeffs.items()))!r})"


def _coerce(value):
    if isinstance(value, LaurentPolynomial):
        return value
    if isinstance(value, int):
        return LaurentPolynomial({0: value})
    return NotImplemented


ZERO = LaurentPolynomial()
ONE = LaurentPolynomial({0: 1})
T = LaurentPolynomial({1: 1})
T_INV = LaurentPolynomial({-1: 1})

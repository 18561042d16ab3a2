"""Truncated Taylor expansions at a point of F_P^n, with P = 2^61 - 1.

A :class:`Jet` of order N stands for a rational function f near a point q.
It holds the Taylor coefficients ``f_a = (∂^a f)(q) / a!`` for every
multi-index a with |a| <= N, as Python ints reduced mod P.  Sums and
products of jets are the jets of the sums and products, truncated at the
smaller order.  ``∂_i`` sends the coefficient ``f_{a+e_i}`` to
``(a_i + 1) f_{a+e_i}`` at a and lowers the order by one, so no factorial
is ever divided.  A value is read after at most ORDER derivatives of the
expanded inputs, which their coefficients determine; an order-0 jet has no
derivative, which stops a longer chain.  Integers enter as constants, whose
expansion is exact at every order.

:meth:`Jet.from_expr` expands an expression's numerator and denominator
at q + h, term by term, and inverts the denominator as a geometric series.
It raises ZeroDivisionError when the denominator vanishes at q mod P.  With
no coordinates, the jet is a constant: the expression's value at q mod P.

Why the values prove ranks is set out in :mod:`engelkit.forms`.  This
module computes in integers only.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import product
from math import comb
from typing import Mapping, Sequence

__all__ = ["P", "ORDER", "Jet", "point_value"]

P = (1 << 61) - 1
# Third derivatives of the frame reach the rows of L_X^3 θ in type_of.
ORDER = 3


def point_value(name: str) -> int:
    """The value in F_P of the variable ``name`` at the seeded point.

    Drawn from a generator seeded by the name alone, so it does not depend
    on the expression or on the interpreter's hash seed.
    """
    return random.Random(f"jets/{name}").randrange(P)


class _Tables:
    """Index tables for the monomials of degree <= ORDER in ``dim`` variables.

    Monomials are numbered by degree, so those of degree <= d are the
    indices below ``count[d]`` and truncation is an index comparison.
    """

    def __init__(self, dim: int):
        monomials = sorted((m for m in product(range(ORDER + 1), repeat=dim)
                            if sum(m) <= ORDER), key=lambda m: (sum(m), m))
        index = {m: k for k, m in enumerate(monomials)}
        self.dim = dim
        self.index = index
        self.count = [sum(1 for m in monomials if sum(m) <= d) for d in range(ORDER + 1)]
        # product[d][i]: j -> index of m_i * m_j, when its degree is <= d
        self.product = [
            [{j: index[tuple(map(sum, zip(mi, mj)))]
              for j, mj in enumerate(monomials) if sum(mi) + sum(mj) <= d}
             for mi in monomials]
            for d in range(ORDER + 1)]
        # derivative[v][i]: (index of m_i - e_v, exponent of v in m_i), or None
        self.derivative = [
            [(index[m[:v] + (m[v] - 1,) + m[v + 1:]], m[v]) if m[v] else None
             for m in monomials]
            for v in range(dim)]


@lru_cache(maxsize=None)
def _tables(dim: int) -> _Tables:
    return _Tables(dim)


class Jet:
    """Taylor coefficients mod P of a function at a point, up to an order."""

    __slots__ = ("coeffs", "order", "tables")

    def __init__(self, coeffs: dict[int, int], order: int, tables: _Tables):
        self.coeffs = coeffs  # monomial index -> nonzero coefficient mod P
        self.order = order
        self.tables = tables

    @staticmethod
    def constant(c: int, dim: int) -> "Jet":
        c %= P
        return Jet({0: c} if c else {}, ORDER, _tables(dim))

    @staticmethod
    def from_expr(expr, coordinates: Sequence[str], values: Mapping[str, int]) -> "Jet":
        """The order-ORDER jet of ``expr`` at the point ``values``.

        ``coordinates`` name the jet's variables in order; every other
        variable of ``expr`` is a constant with its value from ``values``.
        """
        tables = _tables(len(coordinates))
        names, numer, denom = expr.polynomial_terms()
        top = Jet(_expand(numer, names, coordinates, values, tables), ORDER, tables)
        bottom = Jet(_expand(denom, names, coordinates, values, tables), ORDER, tables)
        d0 = bottom.value
        if d0 == 0:
            raise ZeroDivisionError("the denominator vanishes at the point mod P")
        inverse = pow(d0, -1, P)
        # 1/D = (1/d0) * sum_k (-u)^k with u = D/d0 - 1, which has no constant term
        u = bottom * inverse - 1
        series = 1
        for _ in range(ORDER):
            series = 1 - u * series
        return top * series * inverse

    @property
    def value(self) -> int:
        return self.coeffs.get(0, 0)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def zero(self) -> "Jet":
        return Jet({}, ORDER, self.tables)

    def _lift(self, other) -> "Jet":
        if isinstance(other, Jet):
            return other
        if isinstance(other, int) and not isinstance(other, bool):
            return Jet.constant(other, self.tables.dim)
        return NotImplemented

    def __add__(self, other) -> "Jet":
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        order = min(self.order, other.order)
        limit = self.tables.count[order]
        out = {i: c for i, c in self.coeffs.items() if i < limit}
        for i, c in other.coeffs.items():
            if i < limit:
                s = (out.get(i, 0) + c) % P
                if s:
                    out[i] = s
                else:
                    out.pop(i, None)
        return Jet(out, order, self.tables)

    def __neg__(self) -> "Jet":
        return Jet({i: P - c for i, c in self.coeffs.items()}, self.order, self.tables)

    def __sub__(self, other) -> "Jet":
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Jet":
        return -self + other

    def __mul__(self, other) -> "Jet":
        if isinstance(other, int) and not isinstance(other, bool):
            other %= P
            return Jet({i: c * other % P for i, c in self.coeffs.items()} if other else {},
                       self.order, self.tables)
        if not isinstance(other, Jet):
            return NotImplemented
        order = min(self.order, other.order)
        rows = self.tables.product[order]
        out: dict[int, int] = {}
        for i, a in self.coeffs.items():
            row = rows[i]
            for j, b in other.coeffs.items():
                k = row.get(j)
                if k is not None:
                    out[k] = out.get(k, 0) + a * b
        return Jet({k: c % P for k, c in out.items() if c % P}, order, self.tables)

    def partial(self, v: int) -> "Jet":
        """``∂_v``: one order lower."""
        if self.order == 0:
            raise ValueError("an order-0 jet has no derivative")
        shift = self.tables.derivative[v]
        out = {}
        for i, c in self.coeffs.items():
            target = shift[i]
            if target is not None:
                out[target[0]] = c * target[1] % P
        return Jet(out, self.order - 1, self.tables)


def _expand(terms, names: Sequence[str], coordinates: Sequence[str],
            values: Mapping[str, int], tables: _Tables) -> dict[int, int]:
    """Taylor coefficients mod P at ``values`` of the polynomial ``terms``.

    Each coordinate is shifted in turn, ``x^e = sum_k C(e, k) q^(e-k) h^k``
    for k up to the degree still free; a key holds the h exponents of the
    coordinates already shifted and the x exponents of the others.
    """
    dim = len(coordinates)
    where = [coordinates.index(n) if n in coordinates else None for n in names]
    current: dict[tuple[int, ...], int] = {}
    for mon, c in terms:
        key = [0] * dim
        for name, pos, e in zip(names, where, mon):
            if not e:
                continue
            if pos is None:
                c = c * pow(values[name], e, P) % P
            else:
                key[pos] = e
        key = tuple(key)
        current[key] = (current.get(key, 0) + c) % P
    for v in range(dim):
        q = values[coordinates[v]]
        shifted: dict[tuple[int, ...], int] = {}
        for key, c in current.items():
            e = key[v]
            free = ORDER - sum(key[:v])
            for k in range(min(e, free) + 1):
                new = key[:v] + (k,) + key[v + 1:]
                shifted[new] = shifted.get(new, 0) + c * comb(e, k) * pow(q, e - k, P)
        current = {key: c % P for key, c in shifted.items()}
    index = tables.index
    return {index[key]: c for key, c in current.items() if c}

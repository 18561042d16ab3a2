"""Exact arithmetic on multivariate rational functions.

Values are quotients of multivariate polynomials with arbitrary-precision
integer coefficients, kept in canonical form (coprime numerator/denominator,
denominator with positive leading coefficient under graded lexicographic
order).  Everything is immutable and all operations are pure, so values can
be shared freely between threads.

Variables carry a *kind* that controls differentiation:

* coordinates ``x0..x5``, ``y0..y5`` -- ordinary chart coordinates,
* jet symbols ``t`` and ``t_`` followed by a run of ``x0..x4`` (``t_x1``,
  ``t_x1x3``, ``t_x0x0x4``, ...) -- unknown-function symbols of any order,
  named with the run sorted; differentiating a jet by ``xi`` appends ``xi``,
* group parameters ``s0..s8``, ``delta`` -- fibre coordinates of the
  structure bundle,
* free parameters -- any other identifier; transcendental constants with
  derivative zero.

The sparse polynomial arithmetic itself, and the factorisation of
irreducibles not met before, are delegated to :mod:`sympy.polys`; this
module owns the canonical-form contract and the cancellation rules below,
the variable-kind semantics, the grammar and the evaluation rules.

The field operations cancel on cofactors, not on the full product that
sympy's ``FracElement`` arithmetic cancels with one GCD (Henrici's rules,
Knuth, TAOCP vol. 2, 4.5.1).  The canonical pair is unique: a coprime
pair is determined up to a sign, and the sign is fixed by making the
denominator's grlex leading coefficient positive, as ``cancel`` does.  So
each rule below only has to return *some* coprime pair, and each is
coprime for the reason given, for inputs ``n1/d1``, ``n2/d2``, ``n/d``
that are coprime themselves:

1. Product: with ``g1 = gcd(n1, d2)`` and ``g2 = gcd(n2, d1)``, the pair
   ``(n1/g1 * n2/g2, d1/g2 * d2/g1)`` is coprime, since every factor on
   one side is coprime to every factor on the other.  No GCD is taken
   against a denominator 1.  The quotient is the product with ``n2/d2``
   turned over.
2. Sum: against a polynomial, ``(n1 + n2*d1, d1)`` is coprime, since a
   common factor of it and ``d1`` would divide ``n1``.  Otherwise, with
   ``g = gcd(d1, d2)`` (``g = d1`` when ``d1 == d2``) and
   ``t = n1*(d2/g) + n2*(d1/g)``, ``t`` is coprime to ``d1/g`` and to
   ``d2/g`` (each divides one summand and is coprime to the other), so any
   common factor of ``t`` and the lcm ``(d1/g)*(d2/g)*g`` divides ``g``:
   only ``gcd(t, g)`` is taken, and none when ``g`` is a unit.
3. Partial derivative by ``x`` (reduced quotient rule): with
   ``h = gcd(d, d_x)``, the result is ``N/D`` for
   ``N = n_x*(d/h) - n*(d_x/h)`` and ``D = d*(d/h)``.  An irreducible
   ``p`` that involves ``x`` with ``p^k || d`` has ``p^(k-1) || d_x``, so
   ``p || d/h`` and ``N = -n*(d_x/h)`` modulo ``p``, which is nonzero.
   Only the ``x``-free factors of ``d`` (with its integer content) can
   cancel, and they divide ``h`` fully, so ``gcd(N, D) = gcd(N, d)``.  When
   some coefficient of ``d`` as a polynomial in ``x`` is an integer, the
   ``x``-free part of ``d`` divides it, and the GCD is one of integers.
   When ``d`` is free of ``x``, the result is ``n_x/d`` after one GCD.
4. Coprimality test before every GCD: if some coefficient of ``f``, as a
   polynomial in the variables that ``g`` lacks, is an integer, then
   ``gcd(f, g)``, which involves only variables of ``g`` and divides every
   such coefficient, divides that integer; it is the GCD of the integer
   contents.  Disjoint supports are the special case where every
   coefficient is an integer.  A GCD with a monomial needs no test: sympy
   takes it in one pass over the other operand.
5. Factor base, for a GCD of two polynomials that rule 4 cannot decide:
   the shorter operand ``f`` is split as ``f = u * p1^e1 * ... * pr^er``,
   with ``u`` an integer and the ``pi`` distinct primitive irreducibles
   with positive leading coefficient, kept in a base of those met so far.
   A split is read from the base's record of splits, or found by dividing
   ``f`` by each base irreducible to its full power; only a leftover that
   is not an integer goes to sympy's ``factor_list`` (once), and its
   factors join the base.  Then
   ``gcd(f, g) = gcd(|u|, content(g)) * prod pi^min(ei, v_pi(g))``, with
   ``v_pi(g)`` the multiplicity found by trial division of ``g``.  This is
   exact: ``Z[x]`` has unique factorisation, ``|u|`` is the content of
   ``f`` since a product of primitive polynomials is primitive (Gauss's
   lemma), and distinct primitive irreducibles with positive leading
   coefficient are pairwise coprime.  The result does not depend on the
   order of the base or on what it holds.
   The base lives for one CLI command (``factor_base``); outside any
   command a default base per thread starts again empty when it grows past
   a fixed size.

Each value lives in the field over its own variables, sorted by name.  A
binary operation first re-embeds both operands into the field over the
merged variables, and restricting to the occurring variables (for hashing)
is the reverse move.  Both move each monomial's exponents to cached integer
positions and keep the numerator/denominator pair as it is, with no
cancel: adding or dropping variables that occur nowhere leaves the pair
coprime, and since both variable orders are sorted by name, one is a
subsequence of the other, so the graded lexicographic leading term of the
denominator, and with it the sign normalisation, does not change.
"""

from __future__ import annotations

import enum
import re
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import isqrt
from operator import itemgetter
from typing import Iterable, Mapping, Union

from sympy import ZZ
from sympy.polys.fields import field as _sympy_field
from sympy.polys.orderings import grlex

from .linalg import rank

__all__ = [
    "VarKind",
    "Var",
    "Expr",
    "ExprError",
    "SyntaxExprError",
    "DivisionByZeroError",
    "PoleError",
    "UnassignedVariableError",
    "VariableKindError",
    "symbol",
    "integer",
    "rational",
    "parse",
    "diff",
    "partial",
    "substitute",
    "evaluate",
    "factor_base",
    "jet_order",
]

Number = Union[int, Fraction, float]


class ExprError(Exception):
    """Base class for errors raised by the symbolic layer."""


class SyntaxExprError(ExprError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class DivisionByZeroError(ExprError):
    pass


class PoleError(ExprError):
    pass


class UnassignedVariableError(ExprError):
    pass


class VariableKindError(ExprError):
    pass


class VarKind(enum.Enum):
    COORDINATE = "coordinate"
    JET = "jet"
    GROUP = "group-parameter"
    FREE = "free-parameter"


_COORDINATES = {f"x{i}" for i in range(6)} | {f"y{i}" for i in range(6)}
_GROUP = {f"s{i}" for i in range(9)} | {"delta"}
_JET_RE = re.compile(r"^t(?:_((?:x[0-4])+))?$")
_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")


def _jet_indices(name: str) -> list[int] | None:
    """The sorted coordinate indices of a jet symbol name, None for other names."""
    m = _JET_RE.match(name)
    if m is None:
        return None
    return sorted(int(i) for i in (m.group(1) or "")[1::2])


def jet_order(name: str) -> int | None:
    """Jet order of a jet symbol name, or None for non-jet names."""
    indices = _jet_indices(name)
    return None if indices is None else len(indices)


def canonical_jet_name(indices: Iterable[int]) -> str:
    """``t`` or ``t_`` followed by the sorted run ``x<i>`` of the indices."""
    idx = sorted(indices)
    return "t_" + "".join(f"x{i}" for i in idx) if idx else "t"


def default_kind(name: str) -> VarKind:
    if name in _COORDINATES:
        return VarKind.COORDINATE
    if jet_order(name) is not None:
        return VarKind.JET
    if name in _GROUP:
        return VarKind.GROUP
    return VarKind.FREE


@dataclass(frozen=True)
class Var:
    name: str
    kind: VarKind


def _canonicalize_name(name: str) -> str:
    indices = _jet_indices(name)
    return name if indices is None else canonical_jet_name(indices)


def make_var(name: str, kind: VarKind | None = None) -> Var:
    """Resolve a variable name to a Var, canonicalizing jet index order."""
    name = _canonicalize_name(name)
    if not _IDENT_RE.match(name):
        raise ExprError(f"invalid variable name {name!r}")
    dk = default_kind(name)
    if kind is None:
        kind = dk
    elif dk is not VarKind.FREE and kind is not dk:
        raise VariableKindError(
            f"variable {name!r} has reserved kind {dk.value}, cannot declare as {kind.value}"
        )
    return Var(name, kind)


@lru_cache(maxsize=None)
def _field_for(names: tuple[str, ...]):
    if not names:
        fld = _sympy_field("", ZZ, grlex)[0]
        return fld, {}
    parts = _sympy_field(",".join(names), ZZ, grlex)
    fld, gens = parts[0], parts[1:]
    return fld, dict(zip(names, gens))


@lru_cache(maxsize=None)
def _monomial_map(src: tuple[str, ...], dst: tuple[str, ...]):
    """Map a monomial over ``src`` to one over ``dst``.

    Position ``k`` of the result reads position ``src.index(dst[k])`` of the
    source, or a padding 0 where ``src`` lacks ``dst[k]``; source positions
    absent from ``dst`` are dropped.  Keyed by name tuples, so the cache
    grows with the variable sets met, not with the values.
    """
    pick = tuple(src.index(name) if name in src else len(src) for name in dst)
    if not pick:
        return lambda mon: ()
    get = itemgetter(*pick)
    if len(pick) == 1:
        return lambda mon: (get(mon + (0,)),)
    return lambda mon: get(mon + (0,))


def _reembed(elem, src: tuple[str, ...], dst: tuple[str, ...]):
    """``elem`` over the names ``src``, rewritten over the names ``dst``.

    Exact without a cancel: see the module docstring.  Every name of ``src``
    missing from ``dst`` must have exponent 0 throughout.
    """
    fld, _ = _field_for(dst)
    ring = fld.ring
    move = _monomial_map(src, dst)
    numer = ring.dtype({move(mon): c for mon, c in elem.numer.items()})
    denom = ring.dtype({move(mon): c for mon, c in elem.denom.items()})
    return fld.raw_new(numer, denom)


def _merge_vars(a: tuple[Var, ...], b: tuple[Var, ...]) -> tuple[Var, ...]:
    if a == b or not b:
        return a
    if not a:
        return b
    byname: dict[str, Var] = {v.name: v for v in a}
    for v in b:
        prev = byname.get(v.name)
        if prev is None:
            byname[v.name] = v
        elif prev.kind is not v.kind:
            raise VariableKindError(
                f"conflicting kinds for variable {v.name!r}: "
                f"{prev.kind.value} vs {v.kind.value}"
            )
    return tuple(sorted(byname.values(), key=lambda v: v.name))


# -- canonical pairs: cancellation on cofactors -------------------------------
#
# The helpers below take and return (numerator, denominator) pairs of
# polynomials in one ring; see the module docstring for why each result is
# the canonical pair.


def _normal(numer, denom):
    """The pair with the denominator's leading coefficient made positive."""
    if denom.LC < 0:
        return -numer, -denom
    return numer, denom


def _occurs(poly) -> tuple[bool, ...]:
    """For each variable position, whether it occurs in the nonzero ``poly``."""
    return tuple(map(any, zip(*poly.itermonoms())))


def _has_integer_coefficient(poly, free) -> bool:
    """Whether some coefficient of ``poly``, as a polynomial in the variables
    at the positions where ``free`` is true, is an integer: whether some
    monomial in those variables alone is the ``free`` part of no other."""
    alone, shared = set(), set()
    for mon in poly.itermonoms():
        part = tuple([e if f else 0 for e, f in zip(mon, free)])
        (alone if part == mon else shared).add(part)
    return not alone <= shared


def _coprime_by_supports(f, g) -> bool:
    """The coprimality test (rule 4): whether some coefficient of ``f``, as
    a polynomial in the variables that ``g`` lacks, is an integer, or the
    same with ``f`` and ``g`` swapped; then ``gcd(f, g)`` is an integer."""
    in_f, in_g = _occurs(f), _occurs(g)
    return (_has_integer_coefficient(f, [a and not b for a, b in zip(in_f, in_g)])
            or _has_integer_coefficient(g, [b and not a for a, b in zip(in_f, in_g)]))


def _content_cofactors(f, g):
    """``_cofactors`` when ``gcd(f, g)`` is known to be an integer."""
    c = f.content()
    if c != 1:
        c = ZZ.gcd(c, g.content())
    if c == 1:
        return f.ring.one, f, g
    return f.ring.ground_new(c), f.quo_ground(c), g.quo_ground(c)


def _cofactors(f, g):
    """``(h, f/h, g/h)`` for ``h = gcd(f, g)`` and nonzero ``f``, ``g``.

    Exact coprimality test first: if some coefficient of ``f``, as a
    polynomial in the variables that ``g`` lacks, is an integer (or the same
    with ``f`` and ``g`` swapped), then ``h`` divides that integer, so ``h``
    is the GCD of the integer contents and no polynomial GCD is taken.  A
    monomial needs no test: sympy takes its GCD in one pass.  Otherwise the
    shorter operand is split over the factor base (rule 5).
    """
    if len(f) == 1 or len(g) == 1:
        return f.cofactors(g)  # sympy's one-pass rule for a monomial
    if _coprime_by_supports(f, g):
        return _content_cofactors(f, g)
    if len(g) < len(f):
        h, cg, cf = _current_base().cofactors(g, f)
        return h, cf, cg
    return _current_base().cofactors(f, g)


# -- the factor base (rule 5) ---------------------------------------------------

# A base that holds more splits than this starts again empty, so that the
# memory of a long-lived base (the default one of library use) stays bounded.
_BASE_LIMIT = 4096


def _total_degree(poly) -> int:
    return max(map(sum, poly.itermonoms()))


def _exquo(f, p):
    """``f/p`` when ``p`` divides ``f`` exactly, else None.

    Division in graded lexicographic order with a heap of the remainder's
    monomials: when ``p`` divides, every leading term of the remainder is a
    multiple of ``p``'s, so the first one that is not proves ``p`` does not
    divide, and the division stops there.
    """
    (lm, lc), *rest = sorted(p.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)
    remainder = dict(f)
    heap = [(-sum(m), tuple([-e for e in m]), m) for m in remainder]
    heapify(heap)
    quotient = {}
    while heap:
        m = heappop(heap)[2]
        c = remainder.pop(m, 0)
        if not c:
            continue  # cancelled, or a second entry of one monomial
        qm = tuple([a - b for a, b in zip(m, lm)])
        qc, r = divmod(c, lc)
        if r or min(qm) < 0:
            return None
        quotient[qm] = qc
        for mon, co in rest:
            mm = tuple([a + b for a, b in zip(qm, mon)])
            v = remainder.get(mm, 0) - qc * co
            if v:
                if mm not in remainder:
                    heappush(heap, (-sum(mm), tuple([-e for e in mm]), mm))
                remainder[mm] = v
            else:
                remainder.pop(mm, None)
    return f.ring.dtype(quotient)


def _divide_out(f, p, bound: int | None = None):
    """``(k, f/p^k)`` for the largest ``k`` with ``p^k | f``, at most
    ``bound`` when one is given."""
    k = 0
    while bound is None or k < bound:
        q = _exquo(f, p)
        if q is None:
            break
        f, k = q, k + 1
    return k, f


def _proved_irreducible(f) -> bool:
    """Whether ``f``, primitive and not a monomial, is proved irreducible
    without factoring it, by one of two certificates:

    * A variable ``x`` of degree 1.  Write ``f = a*x + b`` with ``a``, ``b``
      free of ``x``: a factor free of ``x`` divides both, and the other
      factor has degree 1 in ``x``, so ``f`` is irreducible when
      ``gcd(a, b)`` is an integer, which then divides the content 1 of
      ``f``.  That is decided only where no polynomial GCD is needed: when
      ``a`` or ``b`` is a monomial (sympy's one-pass rule) or by the
      coprimality test (rule 4).
    * Total degree 2 and a homogenised quadric that does not split over Q.
      A factorisation of ``f`` is one into two linear polynomials, and
      their homogenised product ``L1*L2`` has the symmetric matrix
      ``(L1 L2^T + L2 L1^T)/2``, of rank at most 2.  At rank 2 the form is
      ``d1*y1^2 + d2*y2^2`` in rational coordinates, and it splits over Q
      exactly when ``-d1*d2`` is a square; ``d1*d2`` is, up to a square,
      any nonzero principal 2x2 minor, since a nondegenerate coordinate
      plane is a complement of the radical.
    """
    ring = f.ring
    for i, degree in enumerate(map(max, zip(*f.itermonoms()))):
        if degree != 1:
            continue
        a, b = {}, {}
        for mon, c in f.items():
            if mon[i]:
                a[mon[:i] + (0,) + mon[i + 1:]] = c
            else:
                b[mon] = c
        if not b:
            continue
        a, b = ring.dtype(a), ring.dtype(b)
        if len(a) == 1 or len(b) == 1:
            if a.cofactors(b)[0].is_ground:
                return True
        elif _coprime_by_supports(a, b):
            return True
    return _total_degree(f) == 2 and not _quadric_splits(f)


def _quadric_splits(f) -> bool:
    """Whether the homogenised ``f`` of total degree 2 is a product of
    two linear forms over Q, from twice its symmetric matrix."""
    occurring = [i for i, used in enumerate(_occurs(f)) if used]
    n = len(occurring)
    matrix = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    for mon, c in f.items():
        index = [k for k, pos in enumerate(occurring) for _ in range(mon[pos])]
        i, j = (index + [n, n])[:2]  # n stands for the homogenising variable
        matrix[i][j] += c
        matrix[j][i] += c
    r = rank(matrix)
    if r != 2:
        return r < 2
    minor = next(d for i in range(n + 1) for j in range(i + 1, n + 1)
                 if (d := matrix[i][i] * matrix[j][j] - matrix[i][j] ** 2))
    return -minor > 0 and isqrt(int(-minor)) ** 2 == -minor


def _factor(f):
    """sympy's ``factor_list`` of the non-constant ``f``, with a monomial
    and a polynomial that ``_proved_irreducible`` certifies read off
    directly."""
    if len(f) == 1:
        [(mon, c)] = f.items()
        return c, [(gen, e) for gen, e in zip(f.ring.gens, mon) if e]
    c, prime = f.primitive()
    if _proved_irreducible(prime):
        return c, [(prime, 1)]
    return f.factor_list()


class _FactorBase:
    """Primitive irreducible polynomials met so far, and how each polynomial
    already split factors over them (rule 5 of the module docstring).

    ``primes`` maps a polynomial ring to the irreducibles met in it, each
    once; ``splits`` maps a polynomial to its split over them,
    ``(unit, ((prime, exponent), ...))``.
    """

    __slots__ = ("primes", "splits")

    def __init__(self):
        self.primes: dict = {}
        self.splits: dict = {}

    def _record(self, f, split) -> None:
        if len(self.splits) >= _BASE_LIMIT:
            self.primes, self.splits = {}, {}
        self.splits[f] = split

    def split(self, f):
        """``(unit, ((p, e), ...))`` with ``f == unit * prod(p**e)`` over
        distinct primes of the base: read from the record, else found by
        trial division by the base primes, with ``factor_list`` only for a
        leftover that is not an integer."""
        known = self.splits.get(f)
        if known is not None:
            return known
        primes = self.primes.setdefault(f.ring, [])
        factors = []
        rest = f
        for p in primes:
            k, rest = _divide_out(rest, p)
            if k:
                factors.append((p, k))
        if rest.is_ground:
            unit = int(rest.LC)
        else:
            unit, pieces = _factor(rest)
            unit = int(unit)
            for q, e in pieces:
                if q.LC < 0:
                    q = -q
                    unit *= (-1) ** e
                primes.append(q)
                factors.append((q, e))
        split = (unit, tuple(factors))
        self._record(f, split)
        return split

    def cofactors(self, f, g):
        """``_cofactors(f, g)`` by splitting ``f`` over the base: the GCD is
        the GCD ``c`` of the integer contents times ``p^min(e, v_p(g))`` for
        each ``p^e`` of the split, with ``v_p(g)`` found by trial division."""
        unit, factors = self.split(f)
        c = ZZ.gcd(unit, g.content())
        common = {}
        for p, e in factors:
            k, g = _divide_out(g, p, e)
            if k:
                common[p] = k
        ring = f.ring
        if not common:
            if c == 1:
                return ring.one, f, g
            return ring.ground_new(c), f.quo_ground(c), g.quo_ground(c)
        h = ring.ground_new(c)
        for p, k in common.items():
            h *= p ** k
            f = _divide_out(f, p, k)[1]
        if c != 1:
            f, g = f.quo_ground(c), g.quo_ground(c)
        self._record(h, (c, tuple(common.items())))
        self._record(f, (unit // c, tuple((p, e - common.get(p, 0))
                                          for p, e in factors if e > common.get(p, 0))))
        return h, f, g


# The base of the running command (see ``factor_base``), or, outside any
# scope, the default base of this thread or context.
_BASE: ContextVar[_FactorBase] = ContextVar("engelkit_factor_base")


def _current_base() -> _FactorBase:
    try:
        return _BASE.get()
    except LookupError:
        base = _FactorBase()
        _BASE.set(base)
        return base


@contextmanager
def factor_base():
    """Run the enclosed arithmetic over a new, empty factor base, dropped on
    exit.  Results do not depend on the base, only the time they take."""
    token = _BASE.set(_FactorBase())
    try:
        yield
    finally:
        _BASE.reset(token)


def _product(n1, d1, n2, d2):
    """``n1/d1 * n2/d2`` (Henrici): cancel across, then multiply."""
    if not n1 or not n2:
        return n1.ring.zero, n1.ring.one
    if d1.is_one and d2.is_one:
        return n1 * n2, d1
    if not d2.is_one:
        _, n1, d2 = _cofactors(n1, d2)
    if not d1.is_one:
        _, n2, d1 = _cofactors(n2, d1)
    return _normal(n1 * n2, d1 * d2)


def _sum(n1, d1, n2, d2):
    """``n1/d1 + n2/d2`` (Henrici): only ``gcd(d1, d2)`` can cancel."""
    if not n2:
        return n1, d1
    if not n1:
        return n2, d2
    if d1 == d2:
        t = n1 + n2
        if not t:
            return t, t.ring.one
        if d1.is_one:
            return t, d1
        _, t, d = _cofactors(t, d1)
        return _normal(t, d)
    if d2.is_one:
        return n1 + n2 * d1, d1
    if d1.is_one:
        return n1 * d2 + n2, d2
    # t is nonzero: a zero sum of canonical pairs has d1 == d2
    g, d1g, d2g = _cofactors(d1, d2)
    t = n1 * d2g + n2 * d1g
    if g != 1 and g != -1:
        _, t, g = _cofactors(t, g)
    return _normal(t, d1g * d2g * g)


def _partial(numer, denom, i: int):
    """``d(numer/denom)/dx`` for ``x`` at position ``i``, by the reduced
    quotient rule: only ``x``-free factors of ``denom`` can cancel."""
    ring = numer.ring
    nx = numer.diff(ring.gens[i])
    dx = denom.diff(ring.gens[i])
    if not dx:
        if not nx:
            return nx, ring.one
        if denom.is_one:
            return nx, denom
        _, nx, denom = _cofactors(nx, denom)
        return _normal(nx, denom)
    _, dh, dxh = _cofactors(denom, dx)
    top = nx * dh - numer * dxh
    if _has_integer_coefficient(denom, [k == i for k in range(ring.ngens)]):
        _, top, denom = _content_cofactors(top, denom)
    else:
        _, top, denom = _cofactors(top, denom)
    return _normal(top, denom * dh)


class Expr:
    """Canonical multivariate rational function with exact integer coefficients."""

    __slots__ = ("_elem", "_vars")

    def __init__(self, elem, variables: tuple[Var, ...]):
        self._elem = elem
        self._vars = variables

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_int(n: int) -> "Expr":
        fld, _ = _field_for(())
        return Expr(fld.raw_new(fld.ring.ground_new(n)), ())

    @staticmethod
    def from_fraction(q: Fraction) -> "Expr":
        fld, _ = _field_for(())
        ring = fld.ring
        return Expr(fld.raw_new(ring.ground_new(q.numerator),
                                ring.ground_new(q.denominator)), ())

    @staticmethod
    def symbol(name: str, kind: VarKind | None = None) -> "Expr":
        var = make_var(name, kind)
        fld, gens = _field_for((var.name,))
        return Expr(gens[var.name], (var,))

    # -- plumbing ----------------------------------------------------------

    def _in_field(self, variables: tuple[Var, ...]):
        if variables == self._vars:
            return self._elem
        return _reembed(self._elem, tuple(v.name for v in self._vars),
                        tuple(v.name for v in variables))

    @staticmethod
    def _coerce(value: "Expr | Number") -> "Expr":
        if isinstance(value, Expr):
            return value
        if isinstance(value, bool):
            raise ExprError("booleans are not valid scalars")
        if isinstance(value, int):
            return Expr.from_int(value)
        if isinstance(value, Fraction):
            return Expr.from_fraction(value)
        raise ExprError(f"cannot coerce {value!r} to Expr")

    def _binary(self, other: "Expr | Number", op: str) -> "Expr":
        other = Expr._coerce(other)
        variables = _merge_vars(self._vars, other._vars)
        a = self._in_field(variables)
        b = other._in_field(variables)
        if op == "+":
            pair = _sum(a.numer, a.denom, b.numer, b.denom)
        elif op == "-":
            pair = _sum(a.numer, a.denom, -b.numer, b.denom)
        elif op == "*":
            pair = _product(a.numer, a.denom, b.numer, b.denom)
        elif op == "/":
            if not b:
                raise DivisionByZeroError("division by the zero expression")
            pair = _product(a.numer, a.denom, b.denom, b.numer)
        else:
            raise AssertionError(op)
        return Expr(a.field.raw_new(*pair), variables)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        return self._binary(other, "+")

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, "-")

    def __rsub__(self, other):
        return Expr._coerce(other)._binary(self, "-")

    def __mul__(self, other):
        return self._binary(other, "*")

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary(other, "/")

    def __rtruediv__(self, other):
        return Expr._coerce(other)._binary(self, "/")

    def __neg__(self):
        return Expr(-self._elem, self._vars)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            raise ExprError("exponents must be integers")
        if exponent < 0 and self.is_zero:
            raise DivisionByZeroError("negative power of the zero expression")
        elem = self._elem ** exponent
        if exponent < 0:  # sympy swaps the pair without fixing the sign
            elem = elem.field.raw_new(*_normal(elem.numer, elem.denom))
        return Expr(elem, self._vars)

    # -- predicates and queries --------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._elem

    @property
    def is_constant(self) -> bool:
        return not self.occurring_vars()

    def occurring_vars(self) -> tuple[Var, ...]:
        """Variables that actually appear in the canonical form."""
        used = []
        for i, var in enumerate(self._vars):
            if self._elem.numer.degree(i) > 0 or self._elem.denom.degree(i) > 0:
                used.append(var)
        return tuple(used)

    def numerator(self) -> "Expr":
        return Expr(self._elem.field.new(self._elem.numer, self._elem.field.ring.one), self._vars)

    def denominator(self) -> "Expr":
        return Expr(self._elem.field.new(self._elem.denom, self._elem.field.ring.one), self._vars)

    def polynomial_terms(self) -> tuple[tuple[str, ...], list, list]:
        """The variable names, then the canonical numerator's and
        denominator's terms as ``(exponents, coefficient)`` pairs, with
        exponents in the order of the names and integer coefficients."""
        numer, denom = self._elem.numer, self._elem.denom
        return (tuple(v.name for v in self._vars),
                [(mon, int(c)) for mon, c in numer.items()],
                [(mon, int(c)) for mon, c in denom.items()])

    def _trim(self) -> "Expr":
        """Restrict to the occurring variables (canonical representative)."""
        occ = self.occurring_vars()
        if occ == self._vars:
            return self
        return Expr(_reembed(self._elem, tuple(v.name for v in self._vars),
                             tuple(v.name for v in occ)), occ)

    def _key(self):
        e = self._trim()
        num = tuple(sorted((mon, int(c)) for mon, c in e._elem.numer.terms()))
        den = tuple(sorted((mon, int(c)) for mon, c in e._elem.denom.terms()))
        return (tuple(v.name for v in e._vars), num, den)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Expr._coerce(other)
        if not isinstance(other, Expr):
            return NotImplemented
        return self._binary(other, "-").is_zero

    def __hash__(self):
        return hash(self._key())

    def __bool__(self):
        return not self.is_zero

    # -- calculus ----------------------------------------------------------

    def partial(self, name: str) -> "Expr":
        """Plain partial derivative with respect to a single variable."""
        name = _canonicalize_name(name)
        for i, var in enumerate(self._vars):
            if var.name == name:
                elem = self._elem
                return Expr(elem.field.raw_new(*_partial(elem.numer, elem.denom, i)),
                            self._vars)
        return Expr.from_int(0)

    def diff(self, name: str) -> "Expr":
        """Total derivative by a coordinate, with the jet chain rule.

        Differentiating a jet ``t_<run>`` by ``xi`` appends ``xi`` to its run
        (``t`` gives ``t_xi``, ``t_xj`` gives ``t_xixj``), in any order.
        """
        var = make_var(name)
        if var.kind is not VarKind.COORDINATE:
            raise VariableKindError(f"can only take total derivatives by coordinates, not {name!r}")
        result = self.partial(var.name)
        m = re.match(r"^x([0-4])$", var.name)
        if m is None:
            return result  # jets depend on x0..x4 only
        xi = int(m.group(1))
        for jet in self.occurring_vars():
            indices = _jet_indices(jet.name)
            if indices is None:
                continue
            chain = canonical_jet_name(indices + [xi])
            result = result + self.partial(jet.name) * Expr.symbol(chain)
        return result

    def substitute(self, mapping: Mapping[str, "Expr | Number"]) -> "Expr":
        """Replace variables by expressions; unmentioned variables survive."""
        repl = {_canonicalize_name(k): Expr._coerce(v) for k, v in mapping.items()}
        if not any(v.name in repl for v in self.occurring_vars()):
            return self

        def image(var: Var) -> Expr:
            return repl.get(var.name, Expr(
                _field_for((var.name,))[1][var.name], (var,)))

        def eval_poly(poly) -> Expr:
            total = Expr.from_int(0)
            for mon, coeff in poly.terms():
                term = Expr.from_int(int(coeff))
                for var, exp in zip(self._vars, mon):
                    if exp:
                        term = term * image(var) ** exp
                total = total + term
            return total

        num = eval_poly(self._elem.numer)
        den = eval_poly(self._elem.denom)
        if den.is_zero:
            raise DivisionByZeroError("substitution sends the denominator to zero")
        return num / den

    def evaluate(self, point: Mapping[str, Number]) -> Fraction | float:
        """Evaluate at a point; exact when all values are rational."""
        values: dict[str, Number] = dict(point)
        occurring = self.occurring_vars()
        missing = [v.name for v in occurring if v.name not in values]
        if missing:
            raise UnassignedVariableError(f"unassigned variables: {', '.join(missing)}")
        exact = all(not isinstance(values[v.name], float) for v in occurring)

        def eval_poly(poly):
            total = Fraction(0) if exact else 0.0
            for mon, coeff in poly.terms():
                term = Fraction(int(coeff)) if exact else float(coeff)
                for var, exp in zip(self._vars, mon):
                    if exp:
                        val = values[var.name]
                        term *= (Fraction(val) if exact else float(val)) ** exp
                total += term
            return total

        den = eval_poly(self._elem.denom)
        if den == 0:
            raise PoleError("denominator vanishes at the evaluation point")
        return eval_poly(self._elem.numer) / den

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        return _print_expr(self)

    def __repr__(self) -> str:
        return f"Expr({_print_expr(self)})"


# ---------------------------------------------------------------------------
# printing (grammar-conformant, deterministic)
# ---------------------------------------------------------------------------


def _print_monomial(names, mon, coeff: int) -> str:
    parts = []
    if coeff == -1:
        sign = "-"
    elif coeff < 0:
        sign = "-"
        parts.append(str(-coeff))
    elif coeff == 1:
        sign = ""
    else:
        sign = ""
        parts.append(str(coeff))
    for name, exp in zip(names, mon):
        if exp == 1:
            parts.append(name)
        elif exp > 1:
            parts.append(f"{name}^{exp}")
    if not parts:
        parts.append("1")
    return sign + "*".join(parts)


def _print_poly(names, poly) -> str:
    terms = poly.terms()
    if not terms:
        return "0"
    pieces = []
    for i, (mon, coeff) in enumerate(terms):
        text = _print_monomial(names, mon, int(coeff))
        if i == 0:
            pieces.append(text)
        elif text.startswith("-"):
            pieces.append(" - " + text[1:])
        else:
            pieces.append(" + " + text)
    return "".join(pieces)


def _needs_parens(names, poly) -> bool:
    terms = poly.terms()
    if len(terms) != 1:
        return True
    mon, coeff = terms[0]
    factors = sum(1 for e in mon if e) + (0 if int(coeff) in (1, -1) else 1)
    return int(coeff) < 0 or factors > 1


def _print_expr(e: Expr) -> str:
    names = [v.name for v in e._vars]
    num, den = e._elem.numer, e._elem.denom
    if den == e._elem.field.ring.one:
        return _print_poly(names, num)
    num_text = _print_poly(names, num)
    den_text = _print_poly(names, den)
    if _needs_parens(names, num):
        num_text = f"({num_text})"
    if _needs_parens(names, den):
        den_text = f"({den_text})"
    return f"{num_text}/{den_text}"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_pos = len(text) - len(stripped)
            raise SyntaxExprError(f"unexpected character {text[bad_pos]!r}", bad_pos)
        if m.group("int") is not None:
            tokens.append(("int", m.group("int"), m.start("int")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive-descent parser for the expression grammar.

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := atom ("^" integer)? | "-" factor
    atom   := integer | identifier | "(" expr ")"

    Parentheses and unary minus signs nest at most ``MAX_DEPTH`` deep, so
    that a deeply nested input is a syntax error and not a RecursionError.
    """

    MAX_DEPTH = 100

    def __init__(self, text: str, kinds: Mapping[str, VarKind]):
        self.tokens = _tokenize(text)
        self.kinds = kinds
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def nest(self, pos: int):
        self.depth += 1
        if self.depth > self.MAX_DEPTH:
            raise SyntaxExprError(
                f"parentheses and minus signs nested more than {self.MAX_DEPTH} deep", pos)

    def expect_op(self, op: str):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise SyntaxExprError(f"expected {op!r}", pos)
        return self.advance()

    def parse(self) -> Expr:
        value = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise SyntaxExprError("trailing input", pos)
        return value

    def expr(self) -> Expr:
        value = self.term()
        while True:
            kind, op, _ = self.peek()
            if kind == "op" and op in "+-":
                self.advance()
                rhs = self.term()
                value = value + rhs if op == "+" else value - rhs
            else:
                return value

    def term(self) -> Expr:
        value = self.factor()
        while True:
            kind, op, _ = self.peek()
            if kind == "op" and op in "*/":
                self.advance()
                pos = self.peek()[2]
                rhs = self.factor()
                if op == "*":
                    value = value * rhs
                else:
                    if rhs.is_zero:
                        raise SyntaxExprError("division by zero", pos)
                    value = value / rhs
            else:
                return value

    def factor(self) -> Expr:
        kind, op, pos = self.peek()
        if kind == "op" and op == "-":
            self.advance()
            self.nest(pos)
            value = -self.factor()
            self.depth -= 1
            return value
        value = self.atom()
        kind, op, pos = self.peek()
        if kind == "op" and op == "^":
            self.advance()
            sign = 1
            kind, text, pos = self.peek()
            if kind == "op" and text == "-":
                sign = -1
                self.advance()
                kind, text, pos = self.peek()
            if kind != "int":
                raise SyntaxExprError("expected integer exponent", pos)
            self.advance()
            exponent = sign * int(text)
            if exponent < 0 and value.is_zero:
                raise SyntaxExprError("division by zero", pos)
            value = value ** exponent
        return value

    def atom(self) -> Expr:
        kind, text, pos = self.advance()
        if kind == "int":
            return Expr.from_int(int(text))
        if kind == "ident":
            try:
                return Expr.symbol(text, self.kinds.get(_canonicalize_name(text)))
            except ExprError as exc:
                raise SyntaxExprError(str(exc), pos) from exc
        if kind == "op" and text == "(":
            self.nest(pos)
            value = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return value
        raise SyntaxExprError("expected a number, identifier or parenthesis", pos)


def parse(text: str, context: Mapping[str, VarKind | str] | None = None) -> Expr:
    """Parse expression text; undeclared identifiers default to free parameters."""
    kinds: dict[str, VarKind] = {}
    for name, kind in (context or {}).items():
        kinds[_canonicalize_name(name)] = VarKind(kind) if isinstance(kind, str) else kind
    return _Parser(text, kinds).parse()


# ---------------------------------------------------------------------------
# module-level convenience API
# ---------------------------------------------------------------------------


def symbol(name: str, kind: VarKind | str | None = None) -> Expr:
    if isinstance(kind, str):
        kind = VarKind(kind)
    return Expr.symbol(name, kind)


def integer(n: int) -> Expr:
    return Expr.from_int(n)


def rational(p: int, q: int = 1) -> Expr:
    if q == 0:
        raise DivisionByZeroError("zero denominator")
    return Expr.from_fraction(Fraction(p, q))


def diff(e: Expr, name: str) -> Expr:
    return e.diff(name)


def partial(e: Expr, name: str) -> Expr:
    return e.partial(name)


def substitute(e: Expr, mapping: Mapping[str, Expr | Number]) -> Expr:
    return e.substitute(mapping)


def evaluate(e: Expr, point: Mapping[str, Number]) -> Fraction | float:
    return e.evaluate(point)

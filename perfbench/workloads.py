"""Seeded inputs of the four benchmark workloads.

A workload is an endless sequence of rounds.  Every round holds the same
kinds of item in the same order; the run seed and the round number choose
the coefficients, the Kerr parameters and the points.  An item is either an
engelkit command line (run in-process through ``engelkit.cli.run``) or, for
the bundle workload, a marking handed to ``engel.tautological_forms``.

This module imports nothing from engelkit, so the inputs exist apart from
the program that is measured.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("invariants", "geometry", "bundle", "algebra")

# Monomial supports of the invariants markings: polynomials of degree <= 2
# drawn once, with the acceptance generator's rules, from a seed that no
# test uses (the acceptance suite draws with 20240 and 777).
SHAPE_SEED = 1809
SHAPE_COUNT = 10

# Geometry cost classes (seconds per item on the reference machine): hard
# ~13 s, Kerr family ~3 s, cheap ~0.4 s.  A round holds both hard markings,
# two Kerr markings and fourteen cheap ones, so the median item is cheap.
GEOMETRY_HARD = (
    "-x1*x4 + x1 + x2 - x3 + 1",
    "2*x1*x4 + x1 - x2 + x3 - 1",
)
GEOMETRY_CHEAP = ("{a}*x3", "{a}*x4", "{a}*x3^2", "{a}*x0", "{a}*x4^2",
                  "{a}*x1*x3", "{a}*x2*x4")

# Bundle: one zero, three linear and two quadratic markings, plus the flat
# reduction; the median item is a linear marking.
BUNDLE_LINEAR = ("{a}*x3 + {c}", "{a}*x4 + {c}", "{a}*x0 + {c}")
BUNDLE_QUADRATIC = ("{a}*x1*x2 + {b}*x3", "{a}*x0^2 + {b}*x1*x3")

KERR_F = "y2*t - (2*y3 - y1)"

COORDS = ("x0", "x1", "x2", "x3", "x4")
TRANSLATABLE = ("x0", "x3", "x4")


@dataclass
class Item:
    """One unit of work and what its independent check needs to know."""

    kind: str                       # which check applies
    argv: list[str] = field(default_factory=list)
    marking: str | None = None      # the marking t, when there is one
    meta: dict = field(default_factory=dict)


def _draw_shapes(seed: int, count: int) -> list[tuple[tuple[int, ...], ...]]:
    """Monomial supports drawn like the acceptance suite draws its markings."""
    rng = random.Random(seed)
    shapes: list[tuple[tuple[int, ...], ...]] = []
    while len(shapes) < count:
        monomials = set()
        for _ in range(rng.randint(1, 5)):
            monomials.add(tuple(sorted(rng.randrange(5)
                                       for _ in range(rng.randint(1, 2)))))
        shape = tuple(sorted(monomials, key=lambda m: (-len(m), m)))
        if shape not in shapes:
            shapes.append(shape)
    return shapes


SHAPES = _draw_shapes(SHAPE_SEED, SHAPE_COUNT)

# Each translatable coordinate is shifted in the first marking that uses it.
TRANSLATED = {x: next(k for k, shape in enumerate(SHAPES)
                      if any(int(x[1]) in m for m in shape))
              for x in TRANSLATABLE}


def _nonzero(rng: random.Random, bound: int = 3) -> int:
    return rng.choice([k for k in range(-bound, bound + 1) if k])


def _monomial(indices: tuple[int, ...]) -> str:
    if len(indices) == 2 and indices[0] == indices[1]:
        return f"x{indices[0]}^2"
    return "*".join(f"x{i}" for i in indices)


def polynomial_marking(shape, rng: random.Random) -> str:
    """The shape's monomials with seeded nonzero coefficients and a constant."""
    terms = [f"{_nonzero(rng)}*{_monomial(m)}" for m in shape]
    terms.append(str(rng.randint(-2, 2)))
    return " + ".join(terms)


def kerr_parameter(rng: random.Random) -> int:
    """A Kerr-family parameter s.

    Integers keep the cost of an item steady: a geometry item takes 2.8-3.0 s
    for every integer s from 2 to 7, but 3.9 s at s = 3/2 and 5.9 s at 11/3.
    """
    return rng.randint(2, 7) * rng.choice((1, -1))


def kerr_marking(s: int) -> str:
    return f"(x1 - ({s})*x3)/(-x2 + ({s})*x4)"


def translate(marking: str, coordinate: str, shift: int) -> str:
    """The marking composed with the translation coordinate -> coordinate + shift."""
    return marking.replace(coordinate, f"({coordinate} + {shift})")


def _t_arg(marking: str) -> str:
    # "--t=..." keeps argparse from reading a leading minus as an option.
    return f"--t={marking}"


def _rng(workload: str, seed: int, round_no: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{round_no}")


def invariants_round(seed: int, round_no: int) -> list[Item]:
    rng = _rng("invariants", seed, round_no)
    items = []
    for shape in SHAPES:
        t = polynomial_marking(shape, rng)
        items.append(Item("invariants", ["invariants", _t_arg(t)], t))
    for coordinate, k in TRANSLATED.items():
        shift = _nonzero(rng)
        t = translate(items[k].marking, coordinate, shift)
        items.append(Item("invariants", ["invariants", _t_arg(t)], t,
                          {"translate_of": k, "coordinate": coordinate,
                           "shift": shift}))
    s = kerr_parameter(rng)
    t = kerr_marking(s)
    items.append(Item("invariants", ["invariants", _t_arg(t)], t,
                      {"kerr_s": str(s)}))
    return items


def geometry_round(seed: int, round_no: int) -> list[Item]:
    """Each hard marking is followed by a Kerr marking and the cheap ones."""
    rng = _rng("geometry", seed, round_no)
    items = []
    for hard in GEOMETRY_HARD:
        items.append(Item("geometry", ["geometry", _t_arg(hard)], hard, {"class": "hard"}))
        s = kerr_parameter(rng)
        t = kerr_marking(s)
        items.append(Item("geometry", ["geometry", _t_arg(t)], t,
                          {"class": "kerr", "kerr_s": str(s)}))
        for template in GEOMETRY_CHEAP:
            t = template.format(a=_nonzero(rng))
            items.append(Item("geometry", ["geometry", _t_arg(t)], t, {"class": "cheap"}))
    return items


def bundle_round(seed: int, round_no: int) -> list[Item]:
    rng = _rng("bundle", seed, round_no)
    markings = ["0"]
    markings += [tpl.format(a=_nonzero(rng), c=rng.randint(-2, 2))
                 for tpl in BUNDLE_LINEAR]
    markings += [tpl.format(a=_nonzero(rng), b=_nonzero(rng))
                 for tpl in BUNDLE_QUADRATIC]
    items = [Item("tautological", marking=t) for t in markings]
    items.append(Item("verify-flat", ["reduction", "verify-flat"]))
    return items


def kerr_point(rng: random.Random) -> dict[str, float]:
    """A chart point with three decimals, away from the pole x2 = 2 x4."""
    while True:
        milli = {x: rng.randint(-2000, 2000) for x in COORDS}
        if abs(milli["x2"] - 2 * milli["x4"]) > 100:
            return {x: v / 1000 for x, v in milli.items()}


def algebra_round(seed: int, round_no: int) -> list[Item]:
    """The fixed command list and one kerr solve point.

    Items cost ~0.02 s (kerr solve), 0.05-0.1 s (cohomology, fibration),
    0.2-0.4 s (both prolongs, normalization, models) and 0.45-3 s (cubic,
    g2).  A single kerr point puts the median item inside the 0.2-0.4 s
    class instead of at its lower edge.
    """
    rng = _rng("algebra", seed, round_no)
    point = kerr_point(rng)
    at = ",".join(f"{x}={v:.3f}" for x, v in point.items())
    return [
        Item("g2", ["g2", "verify"]),
        Item("prolong", ["tanaka", "prolong", "--g0", "gl2"], meta={"g0": "gl2"}),
        Item("prolong", ["tanaka", "prolong", "--g0", "borel"], meta={"g0": "borel"}),
        Item("cohomology", ["tanaka", "cohomology"]),
        Item("normalization", ["tanaka", "normalization"]),
        Item("models", ["models", "check"]),
        Item("fibration", ["fibration", "check"]),
        Item("cubic", ["cubic", "verify", "--seed", str(rng.randrange(1000))]),
        Item("kerr-solve", ["kerr", "solve", "--F", KERR_F, "--at", at],
             meta={"point": point}),
    ]


ROUNDS = {
    "invariants": invariants_round,
    "geometry": geometry_round,
    "bundle": bundle_round,
    "algebra": algebra_round,
}


def make_round(workload: str, seed: int, round_no: int) -> list[Item]:
    return ROUNDS[workload](seed, round_no)

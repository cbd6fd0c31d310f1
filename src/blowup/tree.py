"""Points of the quadratic tree and their local charts.

A point is a finite path of steps from the root ring D (the localization of
k[x, y] at the origin).  Each step picks a point in the first neighborhood
of the current ring:

    step b (a rational):  new parameters (p, q/p - b)
    step inf:             new parameters (q, p/q)

The first parameter of the new chart always cuts out the exceptional curve
of the step.  A path therefore determines a chain of quadratic transforms,
and the ring at the end is again two-dimensional regular local.

A point stores only its path; chart data is derived when it is needed.
`_step_terms` is the one place that rewrites a polynomial across a step:
it maps each term by its exponents, x^i y^j to x^(i+j) times y^i, y^j or
(y + b)^j.  For b = r/s in lowest terms, (y + b)^j is s^(-j) times the
integer row C(j, m) r^(j-m) s^m of y^m.  The kernel scales each row by
s^(top-j), top the largest y exponent of the polynomial, so every weight
is an integer and the image comes out times s^top; it returns that factor
with the image.  The image of h is divisible by x^d exactly, where d is
the order of h, and the kernel divides that power out in the same pass.
`transform_step` and `express_step` are a thin `Fraction` wrapper over
the kernel, dividing by s^top once per term.  `express` pushes any element
of the fraction field into the local chart one step at a time, and all
order, membership and position questions reduce to looking at it there.

A strict transform walks on integers: `strict_walk` carries an `int` term
map and one running denominator down a path, through `strict_step`, and a
caller builds a `Poly` only where it needs one.  Each of its steps is
charged to the chart budget (`charge`).

Every step of a point is concrete: a rational or inf.  The step kernel
also accepts `TSYM`, a generic direction kept as the symbol t; folding it
over a chart computes for a whole fiber of points at once without making
it a point.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from numbers import Rational
from operator import itemgetter
from typing import Iterable, Iterator, List, Mapping, Tuple

from .errors import ComputationError, InputError
from .expr import INF, Step, _shown, bounded_step, format_step, is_inf, parse_step
from .poly import (Poly, RatFunc, _integer_scale, _integer_terms, _IntTerms, _over, _poly,
                   xy_order)


# Most products one finite nonzero step may form across a fraction's
# numerator and denominator, or on a strict transform carried down a walk.
# The tests stay below 3,000, the demos and the benchmark workloads below
# 500; a chart past the budget takes seconds a step.
CHART_BUDGET = 10_000


class _SymbolicStep:
    """Singleton marker for a generic (symbolic) direction t."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "t"


TSYM = _SymbolicStep()

AnyStep = Step | _SymbolicStep  # what the step kernel accepts


class Point:
    """A point of the quadratic tree: a path of steps from the root."""

    __slots__ = ("steps",)

    def __init__(self, steps: Tuple[Step, ...]):
        self.steps = steps

    # -- construction ------------------------------------------------------

    @staticmethod
    def root() -> "Point":
        return Point(())

    @staticmethod
    def from_path(steps: Iterable[Step]) -> "Point":
        # a list first: tuple() of an iterator without a length grows by
        # reallocation, and over a long run that fragments the heap
        return Point(tuple([normalize_step(s) for s in steps]))

    def child(self, step: Step) -> "Point":
        return Point(self.steps + (normalize_step(step),))

    def ancestor(self, level: int) -> "Point":
        """The point `level` steps from the root along this path."""
        if not 0 <= level <= self.level:
            raise ValueError("ancestor level out of range")
        return Point(self.steps[:level])

    # -- identity ----------------------------------------------------------

    @property
    def level(self) -> int:
        return len(self.steps)

    def __eq__(self, other) -> bool:
        return isinstance(other, Point) and self.steps == other.steps

    def __hash__(self) -> int:
        return hash(self.steps)

    def __str__(self) -> str:
        return "D" + "".join(f"<{format_step(s)}>" for s in self.steps)

    def __repr__(self) -> str:
        return f"Point({self})"

    # -- chart work --------------------------------------------------------

    def express(self, f: RatFunc) -> RatFunc:
        """Rewrite an element of k(x, y) in the local parameters here.

        The result is reduced with a monic denominator, exactly as the
        `RatFunc` constructor would leave it.
        """
        for step in self.steps:
            f = express_step(f, step)
        return f

    def ord_at(self, f: RatFunc) -> int:
        """Value of the order valuation of this ring on a nonzero element."""
        expressed = self.express(f)
        if expressed.is_zero:
            raise ValueError("order of zero undefined")
        return expressed.num.xy_order() - expressed.den.xy_order()

    # -- strict transforms -------------------------------------------------

    def strict_transform(self, h: Poly) -> Poly:
        """Strict transform of a plane curve germ h in this point's chart.

        Per step the curve is rewritten in the new chart and the exceptional
        factor (the full power of the first parameter) is stripped.  The
        walk runs on integers (`strict_walk`), charging each step to the
        chart budget, and divides by its denominator once at the end.
        """
        for terms, den in strict_walk(h, self.steps):
            pass
        return _over(terms, den)


# -- steps -----------------------------------------------------------------


def _step_terms(terms: Mapping, step: AnyStep, drop: int = 0) -> Tuple[dict, int]:
    """The step kernel: the image of a term map in the chart of the child
    reached by one step, divided by x^drop and multiplied by s^top, with
    that factor s^top.

    A finite step b (the symbol t for `TSYM`) substitutes (x, x(y + b));
    the step inf substitutes (xy, x).  A term x^i y^j therefore goes to
    x^(i+j) y^i for inf, to x^(i+j) y^j for 0, and otherwise to
    x^(i+j) (y + b)^j.  For b = r/s in lowest terms, s^top (y + b)^j is
    the integer row of `_binomial_row`, top the largest y exponent of the
    map, so each coefficient is multiplied by integer weights only: an
    `int` map goes to an `int` map.  For `TSYM` the row carries the powers
    of t instead, and the factor is 1, as it is for inf and 0.  The lowest
    power of x in the image is the order of the map: its terms of that
    order go to x^d times the image of a nonzero polynomial in y under
    y -> y + b, so they cannot cancel.  `drop` may be at most that order.
    """
    out: dict = {}
    scale = 1
    if is_inf(step):
        for (i, j, a, t), c in terms.items():
            out[(i + j - drop, i, a, t)] = c
    elif step == 0:
        for (i, j, a, t), c in terms.items():
            out[(i + j - drop, j, a, t)] = c
    else:
        top = 0
        if step is not TSYM and step.denominator != 1:
            top = max(map(_Y_EXPONENT, terms), default=0)
            scale = step.denominator ** top
        rows = {}
        for (i, j, a, t), c in terms.items():
            row = rows.get(j)
            if row is None:
                row = rows[j] = _binomial_row(j, step, top)
            d = i + j - drop
            for m, (dt, w) in enumerate(row):
                key = (d, m, a, t + dt)
                acc = out.get(key, 0) + c * w
                if acc:
                    out[key] = acc
                else:
                    out.pop(key, None)
    return out, scale


def _binomial_row(j: int, step: AnyStep, top: int) -> List[Tuple[int, int]]:
    """(t exponent, integer weight) of y^m, m = 0 .. j: the terms of
    (y + t)^j for `TSYM`, and of s^top (y + r/s)^j = s^(top-j) (sy + r)^j,
    that is C(j, m) r^(j-m) s^(top-j+m), for a step r/s in lowest terms;
    for s = 1 it is (y + r)^j, and top is not read."""
    if step is TSYM:
        return [(j - m, comb(j, m)) for m in range(j + 1)]
    r, s = step.numerator, step.denominator
    if s == 1:
        return [(0, comb(j, m) * r ** (j - m)) for m in range(j + 1)]
    return [(0, comb(j, m) * r ** (j - m) * s ** (top - j + m)) for m in range(j + 1)]


def transform_step(h: Poly, step: AnyStep, drop: int = 0) -> Poly:
    """Rewrite h in the chart of the child reached by one step, divided by
    x^drop: the kernel's image (`_step_terms`), divided by its factor."""
    terms, scale = _step_terms(h.terms, step, drop)
    if scale != 1:
        terms = {exps: c / scale for exps, c in terms.items()}
    return _poly(terms)


def express_step(f: RatFunc, step: AnyStep) -> RatFunc:
    """Rewrite a reduced fraction in the chart of the child one step down.

    Once x is inverted the step is a ring isomorphism, k[x, y][1/x] =
    k[x, y'][1/x], so the images of a coprime numerator and denominator
    can share no factor but a power of the new x: the smaller of the two
    orders (`transform_step`).  Stripping that power leaves the fraction
    reduced, with no gcd to compute.

    The step is charged to the chart budget (`charge`).
    """
    charge(step, f.num.terms, f.den.terms)
    if f.is_zero:
        return f
    drop = min(f.num.xy_order(), f.den.xy_order())
    return RatFunc.coprime(transform_step(f.num, step, drop),
                           transform_step(f.den, step, drop))


_Y_EXPONENT = itemgetter(1)


def charge(step: AnyStep, *maps: Mapping) -> None:
    """Refuse a step past `CHART_BUDGET` products with `ComputationError`
    rather than leave it to run for minutes.

    A finite nonzero step forms one product per term of (y + b)^j for every
    term x^i y^j of each term map, j + 1 in all; inf and 0 only move
    exponents and cost nothing here.
    """
    # every step but inf and 0, TSYM too, is truthy
    if step is INF or not step:
        return
    work = sum(len(terms) + sum(map(_Y_EXPONENT, terms)) for terms in maps)
    if work > CHART_BUDGET:
        raise ComputationError(
            f"the step {format_step(step)} would form {work} "
            f"products, over the chart budget of {CHART_BUDGET}")


def strict_step(terms: _IntTerms, step: AnyStep) -> Tuple[_IntTerms, int]:
    """One step of a strict transform on an `int` term map: the kernel's
    image with the exceptional factor x^m, m the order of the map,
    stripped, and the factor s^top the image carries (`_step_terms`).

    The step is not charged here.  `strict_walk` and the sibling walk of
    `oracle` charge each step they take: once the curve has left the path
    its degree grows with every finite step, like the Fibonacci numbers.
    A curve branch walk follows the curve's own branch and is not charged.
    """
    return _step_terms(terms, step, xy_order(terms))


def strict_walk(h: Poly, steps: Iterable[AnyStep]) -> Iterator[Tuple[_IntTerms, int]]:
    """The strict transform of a nonzero h at each point down `steps`, h's
    own first: an `int` term map and the positive denominator it is over.

    Each step is charged to the chart budget (`charge`) before it is
    taken.  `steps` may be lazy: it is read one step per transform asked.
    """
    if h.is_zero:
        raise ValueError("strict transform of zero undefined")
    den = _integer_scale(h)
    (terms,) = _integer_terms(h, scale=den)
    yield terms, den
    for step in steps:
        charge(step, terms)
        terms, scale = strict_step(terms, step)
        den *= scale
        yield terms, den


def normalize_step(step) -> Step:
    """The one step reader: a `Fraction` or `INF` as it is, text such as
    "-1/2" or "inf" by `parse_step`, any other rational, such as a JSON
    integer, as a `Fraction` within `bounded_step`'s bit bound."""
    if type(step) is Fraction or is_inf(step):
        return step
    if isinstance(step, str):
        return parse_step(step)
    # a bool is no step, and a binary fraction is not the exact step it rounds
    if isinstance(step, bool) or not isinstance(step, Rational):
        raise InputError(f"bad step {_shown(step)}: expected a rational or inf")
    return bounded_step(Fraction(step))


# -- path order ------------------------------------------------------------


def is_prefix(a: Point, b: Point) -> bool:
    """True when the ring at a is contained in the ring at b (a at or above
    b).  Steps compare with `==`: `INF` is a singleton that equals only
    itself."""
    return b.steps[:a.level] == a.steps

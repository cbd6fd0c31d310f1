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
`transform_step` is the one place that rewrites a polynomial across a step:
it maps each term by its exponents, x^i y^j to x^(i+j) times y^i, y^j or
(y + b)^j.  `express` pushes any element of the fraction field into the
local chart one step at a time, and all order, membership and position
questions reduce to looking at it there.

Every step of a point is concrete: a rational or inf.  The step kernel
(`transform_step`, `express_step`, `strict_step`) also accepts `TSYM`, a
generic direction kept as the symbol t; folding it over a chart computes
for a whole fiber of points at once without making it a point.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from numbers import Rational
from operator import itemgetter
from typing import Iterable, List, Tuple

from .errors import ComputationError, InputError
from .expr import INF, Step, format_step, is_inf
from .poly import Poly, RatFunc, Terms, X


# Most products one finite nonzero step may form across a fraction's
# numerator and denominator, or across a strict transform carried down a
# walk.  The tests stay below 3,000, the demos and the benchmark workloads
# below 500; a chart past the budget takes seconds a step.
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
        factor (the full power of the first parameter) is stripped.
        """
        if h.is_zero:
            raise ValueError("strict transform of zero undefined")
        for step in self.steps:
            h = strict_step(h, step)
        return h


# -- steps -----------------------------------------------------------------


def transform_step(h: Poly, step: AnyStep) -> Poly:
    """Rewrite h in the chart of the child reached by one step.

    A finite step b (the symbol t for `TSYM`) substitutes (x, x(y + b));
    the step inf substitutes (xy, x).  A term x^i y^j therefore goes to
    x^(i+j) y^i for inf, to x^(i+j) y^j for 0, and otherwise to
    x^(i+j) (y + b)^j = x^(i+j) sum_m C(j, m) b^(j-m) y^m, with b^(j-m)
    becoming t^(j-m) for `TSYM`.
    """
    terms: Terms = {}
    if is_inf(step):
        for (i, j, a, t), c in h.terms.items():
            terms[(i + j, i, a, t)] = c
    elif step == 0:
        for (i, j, a, t), c in h.terms.items():
            terms[(i + j, j, a, t)] = c
    else:
        rows = {}
        for (i, j, a, t), c in h.terms.items():
            row = rows.get(j)
            if row is None:
                row = rows[j] = _binomial_row(j, step)
            for m, (dt, w) in enumerate(row):
                key = (i + j, m, a, t + dt)
                acc = terms.get(key, 0) + c * w
                if acc:
                    terms[key] = acc
                else:
                    terms.pop(key, None)
    out = Poly()
    out.terms = terms
    return out


def _binomial_row(j: int, step: AnyStep) -> List[Tuple[int, Fraction]]:
    """(t exponent, weight) of y^m in (y + b)^j, for m = 0 .. j."""
    if step is TSYM:
        return [(j - m, Fraction(comb(j, m))) for m in range(j + 1)]
    return [(0, comb(j, m) * step ** (j - m)) for m in range(j + 1)]


def express_step(f: RatFunc, step: AnyStep) -> RatFunc:
    """Rewrite a reduced fraction in the chart of the child one step down.

    Once x is inverted the step is a ring isomorphism, k[x, y][1/x] =
    k[x, y'][1/x], so the images of a coprime numerator and denominator
    can share no factor but a power of the new x.  Stripping that power
    leaves the fraction reduced, with no gcd to compute.

    The step is charged to the chart budget (`charge`).
    """
    charge(step, f.num, f.den)
    num = transform_step(f.num, step)
    if num.is_zero:
        return f
    den = transform_step(f.den, step)
    common = min(num.min_exponent(X), den.min_exponent(X))
    return RatFunc.coprime(num.shift_down(X, common), den.shift_down(X, common))


_Y_EXPONENT = itemgetter(1)


def charge(step: AnyStep, *polys: Poly) -> None:
    """Refuse a step past `CHART_BUDGET` products with `ComputationError`
    rather than leave it to run for minutes.

    A finite nonzero step forms one product per term of (y + b)^j for every
    term x^i y^j of each polynomial, j + 1 in all; inf and 0 only move
    exponents and cost nothing here.
    """
    # every step but inf and 0, TSYM too, is truthy
    if step is INF or not step:
        return
    work = sum(len(h.terms) + sum(map(_Y_EXPONENT, h.terms)) for h in polys)
    if work > CHART_BUDGET:
        raise ComputationError(
            f"the step {format_step(step)} would form {work} "
            f"products, over the chart budget of {CHART_BUDGET}")


def strict_step(h: Poly, step: AnyStep) -> Poly:
    """One step of the strict transform: strip the exceptional factor x^m.

    The step is not charged: a single strict transform of a large curve,
    as `MinimalEventuallyPeriodic.on_curve` forms one, may pass the budget
    and still take only a second.  A walk that carries a transform level
    after level charges each step itself.
    """
    out = transform_step(h, step)
    return out.shift_down(X, out.min_exponent(X))


def normalize_step(step) -> Step:
    if type(step) is Fraction or is_inf(step):
        return step
    # a bool is no step, and a binary fraction is not the exact step it rounds
    if isinstance(step, bool) or not isinstance(step, (Rational, str)):
        raise InputError(f"bad step {step!r}: expected a rational or inf")
    try:
        return Fraction(step)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad step {step!r}: expected a rational or inf") from exc


# -- path order ------------------------------------------------------------


def is_prefix(a: Point, b: Point) -> bool:
    """True when the ring at a is contained in the ring at b (a at or above
    b).  Steps compare with `==`: `INF` is a singleton that equals only
    itself."""
    return b.steps[:a.level] == a.steps

"""Weights, grids, and the change of variables they induce.

A weight is a smooth positive function omega on [0, 2*pi], carried
around with its first two analytic derivatives so downstream code
never differentiates numerically.  Everything else in the package is
built on two derived objects:

* the cumulative map Omega(x) = integral_0^x omega, a strictly
  increasing bijection of [0, 2*pi] onto itself once the weight is
  normalized to total mass 2*pi, and
* the potential q = omega''/(2 omega^3) - (3/4) omega'^2 / omega^4
  of the transformed operator.

Omega is tabulated once per (weight, grid) pair with per-cell
Gauss-Legendre quadrature and then evaluated anywhere by adding a
partial-cell integral; the inverse map is bracketed Newton on that
table.  check_resolution refuses a frequency that a grid samples with
fewer than 16 points per wavelength.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, PreconditionError, UsageError

TWO_PI = 2.0 * math.pi

# 5-point Gauss-Legendre rule on [-1, 1]: degree-9 exactness per cell
# keeps the tabulation error far below the 1e-12 inversion target.
_GL_NODES = np.array([
    -0.906179845938663992797626878299,
    -0.538469310105683091036314420700,
    0.0,
    0.538469310105683091036314420700,
    0.906179845938663992797626878299,
])
_GL_WEIGHTS = np.array([
    0.236926885056189087514264040720,
    0.478628670499366468041291514836,
    0.568888888888888888888888888889,
    0.478628670499366468041291514836,
    0.236926885056189087514264040720,
])


@dataclass(frozen=True)
class Grid:
    """Uniform sampling grid on [0, 2*pi]."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 17:
            raise DomainError("grid needs at least 17 points, got shape %s" % (pts.shape,))
        h = (pts[-1] - pts[0]) / (pts.size - 1)
        if abs(pts[0]) > 1e-12 or abs(pts[-1] - TWO_PI) > 1e-12:
            raise DomainError(
                "grid must span [0, 2*pi], got [%r, %r]" % (pts[0], pts[-1]))
        if np.max(np.abs(np.diff(pts) - h)) > 1e-12 * max(h, 1.0):
            raise DomainError("grid spacing is not uniform")
        object.__setattr__(self, "points", pts)

    @classmethod
    def uniform(cls, count=8192):
        if count < 17:
            raise DomainError("grid count must be >= 17, got %r" % (count,))
        return cls(np.linspace(0.0, TWO_PI, int(count)))

    @property
    def count(self):
        return self.points.size

    @property
    def n_cells(self):
        return self.points.size - 1

    @property
    def h(self):
        return TWO_PI / self.n_cells


@dataclass(frozen=True)
class WeightFunction:
    """A positive weight with analytic first and second derivatives.

    eval/deriv1/deriv2 are vectorized callables on [0, 2*pi].
    """

    name: str
    eval: object
    deriv1: object
    deriv2: object

    def __call__(self, x):
        return self.eval(x)


@dataclass(frozen=True)
class Potential:
    """Potential of the transformed operator in normal form."""

    name: str
    eval: object

    def __call__(self, x):
        return self.eval(x)


def _check_positive(w, where):
    x = np.linspace(0.0, TWO_PI, 4097)
    vals = np.asarray(w.eval(x), dtype=float)
    if not np.all(np.isfinite(vals)):
        i = int(np.argmin(np.isfinite(vals)))
        raise DomainError("%s: weight %r is not finite at x=%.6f" % (where, w.name, x[i]))
    i = int(np.argmin(vals))
    if vals[i] <= 0.0:
        raise DomainError(
            "%s: weight %r must be positive, found %r at x=%.6f"
            % (where, w.name, vals[i], x[i]))


def _cell_integrals(f, grid):
    # one batched GL5 evaluation covering every cell
    a = grid.points[:-1]
    half = 0.5 * grid.h
    nodes = a[:, None] + half * (1.0 + _GL_NODES[None, :])
    vals = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    return half * vals @ _GL_WEIGHTS


def _partial_integral(f, a, x):
    # integral over (a_i, x_i) pairs with GL5; a and x have equal shape
    half = 0.5 * (x - a)
    nodes = a[..., None] + half[..., None] * (1.0 + _GL_NODES)
    vals = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    return half * (vals @ _GL_WEIGHTS)


class OmegaMap:
    """Cumulative weight Omega and its inverse, tabulated on a grid."""

    def __init__(self, weight, grid=None):
        self.weight = weight
        self.grid = grid if grid is not None else default_grid()
        _check_positive(weight, "OmegaMap")
        cells = _cell_integrals(weight.eval, self.grid)
        self.table = np.concatenate(([0.0], np.cumsum(cells)))
        self.total = float(self.table[-1])

    def forward(self, x):
        """Omega(x) for x in [0, 2*pi] (scalar or array)."""
        xs = np.asarray(x, dtype=float)
        scalar = xs.ndim == 0
        xs = np.atleast_1d(xs)
        bad = ~((xs >= -1e-12) & (xs <= TWO_PI + 1e-12))  # NaN is bad too
        if np.any(bad):
            raise DomainError("Omega: x=%r outside [0, 2*pi]" % (xs[bad][0],))
        xs = np.clip(xs, 0.0, TWO_PI)
        idx = np.minimum((xs / self.grid.h).astype(int), self.grid.n_cells - 1)
        a = self.grid.points[idx]
        out = self.table[idx] + _partial_integral(self.weight.eval, a, xs)
        return float(out[0]) if scalar else out

    def inverse(self, y):
        """Omega^{-1}(y) for y in [0, Omega(2*pi)] (scalar or array)."""
        ys = np.asarray(y, dtype=float)
        scalar = ys.ndim == 0
        ys = np.atleast_1d(ys)
        bad = ~((ys >= -1e-10) & (ys <= self.total + 1e-10))  # NaN is bad too
        if np.any(bad):
            raise DomainError("Omega^-1: y=%r outside [0, %r]"
                              % (ys[bad][0], self.total))
        ys = np.clip(ys, 0.0, self.total)
        idx = np.clip(np.searchsorted(self.table, ys, side="right") - 1,
                      0, self.grid.n_cells - 1)
        lo = self.grid.points[idx]
        hi = self.grid.points[idx + 1]
        x = lo + (hi - lo) * np.clip(
            (ys - self.table[idx]) / np.maximum(self.table[idx + 1] - self.table[idx], 1e-300),
            0.0, 1.0)
        tol = 1e-13 * max(1.0, self.total)
        for _ in range(80):
            fx = self.forward(x) - ys
            done = np.abs(fx) <= tol
            if np.all(done):
                break
            # keep the bracket: the root stays between lo and hi
            neg = fx < 0.0
            lo = np.where(neg, x, lo)
            hi = np.where(neg, hi, x)
            xn = x - fx / np.asarray(self.weight.eval(x), dtype=float)
            outside = (xn <= lo) | (xn >= hi)
            x = np.where(done, x, np.where(outside, 0.5 * (lo + hi), xn))
        else:
            raise NumericError("Omega^-1: Newton/bisection failed to reach %g" % tol)
        return float(x[0]) if scalar else x


_DEFAULT_GRID = None
_MAP_CACHE = {}


def default_grid():
    global _DEFAULT_GRID
    if _DEFAULT_GRID is None:
        _DEFAULT_GRID = Grid.uniform()
    return _DEFAULT_GRID


MIN_POINTS_PER_WAVELENGTH = 16


def check_resolution(grid, name, value, weight=None, shift=0):
    """Refuse `name`=value when the grid samples the highest frequency
    it asks for with fewer than MIN_POINTS_PER_WAVELENGTH points: the
    Hermite interpolant of the samples would no longer resemble the
    process.  That frequency is value + shift cycles on [0, 2*pi], or,
    with a weight, value modes oscillating locally at value*omega/2,
    which leaves 2*cells/(value*max omega) points per wavelength.
    """
    rate = (0.5 * float(np.max(weight.eval(grid.points)))
            if weight is not None else 1.0)
    per_wave = grid.n_cells / (rate * (value + shift))
    if per_wave < MIN_POINTS_PER_WAVELENGTH:
        top = int(grid.n_cells / (rate * MIN_POINTS_PER_WAVELENGTH)) - shift
        raise PreconditionError(
            "%s=%d leaves %.4g points per wavelength on the %d-cell storage "
            "grid, fewer than %d: %s must be at most %d"
            % (name, value, per_wave, grid.n_cells, MIN_POINTS_PER_WAVELENGTH,
               name, top))


def omega_map(weight, grid=None):
    """Cached OmegaMap for (weight, grid); maps are immutable."""
    key = (id(weight), id(grid) if grid is not None else 0)
    hit = _MAP_CACHE.get(key)
    # guard against id reuse after garbage collection
    if hit is not None and hit.weight is weight and (grid is None or hit.grid is grid):
        return hit
    m = OmegaMap(weight, grid)
    if len(_MAP_CACHE) > 64:
        _MAP_CACHE.clear()
    _MAP_CACHE[key] = m
    return m


def normalize_weight(raw, grid=None):
    """Rescale a weight to total mass 2*pi, preserving its shape.

    The cumulative map of the result is a bijection of [0, 2*pi] onto
    itself, which is what the rest of the package assumes.
    """
    _check_positive(raw, "normalize_weight")
    total = OmegaMap(raw, grid).total
    c = TWO_PI / total
    if abs(c - 1.0) < 1e-14:
        return raw
    v, d1, d2 = raw.eval, raw.deriv1, raw.deriv2
    return WeightFunction(
        name=raw.name,
        eval=lambda x, v=v, c=c: c * np.asarray(v(x), dtype=float),
        deriv1=lambda x, d1=d1, c=c: c * np.asarray(d1(x), dtype=float),
        deriv2=lambda x, d2=d2, c=c: c * np.asarray(d2(x), dtype=float),
    )


def weight_to_potential(weight):
    """Potential of the transformed operator:

        q = omega''/(2 omega^3) - (3/4) omega'^2 / omega^4.
    """
    _check_positive(weight, "weight_to_potential")

    def q(x, w=weight):
        om = np.asarray(w.eval(x), dtype=float)
        d1 = np.asarray(w.deriv1(x), dtype=float)
        d2 = np.asarray(w.deriv2(x), dtype=float)
        out = d2 / (2.0 * om ** 3) - 0.75 * d1 ** 2 / om ** 4
        if not np.all(np.isfinite(out)):
            raise DomainError("potential of %r is not finite" % (w.name,))
        return out

    # fail fast on weights whose derivative closures are broken
    q(np.linspace(0.0, TWO_PI, 257))
    return Potential(name="q[%s]" % weight.name, eval=q)


def _unit():
    return WeightFunction(
        name="unit",
        eval=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        deriv1=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        deriv2=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )


def _sine2():
    return WeightFunction(
        name="sine2",
        eval=lambda x: 0.5 * (2.0 + np.sin(np.asarray(x, dtype=float))),
        deriv1=lambda x: 0.5 * np.cos(np.asarray(x, dtype=float)),
        deriv2=lambda x: -0.5 * np.sin(np.asarray(x, dtype=float)),
    )


def make_expcos(a=0.5):
    """exp(a*cos x) scaled to mass 2*pi; the exact scale is 1/I0(a)."""
    if not (0.0 < a < 5.0):
        raise DomainError("expcos parameter must be in (0, 5), got %r" % (a,))
    c = 1.0 / np.i0(a)

    def value(x, a=a, c=c):
        return c * np.exp(a * np.cos(np.asarray(x, dtype=float)))

    return WeightFunction(
        name="expcos",
        eval=value,
        deriv1=lambda x, a=a: -a * np.sin(np.asarray(x, dtype=float)) * value(x),
        deriv2=lambda x, a=a: a * (a * np.sin(np.asarray(x, dtype=float)) ** 2
                                   - np.cos(np.asarray(x, dtype=float))) * value(x),
    )


PRESET_NAMES = ("unit", "sine2", "expcos")


def builtin_weights(name, a=0.5):
    """Preset weights by name; all already have mass 2*pi."""
    if name == "unit":
        return _unit()
    if name == "sine2":
        return _sine2()
    if name == "expcos":
        return make_expcos(a)
    raise UsageError("unknown weight %r (choose from %s)"
                     % (name, ", ".join(PRESET_NAMES)))

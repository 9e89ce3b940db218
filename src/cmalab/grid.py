"""Uniform grids on boxes in C^n = R^(2n), Wirtinger finite differences,
and a CSV writer for grid fields.

A point of C^n is stored as 2n reals (x1, y1, ..., xn, yn) with
z_k = x_k + i y_k, so real axis 2k holds x_{k+1} and axis 2k+1 holds
y_{k+1}.  All derivatives are second-order central differences; mixed
derivatives use the 4-point cross stencil.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BoundaryNode,
    GridTooLarge,
    NonFiniteSample,
)
from .hermitian import HermitianForm

__all__ = [
    "GridDomain",
    "GridField",
    "sample",
    "complex_hessian_fd",
    "complex_laplacian_fd",
]

DEFAULT_MAX_NODES = 10_000_000


def as_point(coords) -> np.ndarray:
    p = np.asarray(coords, dtype=float).ravel()
    if p.size < 2 or p.size % 2 != 0:
        raise ValueError("a point of C^n needs an even number (>= 2) of real coordinates")
    return p


@dataclass(frozen=True)
class GridDomain:
    """Box around `center` with per-axis half widths and node counts.

    `excluded_tube_radius` removes a tube around the singular set
    {z over singular_axes = 0} from the W^{2,p} integrals of `probe`.
    """

    center: np.ndarray
    half_widths: np.ndarray
    points_per_axis: tuple
    excluded_tube_radius: float = 0.0
    singular_axes: tuple = None
    max_nodes: int = DEFAULT_MAX_NODES

    def __post_init__(self):
        center = as_point(self.center)
        hw = np.asarray(self.half_widths, dtype=float).ravel()
        pts = tuple(int(p) for p in np.atleast_1d(self.points_per_axis))
        if hw.size != center.size or len(pts) != center.size:
            raise ValueError("center, half_widths and points_per_axis must agree")
        if not np.all(np.isfinite(center)):
            raise ValueError("center must be finite")
        if not np.all((hw > 0) & np.isfinite(hw)):
            raise ValueError("half widths must be finite and positive")
        if any(p < 3 for p in pts):
            raise ValueError("need at least 3 points per axis")
        if not 0 <= self.excluded_tube_radius < math.inf:
            raise ValueError("excluded_tube_radius must be finite and nonnegative")
        if self.excluded_tube_radius >= float(np.min(hw)):
            raise ValueError("excluded_tube_radius must be below the smallest half width")
        total = math.prod(pts)
        if total > self.max_nodes:
            raise GridTooLarge(f"{total} nodes exceed the cap of {self.max_nodes}")
        sing = self.singular_axes
        if sing is None:
            sing = (center.size - 2, center.size - 1)
        sing = tuple(int(a) for a in sing)
        center.setflags(write=False)
        hw.setflags(write=False)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "half_widths", hw)
        object.__setattr__(self, "points_per_axis", pts)
        object.__setattr__(self, "singular_axes", sing)

    @property
    def n(self) -> int:
        """Complex dimension."""
        return self.center.size // 2

    @property
    def shape(self) -> tuple:
        return self.points_per_axis

    @property
    def num_nodes(self) -> int:
        return math.prod(self.points_per_axis)

    @property
    def spacings(self) -> np.ndarray:
        return 2.0 * self.half_widths / (np.array(self.points_per_axis) - 1.0)

    def axis_coords(self, axis: int) -> np.ndarray:
        lo = self.center[axis] - self.half_widths[axis]
        hi = self.center[axis] + self.half_widths[axis]
        return np.linspace(lo, hi, self.points_per_axis[axis])

    def open_grid(self) -> tuple:
        """The 2n axis coordinate arrays, array a spanning axis a only, so
        that together they broadcast to every node of the grid."""
        return np.ix_(*[self.axis_coords(a) for a in range(self.center.size)])

    def node_coords_flat(self) -> np.ndarray:
        """All node coordinates, shape (num_nodes, 2n), row-major axis order."""
        return np.stack(np.broadcast_arrays(*self.open_grid()), axis=-1).reshape(
            self.num_nodes, self.center.size)


@dataclass(frozen=True)
class GridField:
    """Finite real samples over a GridDomain, one per node."""

    domain: GridDomain
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).reshape(self.domain.shape)
        object.__setattr__(self, "values", v)
        finite = np.isfinite(v)
        if not finite.all():
            idx = tuple(int(i) for i in np.unravel_index(np.argmin(finite), v.shape))
            raise NonFiniteSample(idx, float(v[idx]))


def sample(domain: GridDomain, f) -> GridField:
    """Evaluate f on every node.  f gets the open grid of the domain, 2n
    arrays where array a holds axis a's coordinates and broadcasts along
    every other axis, and returns an array that broadcasts to the grid;
    one that does not raises ValueError, and a non-finite value raises
    NonFiniteSample at its first node in row-major order.
    """
    vals = np.asarray(f(domain.open_grid()), dtype=float)
    if vals.shape != domain.shape or not vals.flags.c_contiguous:
        try:
            vals = np.broadcast_to(vals, domain.shape).copy()
        except ValueError:
            raise ValueError(f"f returned shape {vals.shape} for a grid of shape "
                             f"{domain.shape}") from None
    return GridField(domain, vals)


# ---------------------------------------------------------------------------
# stencils

def _interior_view(u, shift):
    """u over the interior nodes displaced by shift, a map axis -> offset."""
    return u[tuple(slice(1 + shift.get(a, 0), s - 1 + shift.get(a, 0))
                   for a, s in enumerate(u.shape))]


def _second_diff(u, axis, h, out=None):
    """Central second difference along axis, over the interior of u, into
    out if given."""
    out = np.multiply(_interior_view(u, {}), 2.0, out=out)
    np.subtract(_interior_view(u, {axis: 1}), out, out=out)
    np.add(out, _interior_view(u, {axis: -1}), out=out)
    return np.divide(out, h * h, out=out)


def _cross_diff(u, ax1, ax2, h1, h2, out=None):
    """Four-point mixed difference in axes ax1 != ax2, over the interior of
    u, into out if given."""
    def view(o1, o2):
        return _interior_view(u, {ax1: o1, ax2: o2})

    out = np.subtract(view(1, 1), view(1, -1), out=out)
    np.subtract(out, view(-1, 1), out=out)
    np.add(out, view(-1, -1), out=out)
    return np.divide(out, 4.0 * h1 * h2, out=out)


def real_hessian_fd(u: GridField, at) -> np.ndarray:
    """Full (2n x 2n) real second-derivative matrix at an interior node."""
    idx = tuple(int(i) for i in at)
    shape = u.domain.shape
    if any(i < 1 or i > shape[a] - 2 for a, i in enumerate(idx)):
        raise BoundaryNode(f"node {idx} too close to the boundary")
    block = u.values[tuple(slice(i - 1, i + 2) for i in idx)]
    h = u.domain.spacings
    m = len(shape)
    H = np.empty((m, m))
    for a in range(m):
        H[a, a] = _second_diff(block, a, h[a]).item()
        for b in range(a + 1, m):
            H[a, b] = H[b, a] = _cross_diff(block, a, b, h[a], h[b]).item()
    return H


def wirtinger_from_real_hessian(H: np.ndarray) -> np.ndarray:
    """Complex Hessian (u_{i jbar}) from a real 2n x 2n second-derivative matrix.

    Entry (i, j) = 1/4 [ (H_{x_i x_j} + H_{y_i y_j}) + i (H_{x_i y_j} - H_{y_i x_j}) ].
    """
    # x_i and y_i are the even and odd real coordinates
    re = H[0::2, 0::2] + H[1::2, 1::2]
    im = H[0::2, 1::2] - H[1::2, 0::2]
    return 0.25 * (re + 1j * im)


def complex_hessian_fd(u: GridField, at) -> HermitianForm:
    """FD complex Hessian at an interior node, as a HermitianForm."""
    return HermitianForm(wirtinger_from_real_hessian(real_hessian_fd(u, at)))


def complex_laplacian_fd(u: GridField) -> GridField:
    """Complex Laplacian sum_k u_{k kbar} = 1/4 of the real 2n-dim FD Laplacian,
    on interior nodes; the boundary ring holds 0."""
    shape = u.domain.shape
    h = u.domain.spacings
    core = tuple(slice(1, -1) for _ in shape)
    acc = np.zeros(tuple(s - 2 for s in shape))
    d2 = np.empty_like(acc)
    for a in range(len(shape)):
        acc += _second_diff(u.values, a, h[a], d2)
    out = np.zeros(shape)
    np.multiply(acc, 0.25, out=out[core])
    return GridField(u.domain, out)


def second_derivative_magnitude(u: GridField) -> GridField:
    """Pointwise Frobenius magnitude of the full real FD second-derivative
    matrix, on interior nodes (off-diagonal pairs counted twice); the
    boundary ring holds 0."""
    shape = u.domain.shape
    h = u.domain.spacings
    m = len(shape)
    core = tuple(slice(1, -1) for _ in shape)
    acc = np.zeros(tuple(s - 2 for s in shape))
    d2 = np.empty_like(acc)
    sq = np.empty_like(acc)
    for a in range(m):
        _second_diff(u.values, a, h[a], d2)
        acc += np.multiply(d2, d2, out=sq)
        for b in range(a + 1, m):
            _cross_diff(u.values, a, b, h[a], h[b], d2)
            np.multiply(d2, 2.0, out=sq)    # (2 d2) d2, in that order
            acc += np.multiply(sq, d2, out=sq)
    out = np.zeros(shape)
    np.sqrt(acc, out=out[core])
    return GridField(u.domain, out)


# ---------------------------------------------------------------------------
# export

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def field_to_csv(f: GridField) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["points_per_axis"] + [str(s) for s in f.domain.shape])
    w.writerow(["spacings"] + [_fmt(x) for x in f.domain.spacings])
    w.writerow(["center"] + [_fmt(x) for x in f.domain.center])
    w.writerow(["half_widths"] + [_fmt(x) for x in f.domain.half_widths])
    w.writerow(["excluded_tube_radius", _fmt(f.domain.excluded_tube_radius)])
    w.writerow(["value"])
    for v in f.values.ravel():
        w.writerow([_fmt(v)])
    return buf.getvalue()

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

    def node_coords_flat(self) -> np.ndarray:
        """All node coordinates, shape (num_nodes, 2n), row-major axis order."""
        slabs = _Slabs(self)
        return slabs.write(0, slabs.rows, np.empty((self.num_nodes, self.center.size)))

    def excluded_mask(self) -> np.ndarray:
        """Boolean array over the grid, True where a node is excluded from integrals."""
        mask = np.zeros(self.shape, dtype=bool)
        if self.excluded_tube_radius > 0:
            r2 = 0.0   # spans the singular axes only, by broadcasting
            for a in self.singular_axes:
                coords = self.axis_coords(a)
                sl = [None] * len(self.shape)
                sl[a] = slice(None)
                r2 = r2 + (coords[tuple(sl)]) ** 2
            mask |= r2 < self.excluded_tube_radius**2
        return mask


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


# nodes per slab of `sample`: the coordinates of one slab stay in cache
# and the full (num_nodes, 2n) coordinate array is never built
_SLAB_NODES = 1 << 16


class _Slabs:
    """The nodes of a domain in row-major order, cut into rows of the
    trailing block: the last axes whose node count stays within
    _SLAB_NODES (at least the last axis).  A slab is a range of rows."""

    def __init__(self, domain: GridDomain):
        shape = domain.shape
        t = 1
        while t < len(shape) and math.prod(shape[-t - 1:]) <= _SLAB_NODES:
            t += 1
        self.lead_shape = shape[:-t]
        self.block_shape = shape[-t:]
        self.block = math.prod(self.block_shape)
        self.rows = math.prod(self.lead_shape)
        self.rows_per_slab = max(1, _SLAB_NODES // self.block)
        self.axes = [domain.axis_coords(a) for a in range(len(shape))]

    def write(self, start: int, stop: int, out: np.ndarray) -> np.ndarray:
        """Coordinates of rows [start, stop) into out, shape (M, 2n) with
        M = (stop - start) * block; the same numbers as a meshgrid would hold."""
        lead = len(self.lead_shape)
        view = out.reshape((stop - start,) + self.block_shape + (len(self.axes),))
        idx = np.unravel_index(np.arange(start, stop), self.lead_shape) if lead else ()
        tail = (1,) * len(self.block_shape)
        for a, coords in enumerate(self.axes):
            if a < lead:
                view[..., a] = coords[idx[a]].reshape((-1,) + tail)
            else:
                bshape = [1] * (1 + len(self.block_shape))
                bshape[1 + a - lead] = -1
                view[..., a] = coords.reshape(bshape)
        return out


def sample(domain: GridDomain, f) -> GridField:
    """Evaluate f on every node.  f takes an (M, 2n) coordinate array and
    returns M values; a result of another shape raises ValueError, and a
    non-finite value raises NonFiniteSample at its first node.

    f sees one slab of about _SLAB_NODES nodes at a time, in row-major
    order, so f must be row-wise.
    """
    slabs = _Slabs(domain)
    vals = np.empty(domain.num_nodes)
    buf = np.empty((min(slabs.rows_per_slab, slabs.rows) * slabs.block, domain.center.size))
    for start in range(0, slabs.rows, slabs.rows_per_slab):
        stop = min(start + slabs.rows_per_slab, slabs.rows)
        lo, hi = start * slabs.block, stop * slabs.block
        part = np.asarray(f(slabs.write(start, stop, buf[:hi - lo])), dtype=float)
        if part.shape != (hi - lo,):
            raise ValueError(f"f returned shape {part.shape} for {hi - lo} points")
        vals[lo:hi] = part
    return GridField(domain, vals)


# ---------------------------------------------------------------------------
# stencils

def _interior_view(u, shift):
    """u over the interior nodes displaced by shift, a map axis -> offset."""
    return u[tuple(slice(1 + shift.get(a, 0), s - 1 + shift.get(a, 0))
                   for a, s in enumerate(u.shape))]


def _second_diff(u, axis, h):
    """Central second difference along axis, over the interior of u."""
    return (_interior_view(u, {axis: 1}) - 2.0 * _interior_view(u, {})
            + _interior_view(u, {axis: -1})) / (h * h)


def _cross_diff(u, ax1, ax2, h1, h2):
    """Four-point mixed difference in axes ax1 != ax2, over the interior of u."""
    def view(o1, o2):
        return _interior_view(u, {ax1: o1, ax2: o2})

    return (view(1, 1) - view(1, -1) - view(-1, 1) + view(-1, -1)) / (4.0 * h1 * h2)


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
    n = H.shape[0] // 2
    xi = np.arange(n) * 2
    yi = xi + 1
    re = H[np.ix_(xi, xi)] + H[np.ix_(yi, yi)]
    im = H[np.ix_(xi, yi)] - H[np.ix_(yi, xi)]
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
    for a in range(len(shape)):
        acc += _second_diff(u.values, a, h[a])
    out = np.zeros(shape)
    out[core] = 0.25 * acc
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
    for a in range(m):
        d2 = _second_diff(u.values, a, h[a])
        acc += d2 * d2
        for b in range(a + 1, m):
            d2 = _cross_diff(u.values, a, b, h[a], h[b])
            acc += 2.0 * d2 * d2
    out = np.zeros(shape)
    out[core] = np.sqrt(acc)
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

"""Compiled stencil kernels: stencil.c built with the system C compiler.

stencil.c has one Hessian loop, one apply loop and one fused
factorization loop for every complex dimension n up to its cap
(`Kernels.max_n`).  The factorization loop builds each node's Hessian,
checks the guard on the LDL^H pivots of H - guard I and writes det H
(`det_interior`) or the coefficients of H^{-1} (`inverse_interior`).
Each loop writes through per-axis strides, so every entry point writes
into any output the caller owns whose last axis is contiguous: an
interior array, or the interior view of a full grid.

The shared library is built on first use with
``cc -O3 -ffp-contract=off -shared -fPIC``
into a per-user cache ($XDG_CACHE_HOME/cmalab, else ~/.cache/cmalab),
under a name keyed by a hash of the source, the flags and the machine.
It is written to a temporary file and renamed into place, so processes
that build at the same time never load a partial file.  Later imports
only hash the source and load the cached library.

Every argument is checked here before a pointer reaches C: the grid and
each field group (outputs, coefficients) must be float64, of one shape
and one set of strides, with a contiguous last axis.  An input grid or
coefficient group that is not is copied.  An output group that is not,
that is read-only or that overlaps an input raises ValueError.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile

import numpy as np

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "stencil.c")
# no fused multiply-add contraction: C rounds as numpy does, on every target
_FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")


class KernelBuildError(Exception):
    """The C kernels could not be built or loaded; the message says why."""


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return os.path.join(base, "cmalab")


def _compile(cc: str, source: bytes, target: str) -> None:
    """Compile source to target through a temporary file and a rename."""
    d = os.path.dirname(target)
    try:
        os.makedirs(d, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".build-", suffix=".so")
        os.close(fd)
    except OSError as exc:
        raise KernelBuildError(f"build error: cannot write {d}: {exc}") from exc
    try:
        try:
            proc = subprocess.run([cc, *_FLAGS, "-x", "c", "-o", tmp, "-"],
                                  input=source, capture_output=True)
        except OSError as exc:
            raise KernelBuildError(f"build error: cannot run {cc}: {exc}") from exc
        if proc.returncode != 0:
            lines = proc.stderr.decode(errors="replace").strip().splitlines()
            raise KernelBuildError(
                f"build error: {cc} exited {proc.returncode}"
                + (f": {lines[-1]}" if lines else ""))
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _library() -> ctypes.CDLL:
    try:
        with open(_SOURCE, "rb") as f:
            source = f.read()
    except OSError as exc:
        raise KernelBuildError(f"build error: cannot read the source: {exc}") from exc
    key = hashlib.sha256(b"\0".join(
        [source, " ".join(_FLAGS).encode(), platform.machine().encode()]))
    target = os.path.join(_cache_dir(), f"stencil-{key.hexdigest()[:16]}.so")
    if not os.path.exists(target):
        cc = shutil.which("cc")
        if cc is None:
            raise KernelBuildError("no compiler: cc not found on PATH")
        _compile(cc, source, target)
    try:
        return ctypes.CDLL(target)
    except OSError as exc:
        raise KernelBuildError(f"load error: {exc}") from exc


_DOUBLES = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
_INDICES = np.ctypeslib.ndpointer(dtype=np.intp, flags="C_CONTIGUOUS")
_POINTERS = ctypes.POINTER(ctypes.c_void_p)


def _strides(fields, shape):
    """The per-axis element strides shared by `fields`, or None unless
    each is an aligned float64 array of `shape` with the byte strides of
    the first and a contiguous last axis: then C can address the whole
    group by one pointer per field and one set of strides."""
    strides = getattr(fields[0], "strides", ())
    if strides[-1:] == (8,) and all(
            isinstance(f, np.ndarray) and f.dtype == np.float64 and f.flags.aligned
            and f.shape == shape and f.strides == strides for f in fields):
        return np.array(strides, dtype=np.intp) // 8
    return None


def _pointers(fields):
    return (ctypes.c_void_p * len(fields))(*[f.ctypes.data for f in fields])


class Kernels:
    """The entry points of kernels.fallback over the loaded library, for
    any n up to `max_n`, with the same signatures and results: each
    writes into output arrays the caller owns."""

    IMPL = "c"

    def __init__(self, lib: ctypes.CDLL):
        self.max_n = ctypes.c_int.in_dll(lib, "stencil_max_n").value
        self._hessian = lib.hessian
        self._hessian.argtypes = [ctypes.c_int, _INDICES, _DOUBLES, _DOUBLES,
                                  _POINTERS, _INDICES]
        self._hessian.restype = None
        self._apply = lib.apply
        self._apply.argtypes = [ctypes.c_int, _INDICES, _DOUBLES, _DOUBLES,
                                _POINTERS, _INDICES, ctypes.c_void_p, _INDICES]
        self._apply.restype = None
        self._det, self._inverse = lib.det, lib.inverse
        for fn in (self._det, self._inverse):
            fn.argtypes = [ctypes.c_int, _INDICES, _DOUBLES, _DOUBLES,
                           ctypes.c_double, _POINTERS, _INDICES]
            fn.restype = ctypes.c_ssize_t

    def _grid(self, u, h):
        """u as a C-contiguous float64 2n-d grid and h as its spacings,
        both checked; the shape is checked before anything is copied."""
        shape = np.shape(u)
        if not shape or len(shape) % 2:
            raise ValueError(f"a grid needs a positive, even number of axes, "
                             f"got shape {shape}")
        if len(shape) > 2 * self.max_n:
            raise ValueError(f"at most {2 * self.max_n} axes (n <= {self.max_n}), "
                             f"got shape {shape}")
        if min(shape) < 3:
            raise ValueError(f"every axis needs at least 3 nodes, got shape {shape}")
        h = np.ascontiguousarray(h, dtype=np.float64)
        if h.shape != (len(shape),):
            raise ValueError(f"need {len(shape)} spacings, got shape {h.shape}")
        return np.ascontiguousarray(u, dtype=np.float64), h

    @staticmethod
    def _outputs(out, count, grid, inputs=()):
        """The element strides of the `count` output fields `out`, checked:
        writeable, laid out for C (`_strides`) over the interior of `grid`,
        and sharing no memory with `grid` or `inputs`."""
        inner = tuple(s - 2 for s in grid.shape)
        if len(out) != count:
            raise ValueError(f"need {count} output fields, got {len(out)}")
        strides = _strides(out, inner)
        if strides is None or not all(o.flags.writeable for o in out):
            raise ValueError(f"output fields must be writeable float64 arrays of "
                             f"shape {inner} with equal strides and a contiguous "
                             f"last axis")
        if any(np.may_share_memory(o, a) for o in out for a in (grid, *inputs)):
            raise ValueError("output fields must not overlap the inputs")
        return strides

    def hessian_interior(self, u, h, out) -> None:
        """Write the interior FD complex-Hessian fields of a real 2n-d grid
        function into `out`, n * n interior arrays in coef order."""
        u, h = self._grid(u, h)
        n = u.ndim // 2
        ostrides = self._outputs(out, n * n, u)
        self._hessian(n, np.array(u.shape, dtype=np.intp), h, u,
                      _pointers(out), ostrides)

    def apply_interior(self, coef, v, h, out) -> None:
        """Write the interior of sum a^{ij} v_{ij} into `out`, for interior
        coefficient fields in coef order."""
        v, h = self._grid(v, h)
        n = v.ndim // 2
        inner = tuple(s - 2 for s in v.shape)
        if len(coef) != n * n:
            raise ValueError(f"need {n * n} coefficient fields, got {len(coef)}")
        if any(np.shape(c) != inner for c in coef):
            raise ValueError(f"coefficient fields must have the interior shape "
                             f"{inner}, got " + ", ".join(str(np.shape(c)) for c in coef))
        cstrides = _strides(coef, inner)
        if cstrides is None:
            coef = [np.array(c, dtype=np.float64, order="C") for c in coef]
            cstrides = _strides(coef, inner)
        ostrides = self._outputs((out,), 1, v, coef)
        self._apply(n, np.array(v.shape, dtype=np.intp), h, v, _pointers(coef),
                    cstrides, out.ctypes.data, ostrides)


    def _factor(self, inverse, u, h, guard, out) -> int:
        """One pass of the C `inverse` (n * n outputs) or `det` (one output)
        kernel, after the checks."""
        u, h = self._grid(u, h)
        n = u.ndim // 2
        ostrides = self._outputs(out, n * n if inverse else 1, u)
        fn = self._inverse if inverse else self._det
        return int(fn(n, np.array(u.shape, dtype=np.intp), h, u, float(guard),
                      _pointers(out), ostrides))

    def det_interior(self, u, h, guard, out) -> int:
        """Write det of the interior FD complex Hessian of u into `out`, an
        interior array; the flat C-order interior index of the first node
        whose smallest eigenvalue is not above `guard`, or -1.  After a
        failure the contents of `out` are unspecified."""
        return self._factor(False, u, h, guard, (out,))

    def inverse_interior(self, u, h, guard, coef_out) -> int:
        """Write the inverse interior FD complex Hessian of u into
        `coef_out`, n * n interior arrays in coef order; the first failing
        node as `det_interior` reports it, or -1."""
        return self._factor(True, u, h, guard, coef_out)


def load() -> Kernels:
    """Build (on a cold cache) and load the kernels; KernelBuildError if not."""
    return Kernels(_library())

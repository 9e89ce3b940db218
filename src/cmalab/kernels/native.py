"""Compiled stencil kernels: stencil.c built with the system C compiler.

stencil.c has one Hessian loop and one apply loop for every complex
dimension n up to its cap (`Kernels.max_n`).  Each writes through
per-axis strides, so the interior-only entry points (`hessian_interior`,
`apply_interior`) and the n = 2 full-grid ones (`hessian_fields`,
`apply_linearization`) share it.

The shared library is built on first use with
``cc -O3 -ffp-contract=off -shared -fPIC``
into a per-user cache ($XDG_CACHE_HOME/cmalab, else ~/.cache/cmalab),
under a name keyed by a hash of the source, the flags and the machine.
It is written to a temporary file and renamed into place, so processes
that build at the same time never load a partial file.  Later imports
only hash the source and load the cached library.

Every argument is checked here before a pointer reaches C.
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


def _first_nodes(fields, ring: bool):
    """Pointers to the first interior node of each of `fields` (equal-shape
    C-contiguous float64 arrays), and their common per-axis element
    strides; `ring`: the fields are full grids, not interior arrays."""
    strides = np.array(fields[0].strides, dtype=np.intp) // 8
    skip = 8 * int(strides.sum()) if ring else 0
    ptrs = (ctypes.c_void_p * len(fields))(*[f.ctypes.data + skip for f in fields])
    return ptrs, strides


class Kernels:
    """The Hessian and apply entry points of kernels.fallback over the
    loaded library, with the same signatures and results: the interior
    functions for any n up to `max_n`, and the n = 2 full-grid wrappers
    `hessian_fields` and `apply_linearization` over the same C loops."""

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

    def _run_hessian(self, u, h, out, ring):
        ptrs, strides = _first_nodes(out, ring)
        self._hessian(u.ndim // 2, np.array(u.shape, dtype=np.intp), h, u,
                      ptrs, strides)

    def _run_apply(self, v, h, coef, out, ring):
        cptrs, cstrides = _first_nodes(coef, ring)
        (optr,), ostrides = _first_nodes((out,), ring)
        self._apply(v.ndim // 2, np.array(v.shape, dtype=np.intp), h, v,
                    cptrs, cstrides, optr, ostrides)

    def hessian_interior(self, u, h) -> tuple:
        """The interior FD complex-Hessian fields of a real 2n-d grid
        function, in coef order."""
        u, h = self._grid(u, h)
        n = u.ndim // 2
        inner = tuple(s - 2 for s in u.shape)
        out = tuple(np.empty(inner) for _ in range(n * n))
        self._run_hessian(u, h, out, ring=False)
        return out

    def apply_interior(self, coef, v, h) -> np.ndarray:
        """Interior of sum a^{ij} v_{ij}, for interior coefficient fields
        in coef order."""
        v, h = self._grid(v, h)
        n = v.ndim // 2
        inner = tuple(s - 2 for s in v.shape)
        if len(coef) != n * n:
            raise ValueError(f"need {n * n} coefficient fields, got {len(coef)}")
        if any(np.shape(c) != inner for c in coef):
            raise ValueError(f"coefficient fields must have the interior shape "
                             f"{inner}, got " + ", ".join(str(np.shape(c)) for c in coef))
        coef = [np.ascontiguousarray(c, dtype=np.float64) for c in coef]
        out = np.empty(inner)
        self._run_apply(v, h, coef, out, ring=False)
        return out

    @staticmethod
    def _full_grids(*arrays):
        shapes = [np.shape(a) for a in arrays]
        if len(shapes[-1]) != 4:
            raise ValueError(f"grids must be 4-dimensional, got shape {shapes[-1]}")
        if any(s != shapes[-1] for s in shapes):
            raise ValueError("grid shapes differ: " + ", ".join(map(str, shapes)))

    def hessian_fields(self, u, h) -> tuple:
        """Complex-Hessian entry fields (h11, h22, hre, him) of a real 4d
        grid function, as full grids with a zero ring."""
        self._full_grids(u)
        u, h = self._grid(u, h)
        out = tuple(np.zeros_like(u) for _ in range(4))
        self._run_hessian(u, h, out, ring=True)
        return out

    def apply_linearization(self, p11, p22, p12, q12, v, h) -> np.ndarray:
        """sum a^{ij} v_{ij} on the interior of full 4d grids, with
        coefficients (p11, p22, p12, q12); the ring of the result is zero."""
        self._full_grids(p11, p22, p12, q12, v)
        v, h = self._grid(v, h)
        coef = [np.ascontiguousarray(c, dtype=np.float64) for c in (p11, p22, p12, q12)]
        out = np.zeros_like(v)
        self._run_apply(v, h, coef, out, ring=True)
        return out


def load() -> Kernels:
    """Build (on a cold cache) and load the kernels; KernelBuildError if not."""
    return Kernels(_library())

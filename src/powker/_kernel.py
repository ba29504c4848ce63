"""Backend selection for the hot kernels.

The compiled extension is used when it was built; otherwise the
pure-Python fallback takes over.  `use` switches backends explicitly,
which the test suite and the benchmark use to compare the two.
"""

from __future__ import annotations

from . import _pykernel

try:
    from . import _ckernel
except ImportError:  # extension not built; pure Python only
    _ckernel = None

_active = _ckernel if _ckernel is not None else _pykernel


def available() -> tuple[str, ...]:
    names = ["python"]
    if _ckernel is not None:
        names.insert(0, "c")
    return tuple(names)


def backend() -> str:
    """Name of the active backend: 'c' or 'python'."""
    return _active.BACKEND


def use(name: str) -> str:
    """Switch the active backend; returns the previous backend name."""
    global _active
    previous = _active.BACKEND
    if name == "python":
        _active = _pykernel
    elif name == "c":
        if _ckernel is None:
            raise ValueError("compiled backend is not available")
        _active = _ckernel
    else:
        raise ValueError(f"unknown backend {name!r}")
    return previous


# The engine never calls reduce_slice; the name stays because the
# benchmark's traced pass wraps it.
reduce_slice = _pykernel.reduce_slice


# The compiled rref multiplies two residues in int64, which overflows once
# p(p - 1) >= 2^63; moduli from 2^31 up run on the pure-Python kernel.
_C_RREF_LIMIT = 2**31


def rref(rows: list[list[int]], ncols: int, p: int) -> list[list[int]]:
    if p >= _C_RREF_LIMIT:
        return _pykernel.rref(rows, ncols, p)
    return _active.rref(rows, ncols, p)

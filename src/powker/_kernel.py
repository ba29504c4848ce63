"""The kernel names the benchmark's traced pass binds, and its backend queries.

The engine imports `rref` from `powker._pykernel` directly; it has one
backend, "python".  This module survives because `perfbench/` imports
it: it re-exports the same `rref` object, so that rebinding every
module attribute that holds `_kernel.rref` still reaches each call site.
It also keeps `reduce_slice`, which the engine does not call, as the
name the traced pass wraps; nothing on the CLI's import path loads it.
"""

from __future__ import annotations

from ._pykernel import rref

__all__ = ["available", "backend", "reduce_slice", "rref", "use"]

BACKEND = "python"


def available() -> tuple[str, ...]:
    return (BACKEND,)


def backend() -> str:
    return BACKEND


def use(name: str) -> str:
    """Accept the one backend name; returns the previous one, which is the same."""
    if name != BACKEND:
        raise ValueError(f"unknown backend {name!r}")
    return BACKEND


def reduce_slice(w: list[int], fcoeffs: list[int], p: int) -> list[int]:
    """In-place remainder of a homogeneous slice modulo f.

    w[j] holds the coefficient of x^j in one homogeneous component (the
    t-exponent is implied by the total degree).  fcoeffs[k] holds the
    scalar of t^(d-k)*x^k in a homogeneous divisor f that is monic in x,
    so fcoeffs[d] == 1.  On return w[j] == 0 for all j >= d.
    """
    d = len(fcoeffs) - 1
    for j in range(len(w) - 1, d - 1, -1):
        c = w[j]
        if c:
            w[j] = 0
            base = j - d
            for k in range(d):
                fk = fcoeffs[k]
                if fk:
                    w[base + k] = (w[base + k] - c * fk) % p
    return w

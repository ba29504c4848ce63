"""The kernel names the benchmark's traced pass binds, and its backend queries.

The engine imports `rref` from `powker._pykernel` directly; it has one
backend, "python".  This module survives because `perfbench/` imports
it: it re-exports the same function objects, so that rebinding every
module attribute that holds `_kernel.rref` still reaches each call site.
"""

from __future__ import annotations

from ._pykernel import reduce_slice, rref

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

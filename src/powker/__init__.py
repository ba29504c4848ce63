"""powker: exact mod-p kernels of the total power operation on F_p[t, x],
Hom-dimension tables along the flag filtration, and torsion rank bounds.

The names in `__all__` are resolved on first use (PEP 562), each from the
module that defines it, so `import powker` compiles no engine module and
a command compiles only the modules it runs.
"""

# each public name and the module that defines it, in `__all__` order
_HOME = {
    "__version__": "_version",
    "ConsistencyError": "errors",
    "PrimeModulus": "ffpoly",
    "BiPoly": "ffpoly",
    "binom_mod": "ffpoly",
    "total_power": "steenrod",
    "Parameters": "steenrod",
    "parameters": "steenrod",
    "h_poly": "steenrod",
    "Representation": "reps",
    "f_of": "reps",
    "r_poly": "reps",
    "filtration_rep": "reps",
    "HomProblem": "crt",
    "HomSpace": "homspace",
    "FpMatrix": "homspace",
    "hom_space": "homspace",
    "kernel_dim": "crt",
    "ma_space": "homspace",
    "family_element": "homspace",
    "contains": "homspace",
    "mul_r_shift": "homspace",
    "div_r_shift": "homspace",
    "verify_qr_identity": "homspace",
    "verify_substitution_identity": "homspace",
    "verify_k_lemma": "homspace",
    "FiltrationRow": "bounds",
    "FiltrationTable": "bounds",
    "RankReport": "bounds",
    "SweepRow": "bounds",
    "SweepReport": "bounds",
    "filtration_table": "bounds",
    "pre_filtration_dims": "bounds",
    "rank_report": "bounds",
    "sweep": "bounds",
    "ORDER_STATEMENT": "bounds",
}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

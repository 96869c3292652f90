"""Compute-scaling laboratory for quantized-token sequence models.

Quantizers (finite scalar and vector), prefix-attention sequence losses,
transformer FLOPs and parameter accounting, isoFLOPs frontier extraction,
scaling-law fitting, compute-budget planning, and deterministic synthetic
data for oracle tests.

Submodules and exported names load on first use (PEP 562), so `import scamo_lab`
imports neither numpy nor any submodule; each module's __all__ is its export list.
"""

import sys

__version__ = "0.1.0"

_MODULES = ("core", "flops", "fsq", "planner", "scaling", "seqmodel", "synth", "vq")


def __getattr__(name: str):
    if name in _MODULES:  # the import statement's path, which -X importtime reports
        __import__(f"{__name__}.{name}")
        return sys.modules[f"{__name__}.{name}"]  # the package binds it only after the import
    modules = map(__getattr__, _MODULES)  # imported one at a time, in export order
    if name == "__all__":
        value = [export for module in modules for export in module.__all__]
    else:
        module = next((m for m in modules if name in m.__all__), None)
        if module is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *(globals().get("__all__") or __getattr__("__all__"))})

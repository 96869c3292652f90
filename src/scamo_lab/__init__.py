"""Compute-scaling laboratory for quantized-token sequence models.

Quantizers (finite scalar and vector), prefix-attention sequence losses,
transformer FLOPs and parameter accounting, isoFLOPs frontier extraction,
scaling-law fitting, compute-budget planning, and deterministic synthetic
data for oracle tests.
"""

from . import core, flops, fsq, planner, scaling, seqmodel, synth, vq
from .core import *
from .flops import *
from .fsq import *
from .planner import *
from .scaling import *
from .seqmodel import *
from .synth import *
from .vq import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (core, flops, fsq, planner, scaling, seqmodel, synth, vq)
    for name in module.__all__
]

"""Exact dicolouring toolkit: solver, censuses, structure tests, surface
bounds and satisfiability reductions for digraphs."""

from .certify import verify_dicolouring
from .digraphs import (
    Digraph,
    bidirect,
    circulant_tournament,
)
from .formats import d6_decode, d6_encode, load_digraph, dump_digraph
from .solver import (
    dichromatic_number,
    induced_acyclic_set,
    is_dicritical,
    is_k_dicolourable,
)

__version__ = "0.1.0"

__all__ = [
    "Digraph",
    "bidirect",
    "circulant_tournament",
    "d6_decode",
    "d6_encode",
    "load_digraph",
    "dump_digraph",
    "dichromatic_number",
    "induced_acyclic_set",
    "is_dicritical",
    "is_k_dicolourable",
    "verify_dicolouring",
    "__version__",
]

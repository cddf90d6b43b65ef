"""Simulation and verification of non-signalling boxes with classical
inputs and quantum outputs.

The package exports exactly the public names of its modules: each
module's ``__all__`` is the one list of what it makes public."""

from cqboxes import bounds, boxes, io, multipartite, quantum, synthesis
from cqboxes.bounds import *
from cqboxes.boxes import *
from cqboxes.io import *
from cqboxes.multipartite import *
from cqboxes.quantum import *
from cqboxes.synthesis import *

__all__ = [
    *bounds.__all__, *boxes.__all__, *io.__all__,
    *multipartite.__all__, *quantum.__all__, *synthesis.__all__,
]

__version__ = "0.1.0"

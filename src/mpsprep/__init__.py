"""Linear-depth state-preparation circuits for smooth amplitude functions.

The package factors a smooth target density into a staircase of real
orthogonal two-qubit gates: fit the amplitude piecewise by polynomials,
encode the piecewise polynomial analytically as one matrix product
state, compress it to bond dimension two, and read the gates off the
compressed cores. Every step is verifiable against exact dense oracles.
"""

# Re-export each layer in layer order; its __all__ is the one list of its
# public names.
from .linalg import *
from .mps import *
from .functions import *
from .circuits import *
from .simulate import *
from .analysis import *
from .pipeline import *

__version__ = "0.1.0"

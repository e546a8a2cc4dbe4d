"""segrent: tensor separability tests and entanglement measures.

Pure multipartite states are box-shape amplitude tensors; full
separability is certified by evaluating the quadratic generators that cut
out the product-state (Segre) variety, entanglement is quantified by two
generator-sum measures, and the mixed-state extension is estimated as a
convex roof over ensemble decompositions.
"""

__version__ = "0.1.0"

from . import convex_roof, errors, measures, segre_ideal, tensor_core
from .convex_roof import *
from .errors import *
from .measures import *
from .segre_ideal import *
from .tensor_core import *

__all__ = ["__version__", *tensor_core.__all__, *segre_ideal.__all__, *measures.__all__,
           *convex_roof.__all__, *errors.__all__]

"""Lebesgue-type decomposition of positive semidefinite operators.

Parallel sums and Lebesgue decompositions (absolutely continuous plus
singular parts) of complex PSD matrices, with the same calculus for
sesquilinear forms over a finite basis and for representable functionals on
finite direct sums of matrix algebras.  A JSON-driven command line front end
lives in `oplebesgue.cli`.
"""

from . import core, forms, functionals, lebesgue, parallel
from .core import *
from .forms import *
from .functionals import *
from .lebesgue import *
from .parallel import *

__version__ = "0.1.0"

# each name is exported by the one submodule that defines it
__all__ = [*core.__all__, *forms.__all__, *functionals.__all__, *lebesgue.__all__,
           *parallel.__all__]

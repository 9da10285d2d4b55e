"""Lebesgue-type decomposition of positive semidefinite operators.

Parallel sums and Lebesgue decompositions (absolutely continuous plus
singular parts) of complex PSD matrices, with the same calculus for
sesquilinear forms over a finite basis and for representable functionals on
finite direct sums of matrix algebras.  A JSON-driven command line front end
lives in `oplebesgue.cli`.
"""

from .core import (
    DEFAULT_TOL,
    DimensionMismatchError,
    EigenDecomposition,
    NumericalError,
    PsdMatrix,
    Tolerances,
    eig_hermitian,
    loewner_leq,
    pinv,
    range_projection,
)
from .forms import (
    SesquilinearForm,
    form_decompose,
    form_parallel_sum,
    induced_operator,
)
from .functionals import (
    AlgebraElement,
    Functional,
    GnsTriplet,
    StarAlgebra,
    evaluate,
    functional_decompose,
    functional_from_densities,
    functional_from_form,
    functional_parallel_sum,
    gns,
    induced_form,
)
from .lebesgue import (
    AuxiliarySpace,
    LebesgueDecomposition,
    Method,
    arlinskii_iterate,
    arlinskii_step,
    auxiliary_space,
    decompose,
    direct_decompose,
    is_absolutely_continuous,
    is_singular,
)
from .parallel import (
    AndoLimitResult,
    ando_ac_part,
    parallel_sum,
    spectral_ac_of_contraction,
    variational_value,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement",
    "AndoLimitResult",
    "AuxiliarySpace",
    "DEFAULT_TOL",
    "DimensionMismatchError",
    "EigenDecomposition",
    "Functional",
    "GnsTriplet",
    "LebesgueDecomposition",
    "Method",
    "NumericalError",
    "PsdMatrix",
    "SesquilinearForm",
    "StarAlgebra",
    "Tolerances",
    "ando_ac_part",
    "arlinskii_iterate",
    "arlinskii_step",
    "auxiliary_space",
    "decompose",
    "direct_decompose",
    "eig_hermitian",
    "evaluate",
    "form_decompose",
    "form_parallel_sum",
    "functional_decompose",
    "functional_from_densities",
    "functional_from_form",
    "functional_parallel_sum",
    "gns",
    "induced_form",
    "induced_operator",
    "is_absolutely_continuous",
    "is_singular",
    "loewner_leq",
    "parallel_sum",
    "pinv",
    "range_projection",
    "spectral_ac_of_contraction",
    "variational_value",
]

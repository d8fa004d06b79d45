"""buckdens: exact periodic-set algebra, residue-cover oracles, and
certified sumset-density towers."""

import os

# One OpenBLAS thread, set before the first import of numpy.  The one BLAS
# call is the logarithmic proxy's dot product, which a second thread does
# not speed up, and an idle second thread spins for about 0.1 s of CPU
# after start-up and after each threaded call.  A value already set is
# overwritten: on more threads OpenBLAS would split each half of the
# proxy's fixed two-part sum (``density.empirical_logarithmic``) again,
# and its last digits would move.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .sets import (
    ResidueSet,
    ResourceLimitError,
    affine,
    canonicalize,
    intersect,
    naturals,
    rebase,
    sumset_mod,
    union,
)
from .density import (
    BUCK,
    DensityInterval,
    UpperDensityFn,
    axiom_suite,
    buck_upper_periodic,
)
from .oracles import (
    CoverOracle,
    FactorialsOracle,
    FiniteOracle,
    PerfectPowersOracle,
    PrimesOracle,
    parse_oracle,
    smallness_profile,
)
from .construction import (
    CertificateError,
    Level,
    Tower,
    a_bounds,
    check_claimA,
    construct,
    count_A,
    step,
    sum_bounds,
    tower_from_json,
    tower_to_json,
)
from .verify import cross_density_check, enumerate_sumset, theorem_report

__version__ = "0.1.0"

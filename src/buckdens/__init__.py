"""buckdens: exact periodic-set algebra, residue-cover oracles, and
certified sumset-density towers."""

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

"""flatscale: flat surfaces, short saddle-connection loci, plumbing calculus."""

__version__ = "0.1.0"

from .surface import (
    StratumSignature,
    TranslationSurface,
    ValidationReport,
)
from .unfolding import (
    SaddleConnection,
    UnfoldingBudgetError,
    enumerate_saddle_connections,
    primitive_lattice_vectors,
)
from .homology import (
    LinearSubspace,
    are_parallel,
    independence_rank,
    real_subspace,
)
from .charts import ChartModel, build_h2_octagon_chart, build_torus_chart, get_chart

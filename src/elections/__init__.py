"""Monte Carlo simulation of U.S. presidential elections (1964-2008 data)
from a principal-components model of correlated state voting."""

import os

# One BLAS thread unless the user sets another count: the matrices are small,
# and BLAS threads would compete with run_batch's own threads for the CPUs.
# This runs before the package first imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .dataset import (
    ElectionDataset,
    STATE_NAMES,
    load_bundled_dataset,
    load_dataset,
    two_party_share,
)
from .generator import SimulatedShares, draw_noise, generate_shares
from .montecarlo import (
    OutcomeRecord,
    RunSummary,
    SweepResult,
    classify,
    emit_figure_data,
    run_batch,
    senate_sweep,
)
from .pca import (
    PcaModel,
    covariance,
    fit_pca,
    loadings_report,
    variance_explained,
)
from .tally import TallyResult, electoral_totals, pool

__version__ = "0.1.0"

__all__ = [
    "ElectionDataset", "STATE_NAMES", "load_bundled_dataset", "load_dataset",
    "two_party_share", "SimulatedShares",
    "draw_noise", "generate_shares", "OutcomeRecord", "RunSummary",
    "SweepResult", "classify", "emit_figure_data", "run_batch", "senate_sweep",
    "PcaModel", "covariance", "fit_pca", "loadings_report",
    "variance_explained", "TallyResult", "electoral_totals", "pool", "__version__",
]

"""Monte Carlo simulation of U.S. presidential elections (1964-2008 data)
from a principal-components model of correlated state voting."""

import os

# One BLAS thread unless the user sets another count: the matrices are small,
# and BLAS threads would compete with run_batch's own threads for the CPUs.
# This runs before the package first imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

# Only the names imported from the package itself (perfbench, the study script,
# the tests' fixtures); every other name is imported from its module.
from .dataset import load_bundled_dataset
from .generator import draw_noise, generate_shares
from .montecarlo import classify, run_batch, senate_sweep
from .pca import fit_pca
from .tally import electoral_totals

__version__ = "0.1.0"

__all__ = [
    "load_bundled_dataset", "fit_pca", "draw_noise", "generate_shares", "run_batch",
    "classify", "electoral_totals", "senate_sweep", "__version__",
]

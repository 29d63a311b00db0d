#!/usr/bin/env python3
"""End-to-end study: fit the model, simulate, and print the headline numbers.

Equivalent to `elections pca` + `elections simulate` but prints a compact
narrative summary instead of writing files.  Usage:

    python3 scripts/run_study.py [--trials 20000] [--seed 0] [--threads 1]
"""

import argparse

import numpy as np

from elections import fit_pca, load_bundled_dataset, run_batch, senate_sweep
from elections.dataset import STATE_NAMES
from elections.pca import variance_explained


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=20000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--threads", type=int, default=1)
    args = ap.parse_args()

    data = load_bundled_dataset()
    model = fit_pca(data)

    print(f"Elections {data.years[0]}-{data.years[-1]}, 51 states, "
          f"{model.n_components} principal components")
    lam = model.eigenvalues
    print("Eigenvalues:", " ".join(f"{x:.4f}" for x in lam))
    print(f"Variance explained by top 1/2/3 components: "
          f"{variance_explained(model, 1):.3f} / "
          f"{variance_explained(model, 2):.3f} / "
          f"{variance_explained(model, 3):.3f}")
    vec1 = model.eigenvectors[0]
    dominant = np.sign(np.median(np.sign(vec1)))
    discordant = [STATE_NAMES[i] for i in range(51)
                  if np.sign(vec1[i]) != dominant]
    print(f"States opposing the national swing (component 1): "
          f"{', '.join(discordant) or 'none'}")
    top6 = [STATE_NAMES[i]
            for i in np.argsort(np.abs(model.eigenvectors[1]))[-6:][::-1]]
    print(f"Largest component-2 loadings: {', '.join(top6)}")

    summary = run_batch(model, data, trials=args.trials, seed=args.seed,
                        threads=args.threads)
    sweep = senate_sweep(summary.table)
    print()
    print(f"Simulated {summary.trials} elections (seed {args.seed}, "
          f"{summary.n_classified} classified)")
    for code in ("WW", "WL", "LW", "LL"):
        print(f"  {code}: {summary.counts[code]:6d}  ({summary.freq[code]:.4f})")
    print(f"Popular winner loses the full electoral college: "
          f"{summary.unpopular_full:.4f}")
    print(f"Popular winner loses with House electors only:   "
          f"{summary.unpopular_house:.4f}")
    print(f"Popular winner carries a minority of states:     "
          f"{sweep.states_won_limit:.4f}")
    print(f"Democratic electoral win rate:                   "
          f"{summary.dem_win_rate:.4f}")
    print("Unpopular frequency as Senate electors per state grow:")
    for k, freq in sweep.by_k.items():
        print(f"  k={k:<4d} {freq:.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

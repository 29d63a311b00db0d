"""Acceptance gate: one test and one printed pass/fail line per criterion.

Every numeric band below is frozen; loosening a band is never the right fix
for a failure.  Verdict lines accumulate in VERDICTS and are printed in the
terminal summary (see conftest), after pytest's output capture ends.
"""

import time

import numpy as np
import pytest

from elections import montecarlo as mc
from elections import pca
from elections.cli import main as cli_main
from elections.dataset import STATE_NAMES
from elections.generator import draw_noise_batch, generate_shares_batch
from elections.tally import SCENARIOS, scenario_totals

SEED = 0
TRIALS = 20000
# criterion 5's frozen (low, high) band of each headline frequency
HEADLINE_BANDS = {
    "unpopular_full": (0.039, 0.060),
    "unpopular_house": (0.059, 0.080),
    "states_won": (0.050, 0.072),
    "dem_win_rate": (0.40, 0.48),
}

VERDICTS: list[str] = []


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance {num}] {status}: {name}"
    if detail:
        line += f" ({detail})"
    VERDICTS.append(line)
    print(line)
    assert ok, line


def test_criterion_1_scenarios(capsys):
    t0 = time.perf_counter()
    expected = {"LW": (253, 247, 5, 6, 3, 2),
                "LL": (261, 239, 3, 8, 1, 4),
                "WL": (253, 247, 6, 5, 2, 3)}
    results = {code: scenario_totals(s.shares) for code, s in SCENARIOS.items()}
    ok = all(
        (round(r[0]), round(r[1]), *r[2:]) == expected[code]
        for code, r in results.items()
    )
    ok = ok and cli_main(["scenario"]) == 0
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    report(1, "three-state scenario table exact", ok, f"{elapsed:.3f}s")


def test_criterion_2_spectrum(model):
    t0 = time.perf_counter()
    lam1 = float(model.eigenvalues[0])
    v3 = pca.variance_explained(model, 3)
    ok = (model.n_components == 11
          and abs(lam1 - 0.2217) <= 0.10 * 0.2217
          and 0.86 <= v3 <= 0.91)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    report(2, "leading eigenvalue and 3-component variance share",
           ok, f"lam1={lam1:.4f}, var3={v3:.4f}")


def test_criterion_3_loadings(model):
    vec1 = model.eigenvectors[0]
    dominant = np.sign(np.median(np.sign(vec1)))
    discordant = [STATE_NAMES[i] for i in range(51)
                  if np.sign(vec1[i]) != dominant]
    top6 = {STATE_NAMES[i] for i in np.argsort(np.abs(model.eigenvectors[1]))[-6:]}
    ok = (discordant == ["Mississippi"]
          and top6 == {"Mississippi", "Alabama", "Georgia", "Arkansas",
                       "Louisiana", "South Carolina"})
    report(3, "component structure: lone discordant state, Deep South block",
           ok, f"discordant={discordant}")


def test_criterion_4_correlations(dataset):
    corr = np.corrcoef(dataset.shares.T)
    vals = corr[np.triu_indices(51, k=1)]
    share = float((vals > 0.70).mean())
    ok = len(vals) == 1275 and share > 0.5
    report(4, "majority of state pairs correlate above 0.70",
           ok, f"{share:.3f} of 1275 pairs")


def headlines(summary, sweep) -> dict:
    """The four headline frequencies of a run, keyed as HEADLINE_BANDS."""
    return {"unpopular_full": summary.unpopular_full, "unpopular_house": summary.unpopular_house,
            "states_won": sweep.states_won_limit, "dem_win_rate": summary.dem_win_rate}


def test_criterion_5_headline_frequencies(summary_20k, sweep_20k):
    t0 = time.perf_counter()
    s, sw = summary_20k, sweep_20k
    checks = {name: (value, *HEADLINE_BANDS[name]) for name, value in headlines(s, sw).items()}
    ok = (s.trials == TRIALS and s.seed == SEED
          and all(lo <= v <= hi for v, lo, hi in checks.values()))
    detail = ", ".join(f"{k}={v:.4f}" for k, (v, _, _) in checks.items())
    report(5, f"headline frequencies at {TRIALS} trials, seed {SEED}", ok, detail)
    assert time.perf_counter() - t0 < 30.0


def test_criterion_6_structure(summary_20k, sweep_20k):
    s, sw = summary_20k, sweep_20k
    pos = sum(c for lo, hi, c in s.diff_histogram if lo >= 0)
    tot = sum(c for _, _, c in s.diff_histogram)
    ok = (s.unpopular_house > s.unpopular_full
          and sw.by_k[0] == s.unpopular_house
          and sw.by_k[2] == s.unpopular_full
          and sw.states_won_limit == s.states_won_unpopular
          and tot > 0 and pos / tot > 0.5)
    report(6, "house-only beats full; sweep identities; histogram skew",
           ok, f"house={s.unpopular_house:.4f} > full={s.unpopular_full:.4f}, "
               f"positive mass={pos / tot:.3f}")


def test_criterion_7_generator_moments(model):
    z = draw_noise_batch(SEED, 0, 50000, model.n_components)
    raw = generate_shares_batch(model, z)
    mean_err = float(np.max(np.abs(raw.mean(axis=0) - model.mean)))
    target_cov = (model.eigenvectors.T * model.eigenvalues) @ model.eigenvectors
    sample_cov = np.cov(raw.T, ddof=1)
    cov_err = float(np.max(np.abs(sample_cov - target_cov)))
    ok = mean_err <= 0.01 and cov_err <= 0.01
    report(7, "simulated shares reproduce model mean and covariance",
           ok, f"mean_err={mean_err:.5f}, cov_err={cov_err:.5f}")


def test_criterion_8_numerical_hygiene(model, dataset):
    def hygiene(data):
        m = pca.fit_pca(data)
        cov = pca.covariance(data - data.mean(axis=0))
        lam1 = m.eigenvalues[0]
        resid = max(float(np.max(np.abs(cov @ v - lam * v)))
                    for lam, v in zip(m.eigenvalues, m.eigenvectors))
        gram = m.eigenvectors @ m.eigenvectors.T
        ortho = float(np.max(np.abs(gram - np.eye(m.n_components))))
        trace_rel = abs(np.trace(cov) - m.eigenvalues.sum()) / np.trace(cov)
        return resid <= 1e-10 * lam1 and ortho <= 1e-10 and trace_rel <= 1e-10

    rng = np.random.default_rng(12345)
    ok = hygiene(dataset.shares)
    for _ in range(100):
        ok = ok and hygiene(rng.uniform(0.2, 0.8, size=(12, 51)))
    report(8, "eigen residual/orthonormality/trace bounds on 101 datasets", ok)


def test_criterion_9_determinism(model, dataset, summary_20k):
    serial = mc.run_batch(model, dataset, trials=TRIALS, seed=SEED, threads=1)
    parallel = mc.run_batch(model, dataset, trials=TRIALS, seed=SEED, threads=4)
    ok = (serial.to_json() == parallel.to_json()
          == summary_20k.to_json())
    report(9, "serial and 4-thread runs are byte-identical", ok)

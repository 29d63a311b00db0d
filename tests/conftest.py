import csv

import pytest

from elections import fit_pca, load_bundled_dataset, run_batch, senate_sweep
from elections.dataset import STATE_NAMES


@pytest.fixture(scope="session")
def dataset():
    return load_bundled_dataset()


@pytest.fixture(scope="session")
def model(dataset):
    return fit_pca(dataset)


@pytest.fixture(scope="session")
def save_dataset():
    """save_dataset(dataset, shares_path, structure_path) writes a dataset as
    the two CSVs that load_dataset reads, shares at full float precision."""
    def save(dataset, shares_path, structure_path):
        with open(shares_path, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(["state", "year", "dem_share"])
            for t, year in enumerate(dataset.years):
                for s, name in enumerate(STATE_NAMES):
                    writer.writerow([name, year, repr(float(dataset.shares[t, s]))])
        with open(structure_path, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(["state", "turnout_two_party_2008", "house_electors"])
            for s, name in enumerate(STATE_NAMES):
                writer.writerow([name, int(dataset.turnout[s]), int(dataset.house_electors[s])])
    return save


@pytest.fixture(scope="session")
def summary_20k(model, dataset):
    return run_batch(model, dataset, trials=20000, seed=0, keep_records=True)


@pytest.fixture(scope="session")
def sweep_20k(summary_20k):
    return senate_sweep(summary_20k, k_values=(0, 2, 10, 100))


def pytest_terminal_summary(terminalreporter):
    """Print one acceptance verdict line per criterion, outside capture."""
    import sys

    mod = (sys.modules.get("test_acceptance")
           or sys.modules.get("tests.test_acceptance"))
    if mod is not None and mod.VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in mod.VERDICTS:
            terminalreporter.write_line(line)

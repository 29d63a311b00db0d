import pytest

from elections import fit_pca, load_bundled_dataset, run_batch, senate_sweep


@pytest.fixture(scope="session")
def dataset():
    return load_bundled_dataset()


@pytest.fixture(scope="session")
def model(dataset):
    return fit_pca(dataset)


@pytest.fixture(scope="session")
def summary_20k(model, dataset):
    return run_batch(model, dataset, trials=20000, seed=0, keep_records=True)


@pytest.fixture(scope="session")
def sweep_20k(summary_20k):
    return senate_sweep(summary_20k.table, k_values=(0, 2, 10, 100))


def pytest_terminal_summary(terminalreporter):
    """Print one acceptance verdict line per criterion, outside capture."""
    import sys

    mod = (sys.modules.get("test_acceptance")
           or sys.modules.get("tests.test_acceptance"))
    if mod is not None and mod.VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in mod.VERDICTS:
            terminalreporter.write_line(line)

import numpy as np
import pytest

from elections import pca
from elections.dataset import STATE_INDEX, STATE_NAMES


def test_center_toy():
    dm = pca.center(np.array([[0.4, 0.6], [0.6, 0.8]]))
    assert np.allclose(dm.mean, [0.5, 0.7])
    assert np.allclose(dm.devs, [[-0.1, -0.1], [0.1, 0.1]])
    assert dm.n == 2


def test_covariance_toy():
    dm = pca.center(np.array([[0.4, 0.6], [0.6, 0.8]]))
    cov = pca.covariance(dm)
    assert np.allclose(cov, [[0.02, 0.02], [0.02, 0.02]])


def test_fit_toy_eigenpair():
    model = pca.fit_pca(np.array([[0.4, 0.6], [0.6, 0.8]]))
    assert model.n_components == 1
    assert model.eigenvalues[0] == pytest.approx(0.04, abs=1e-12)
    assert np.allclose(model.eigenvectors[0], [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_covariance_degenerate():
    dm = pca.center(np.array([[0.4, 0.6]]))
    with pytest.raises(pca.DegenerateSample):
        pca.covariance(dm)
    with pytest.raises(pca.DegenerateSample):  # no variance at all
        pca.fit_pca(np.full((12, 51), 0.5))


def test_centering_columns_sum_to_zero(dataset):
    dm = pca.center(dataset)
    assert np.allclose(dm.devs.sum(axis=0), 0.0, atol=1e-12)


def test_bundled_model_rank_and_order(model):
    assert model.n_components == 11
    assert np.all(model.eigenvalues > 0)
    assert np.all(np.diff(model.eigenvalues) <= 0)
    # descending order strictly, since the spectrum has no repeated values
    assert np.all(np.diff(model.eigenvalues) < 0)


def test_bundled_model_numerics(model, dataset):
    cov = pca.covariance(pca.center(dataset))
    lam1 = model.eigenvalues[0]
    for lam, vec in zip(model.eigenvalues, model.eigenvectors):
        assert np.max(np.abs(cov @ vec - lam * vec)) <= 1e-10 * lam1
    gram = model.eigenvectors @ model.eigenvectors.T
    assert np.max(np.abs(gram - np.eye(model.n_components))) <= 1e-10
    assert np.trace(cov) == pytest.approx(model.eigenvalues.sum(), rel=1e-10)


def test_reconstruction_oracle(model, dataset):
    cov = pca.covariance(pca.center(dataset))
    recon = (model.eigenvectors.T * model.eigenvalues) @ model.eigenvectors
    assert np.max(np.abs(recon - cov)) <= 1e-12


def test_sign_convention(model):
    for vec in model.eigenvectors:
        total = vec.sum()
        assert total >= -1e-12
        if abs(total) <= 1e-12:
            nonzero = vec[np.nonzero(vec)[0]]
            assert nonzero[0] > 0


def test_isotropic_covariance():
    # build centered data whose sample covariance is exactly c * I
    rng = np.random.default_rng(3)
    n, p, c = 8, 4, 0.05
    x = rng.normal(size=(n, p))
    x -= x.mean(axis=0)
    q, _ = np.linalg.qr(x)  # centered orthonormal columns
    data = np.sqrt(c * (n - 1)) * q[:, :p]
    model = pca.fit_pca(data)
    assert np.allclose(model.eigenvalues, c, atol=1e-12)


def test_duplicate_election_drops_zero_eigenvalue():
    rng = np.random.default_rng(0)
    data = rng.uniform(0.3, 0.7, size=(12, 51))
    data[5] = data[4]  # duplicate election -> rank at most 10
    assert pca.fit_pca(data).n_components <= 10


def _sign_convention_loop(vectors):
    out = vectors.copy()
    for row in out:
        total = row.sum()
        nonzero = row[np.nonzero(row)[0]]
        if total < -1e-12 or (abs(total) <= 1e-12 and len(nonzero) and nonzero[0] < 0):
            row *= -1
    return out


def test_sign_convention_matches_loop():
    rng = np.random.default_rng(7)
    for _ in range(200):
        rows = rng.normal(size=(6, 5))
        rows[1] -= rows[1].mean()                    # zero sum up to rounding
        rows[2] = [0.0, -1.0, 1.0, 2.0, -2.0]        # exact zero sum
        rows[3] = 0.0
        rows[4, :2] = 0.0
        rng.shuffle(rows)
        assert np.array_equal(pca._apply_sign_convention(rows), _sign_convention_loop(rows))


def test_variance_explained(model):
    assert pca.variance_explained(model, 11) == pytest.approx(1.0, abs=1e-12)
    v1 = pca.variance_explained(model, 1)
    v3 = pca.variance_explained(model, 3)
    assert 0 < v1 < v3 < 1
    toy = pca.fit_pca(np.array([[0.4, 0.6], [0.6, 0.8], [0.5, 0.4]]))
    lam = toy.eigenvalues
    assert pca.variance_explained(toy, 1) == pytest.approx(lam[0] / lam.sum())
    with pytest.raises(pca.IndexOutOfRange):
        pca.variance_explained(model, 0)
    with pytest.raises(pca.IndexOutOfRange):
        pca.variance_explained(model, 12)


def test_variance_explained_two_component_example():
    # spectrum (3, 1): top component carries 75%
    data = np.array([[0.0, 0.0], [2.0, 0.0], [-2.0, 0.0],
                     [0.0, np.sqrt(4 / 3)], [0.0, -np.sqrt(4 / 3)], [0.0, 0.0]])
    model = pca.fit_pca(data)
    assert model.eigenvalues[0] / model.eigenvalues[1] == pytest.approx(3.0)
    assert pca.variance_explained(model, 1) == pytest.approx(0.75)


def test_loadings_report(model):
    report = pca.loadings_report(model, 1)
    assert len(report) == 51
    assert {name for name, _ in report} == set(STATE_NAMES)
    coeffs = [c for _, c in report]
    assert coeffs == sorted(coeffs)
    assert np.allclose(sorted(coeffs),
                       sorted(model.eigenvectors[0]))
    with pytest.raises(pca.IndexOutOfRange):
        pca.loadings_report(model, 12)


def test_first_component_structure(model):
    # the dominant component is a national swing: Mississippi is the only
    # state whose coefficient opposes the common direction
    vec = model.eigenvectors[0]
    dominant = np.sign(np.median(np.sign(vec)))
    discordant = [STATE_NAMES[i] for i in range(51)
                  if np.sign(vec[i]) != dominant]
    assert discordant == ["Mississippi"]


def test_second_component_structure(model):
    # the second component is the Deep South swing
    vec = np.abs(model.eigenvectors[1])
    top6 = {STATE_NAMES[i] for i in np.argsort(vec)[-6:]}
    assert top6 == {"Mississippi", "Alabama", "Georgia", "Arkansas",
                    "Louisiana", "South Carolina"}


def test_pairwise_correlations(dataset):
    corr = np.corrcoef(dataset.shares.T)
    iu = np.triu_indices(51, k=1)
    vals = corr[iu]
    assert len(vals) == 1275
    assert (vals > 0.70).mean() > 0.5


def test_random_matrix_reconstruction():
    rng = np.random.default_rng(42)
    for _ in range(10):
        data = rng.uniform(0.2, 0.8, size=(12, 51))
        model = pca.fit_pca(data)
        cov = pca.covariance(pca.center(data))
        recon = (model.eigenvectors.T * model.eigenvalues) @ model.eigenvectors
        assert np.max(np.abs(recon - cov)) <= 1e-10

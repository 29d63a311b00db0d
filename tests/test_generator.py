import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from elections import generator as gen
from elections.pca import PcaModel


def toy_model():
    return PcaModel(
        mean=np.array([0.5, 0.7]),
        eigenvalues=np.array([0.04]),
        eigenvectors=np.array([[1 / np.sqrt(2), 1 / np.sqrt(2)]]),
        n=2,
    )


def test_draw_noise_deterministic():
    a = gen.draw_noise(7, 123, size=11)
    assert a.shape == (11,) and not a.flags.writeable
    assert np.array_equal(a, gen.draw_noise(7, 123, size=11))


def test_draw_noise_substreams_differ():
    base = gen.draw_noise(7, 123, 11)
    assert not np.array_equal(base, gen.draw_noise(7, 124, 11))
    assert not np.array_equal(base, gen.draw_noise(8, 123, 11))


def test_draw_noise_negative_trial():
    with pytest.raises(ValueError):
        gen.draw_noise(0, -1, 11)
    # Philox truncates a float key and takes True as key 1, and advance()
    # takes True as 1; a negative start must never reach advance()
    for seed, start in ((0, -1), (-1, 0), (2**128, 0), (1.5, 0), (True, 0),
                        (np.float64(1), 0), (0, True), (0, 1.5), (0, np.float64(1))):
        with pytest.raises(ValueError):
            gen.draw_noise_batch(seed, start, 5, 11)
    for count, size in ((-1, 11), (True, 11), (2.0, 11), (5, 0), (5, True), (5, 11.0)):
        with pytest.raises(ValueError):
            gen.draw_noise_batch(0, 0, count, size)
    with pytest.raises(TypeError):   # size has no default
        gen.draw_noise_batch(0, 0, 1)
    assert np.array_equal(gen.draw_noise_batch(np.uint64(1), np.int64(0), np.int32(2), 11),
                          gen.draw_noise_batch(1, 0, 2, 11))


def test_batch_matches_single():
    # start 10 is deliberately not a multiple of 4, the words per counter
    for size in (1, 11, 19):
        batch = gen.draw_noise_batch(3, 10, 5, size=size)
        assert batch.shape == (5, size)
        assert np.array_equal(batch, gen.draw_noise_batch(3, 0, 15, size=size)[10:])
        for i in range(5):
            assert np.array_equal(batch[i], gen.draw_noise(3, 10 + i, size))


BOUNDS = {"trials": 2**53, "seed": 2**128, "threads": 256, "bin_width": 10**9}


@pytest.mark.parametrize("name, high", BOUNDS.items())
def test_check_integers_takes_each_range_up_to_its_bound(name, high):
    """Counts and bin edges are exact in a JSON double, threads counts OS threads,
    and a seed is a 128-bit Philox key; high - 1 passes and high is a ValueError."""
    assert gen.RANGES[name][1] == high
    assert gen.check_integers(**{name: high - 1}) == [high - 1]
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= [01] and < {high}, "):
        gen.check_integers(**{name: high})


@pytest.mark.parametrize("name, low", [("k", 0), ("start", 0), ("count", 0), ("size", 1)])
def test_check_integers_unbounded_names(name, low):
    """The other names have only a lower bound, and their message names no upper one."""
    assert gen.check_integers(**{name: 10**100}) == [10**100]
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= {low}, got {low - 1}$"):
        gen.check_integers(**{name: low - 1})


def test_draw_noise_batch_seed_upper_bound(monkeypatch):
    """The largest key draws (REFERENCE_DRAWS checks its values); the next is
    the range's ValueError, raised before Philox sees it."""
    assert gen.draw_noise_batch(2**128 - 1, 0, 2, 11).shape == (2, 11)
    monkeypatch.setattr(gen, "np", None)
    with pytest.raises(ValueError, match=f"^seed must be an integer >= 0 and < {2**128}, "):
        gen.draw_noise_batch(2**128, 0, 2, 11)


def test_zero_noise_returns_mean(model):
    out = gen.generate_shares(model, np.zeros(model.n_components))
    assert np.array_equal(out.raw, model.mean)


def test_toy_single_eigenpair_formula():
    out = gen.generate_shares(toy_model(), np.array([1.0]))
    expect = np.array([0.5, 0.7]) + 0.2 / np.sqrt(2)
    assert np.allclose(out.raw, expect, atol=1e-15)
    assert np.allclose(out.raw, [0.64142, 0.84142], atol=1e-4)


def test_dimension_mismatch(model):
    with pytest.raises(gen.DimensionMismatch):
        gen.generate_shares(model, np.zeros(model.n_components + 1))
    with pytest.raises(gen.DimensionMismatch):
        gen.generate_shares_batch(model, np.zeros((3, model.n_components + 1)))


def test_clamping():
    big = gen.generate_shares(toy_model(), np.array([10.0]))
    assert big.raw[0] > 1.0
    assert big.clamped[0] == 1.0
    small = gen.generate_shares(toy_model(), np.array([-10.0]))
    assert small.clamped[0] == 0.0


def test_projection_recovers_noise_exactly(model):
    z = gen.draw_noise(5, 0, model.n_components)
    out = gen.generate_shares(model, z)
    proj = (out.raw - model.mean) @ model.eigenvectors.T
    assert np.allclose(proj, z * np.sqrt(model.eigenvalues), atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_generation_is_affine(t1, t2):
    model = toy_model()
    z1 = gen.draw_noise(0, t1, 1)
    z2 = gen.draw_noise(0, t2, 1)
    lhs = gen.generate_shares(model, z1 + z2).raw - model.mean
    rhs = (gen.generate_shares(model, z1).raw - model.mean
           + gen.generate_shares(model, z2).raw - model.mean)
    assert np.allclose(lhs, rhs, atol=1e-12)


def _uniforms(words):
    """The contract's uniform ((w >> 11) + 1) * 2**-53 of each 64-bit word."""
    return ((words >> np.uint64(11)) + np.uint64(1)) * 2.0 ** -53


def test_edge_words_give_finite_normals():
    lo, hi = 0, 2**64 - 1
    words = np.array([[lo, lo, lo, hi, hi, lo, hi, hi]], dtype=np.uint64)
    z = gen._normals(_uniforms(words), 8)[0]
    # every z is finite only if no uniform is 0 (log 0) or above 1 (a negative
    # radius square); word 0 is the smallest uniform 2**-53, word 2**64-1 is 1
    assert z.shape == (8,) and np.all(np.isfinite(z))
    assert np.allclose(np.hypot(z[0:4:2], z[1:4:2]), np.sqrt(-2 * np.log(2.0 ** -53)))
    assert np.all(z[4:] == 0.0)


def test_draw_follows_the_word_contract():
    # trial t owns Philox counters [b t, b (t + 1)); its words, made uniform,
    # give Box-Muller pairs (r cos theta, r sin theta), of which `size` are kept
    start, count = 1001, 64
    for size in (1, 11, 12, 19):
        blocks = -(-size // 4)
        bitgen = np.random.Philox(key=2**100 + 5)
        bitgen.advance(blocks * start)
        u = _uniforms(bitgen.random_raw(4 * blocks * count).reshape(count, 4 * blocks))
        r = np.sqrt(-2.0 * np.log(u[:, 0::2]))
        theta = 2.0 * np.pi * u[:, 1::2]
        pairs = np.stack((r * np.cos(theta), r * np.sin(theta)), axis=-1).reshape(u.shape)
        assert np.array_equal(gen.draw_noise_batch(2**100 + 5, start, count, size),
                              pairs[:, :size])


# seed, start and size of each reference draw: both ends of the key range, one
# to five blocks per trial, and a start whose counter carries into its second word
REFERENCE_DRAWS = [(seed, start, size) for seed in (0, 1, 2**128 - 1)
                   for size in (1, 11, 12, 19)
                   for start in (0, 1001, 2**64 // -(-size // 4) + 3)]


def test_philox_words_match_the_reference():
    for seed, start, size in REFERENCE_DRAWS:
        blocks = -(-size // 4)
        bitgen = np.random.Philox(key=seed)
        bitgen.advance(blocks * start)
        assert (bitgen.random_raw(4 * blocks * 8).tolist()
                == reference.philox_words(seed, blocks * start, blocks * 8)), (seed, start, size)


def reference_gaps(count=80):
    """|draw_noise_batch - the reference|, relative above 1, for `count`
    trials of each REFERENCE_DRAWS case, as one flat array."""
    gaps = []
    for seed, start, size in REFERENCE_DRAWS:
        want = np.array([reference.normals(seed, start + t, size) for t in range(count)])
        gaps.append((np.abs(gen.draw_noise_batch(seed, start, count, size) - want)
                     / np.maximum(1.0, np.abs(want))).ravel())
    return np.concatenate(gaps)


def test_draw_matches_the_reference():
    # numpy's AVX-512 float64 log may round a uniform's log one unit apart
    # from the C library's, which `math.log` calls
    assert reference_gaps().max() <= 1e-15


def test_draw_equals_the_reference_without_avx512():
    """With numpy's AVX-512 loops off, its log, cos and sin are the C
    library's, and every normal equals the reference's bit for bit."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:   # numpy 1
        from numpy.core._multiarray_umath import __cpu_features__
    src, tests = Path(gen.__file__).resolve().parents[1], Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(tests)])}
    if __cpu_features__.get("AVX512F"):
        env["NPY_DISABLE_CPU_FEATURES"] = "X86_V4 AVX512_ICL AVX512_SPR"
    code = "import test_generator; print(int((test_generator.reference_gaps() != 0).sum()))"
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=tests,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "0"


def test_import_does_not_load_scipy():
    """Nor the stdlib modules of a thread pool or of dataclasses, which cost
    a few milliseconds of every run's start-up."""
    src = Path(gen.__file__).resolve().parents[1]
    code = ("import sys, elections.cli; print(sorted(m for m in sys.modules if m in "
            "('concurrent.futures', 'logging', 'dataclasses') or m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code],
                         env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_noise_moments_pooled():
    z = gen.draw_noise_batch(7, 0, 10000, size=11).ravel()
    assert abs(z.mean()) < 0.02
    assert abs(z.var() - 1.0) < 0.02
    assert abs(np.mean(z ** 3)) < 0.05


def test_batch_generation_matches_single(model):
    # vector and matrix BLAS paths may differ in the last bit, nothing more
    z = gen.draw_noise_batch(1, 0, 4, model.n_components)
    batch = gen.generate_shares_batch(model, z)
    for i in range(4):
        single = gen.generate_shares(model, z[i]).raw
        assert np.allclose(batch[i], single, rtol=0, atol=1e-14)

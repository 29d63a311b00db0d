"""Correlated synthetic share vectors from the fitted PCA model.

A simulated election is mean + sum_j z_j * sqrt(lambda_j) * E_j with the
z_j independent standard normals.  Noise is counter-based: master seed s in
[0, 2**128) keys one Philox-4x64 stream, and trial t owns its counters
[b*t, b*(t+1)), b = ceil(size / 4), i.e. 4*b words.  Each raw 64-bit
word w (`random_raw`) gives the exact uniform ((w >> 11) + 1) * 2**-53 in
(0, 1]; words 2i and 2i+1 give the Box-Muller pair r cos(theta),
r sin(theta) with r = sqrt(-2 log u_2i) and theta = 2 pi u_2i+1.  A chunk
of trials is one advance and one draw, in any order or in parallel.  Bits
are promised within one numpy build and one SIMD dispatch path: with
AVX-512 off (NPY_DISABLE_CPU_FEATURES), numpy's float64 log rounds some
uniforms apart, and 2 of 20,000 trials.csv rows at seed 0 change in
dem_pop/rep_pop.
"""

from __future__ import annotations

import math
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .pca import PcaModel


class DimensionMismatch(Exception):
    """Noise length does not match the model's eigenpair count."""


class SimulatedShares(NamedTuple):
    """One simulated 51-state share vector, raw and clamped to [0, 1]."""

    raw: np.ndarray
    clamped: np.ndarray


# [low, high) of each integer argument: counts below 2**53 and bin edges below 10**9 are exact
# in a JSON double, run_batch starts up to threads - 1 OS threads, and Philox keys are 128 bits
RANGES = {"trials": (1, 2**53), "seed": (0, 1 << 128), "threads": (1, 256),
          "bin_width": (1, 10**9), "size": (1, math.inf), "k": (0, math.inf),
          "start": (0, math.inf), "count": (0, math.inf)}


def _normals(u: np.ndarray, size: int) -> np.ndarray:
    """The first `size` Box-Muller normals of each row of uniforms in (0, 1],
    (radius, angle) pairs along the row: ceil(size/2) cosines, size//2 sines."""
    n_cos, n_sin = (size + 1) // 2, size // 2
    r = np.sqrt(-2.0 * np.log(u[:, 0:2 * n_cos:2]))
    theta = 2.0 * np.pi * u[:, 1:2 * n_cos:2]
    z = np.empty((len(u), size))
    z[:, 0::2] = r * np.cos(theta)
    z[:, 1::2] = r[:, :n_sin] * np.sin(theta[:, :n_sin])
    return z


def check_integers(**values) -> list[int]:
    """The name=value arguments as Python ints, which json writes; a bool, a non-integer
    or a value outside RANGES[name], which Philox would truncate or wrap, is a ValueError."""
    for name, n in values.items():
        low, high = RANGES[name]
        if isinstance(n, bool) or not (isinstance(n, Integral) and low <= int(n) < high):
            bound = f" and < {high}" if high < math.inf else ""
            raise ValueError(f"{name} must be an integer >= {low}{bound}, got {n!r}")
    return [int(n) for n in values.values()]


def draw_noise_batch(seed: int, start: int, count: int, size: int) -> np.ndarray:
    """(count, size) noise matrix for trials start..start+count-1."""
    seed, start, count, size = check_integers(seed=seed, start=start, count=count, size=size)
    blocks = -(-size // 4)
    bitgen = np.random.Philox(key=seed)
    bitgen.advance(blocks * start)
    u = ((bitgen.random_raw((count, 4 * blocks)) >> np.uint64(11)) + np.uint64(1)) * 2.0 ** -53
    return _normals(u, size)


def draw_noise(seed: int, trial_index: int, size: int) -> np.ndarray:
    """Independent standard normals for one trial: row 0 of its batch of one."""
    z = draw_noise_batch(seed, trial_index, 1, size)[0]
    z.flags.writeable = False
    return z


def generate_shares(model: PcaModel, noise) -> SimulatedShares:
    """Apply the mean-plus-scaled-eigenvector formula to one noise vector."""
    z = np.asarray(noise, dtype=float)
    if z.shape != (model.n_components,):
        raise DimensionMismatch(
            f"noise has shape {z.shape}, model has {model.n_components} components"
        )
    raw = model.mean + (z * np.sqrt(model.eigenvalues)) @ model.eigenvectors
    clamped = np.clip(raw, 0.0, 1.0)
    raw.flags.writeable = False
    clamped.flags.writeable = False
    return SimulatedShares(raw=raw, clamped=clamped)


def generate_shares_batch(model: PcaModel, z: np.ndarray, out=None) -> np.ndarray:
    """Raw share matrix (n_trials, 51) for a batch of noise rows, written to out if given."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 2 or z.shape[1] != model.n_components:
        raise DimensionMismatch(
            f"noise batch has shape {z.shape}, model has {model.n_components} components"
        )
    scaled = z * np.sqrt(model.eigenvalues)
    if len(z) == 1:  # numpy's matrix-vector path may round differently
        raw = (np.repeat(scaled, 2, axis=0) @ model.eigenvectors)[:1]
    else:
        raw = np.matmul(scaled, model.eigenvectors, out=out)
    return np.add(raw, model.mean, out=raw if out is None else out)

"""An independent reference for the trial: its noise drawn from the
generator's contract, projected onto the model and clamped state by state,
and the clamped share row tallied state by state in a plain Python loop.

It imports nothing from `elections` or `numpy.random`.  The draw is
Philox4x64-10 (Salmon, Moraes, Dror and Shaw, "Parallel random numbers: as
easy as 1, 2, 3", SC 2011) on Python ints, each word's uniform
((w >> 11) + 1) * 2**-53 and Box-Muller pairs (Box and Muller 1958) on
`math`, so a test that compares `draw_noise_batch` with it checks numpy's
counter order and key layout from their definition.  The projection
mean_s + sum_j z_j sqrt(lambda_j) E_js and the clip to [0, 1] are on Python
floats.  A test that compares the kernel's columns and `trials.csv` fields
with the tally checks winner-take-all, the two tie rules, the elector pools
and California's bit from their definitions.  Only dem_pop is numpy's: the
row's sum of share times turnout, which is the sum the kernel documents, so
that it compares exactly.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

SENATE = 2   # electors per state carried in the full college

MASK = (1 << 64) - 1
PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)   # round multipliers
PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)   # Weyl key increments


def philox_block(key: int, counter: int) -> list[int]:
    """The four 64-bit words of Philox4x64-10 at a 256-bit counter, under a
    128-bit key: ten rounds, the key bumped by the Weyl constants between them."""
    x = [(counter >> (64 * i)) & MASK for i in range(4)]
    k = [key & MASK, key >> 64]
    for _ in range(10):
        p0, p1 = PHILOX_M[0] * x[0], PHILOX_M[1] * x[2]
        x = [(p1 >> 64) ^ x[1] ^ k[0], p1 & MASK, (p0 >> 64) ^ x[3] ^ k[1], p0 & MASK]
        k = [(k[0] + PHILOX_W[0]) & MASK, (k[1] + PHILOX_W[1]) & MASK]
    return x


def philox_words(key: int, advance: int, blocks: int) -> list[int]:
    """The words of `blocks` blocks from a stream advanced by `advance`
    blocks; the counter is incremented before each block."""
    words = []
    for _ in range(blocks):
        advance = (advance + 1) % (1 << 256)
        words += philox_block(key, advance)
    return words


def normals(seed: int, trial: int, size: int) -> list[float]:
    """Trial `trial`'s `size` standard normals: it owns b = ceil(size / 4)
    blocks from counter b * trial, word w is the uniform ((w >> 11) + 1) * 2**-53,
    and words 2i, 2i+1 give r cos(theta), r sin(theta) with r = sqrt(-2 log u_2i)
    and theta = 2 pi u_2i+1."""
    blocks = -(-size // 4)
    u = [((w >> 11) + 1) * 2.0 ** -53 for w in philox_words(seed, blocks * trial, blocks)]
    z = []
    for u0, u1 in zip(u[0::2], u[1::2]):
        r, theta = math.sqrt(-2.0 * math.log(u0)), 2.0 * math.pi * u1
        z += [r * math.cos(theta), r * math.sin(theta)]
    return z[:size]


def project(z, mean, eigenvalues, eigenvectors) -> list[float]:
    """The clamped share row of noise z: per state s, mean_s + sum_j z_j
    sqrt(lambda_j) E_js, clipped to [0, 1]; eigenvectors are the rows E_j."""
    scaled = [zj * math.sqrt(lam) for zj, lam in zip(z, eigenvalues)]
    return [min(max(m + sum(c * e[s] for c, e in zip(scaled, eigenvectors)), 0.0), 1.0)
            for s, m in enumerate(mean)]


class Outcome(NamedTuple):
    """One classified election, seen from its popular winner."""

    dem: bool          # the Democrat won the popular vote
    house: int         # House electors of the states the popular winner carried
    states: int        # states the popular winner carried
    carried_ca: bool | None   # the popular winner carried California; None without it
    dem_pop: float
    rep_pop: float
    house_total: int
    n_states: int

    def wins(self, k: int) -> bool:
        """The popular winner holds a strict majority of House + k per state."""
        return 2 * (self.house + k * self.states) > self.house_total + k * self.n_states

    @property
    def code(self) -> str:
        """W or L with the full college, then with House electors alone."""
        return "".join("W" if self.wins(k) else "L" for k in (SENATE, 0))

    @property
    def diff(self) -> int:
        """Democratic full-college electors minus Republican."""
        winner = self.house + SENATE * self.states
        loser = self.house_total + SENATE * self.n_states - winner
        return winner - loser if self.dem else loser - winner


def tally_row(row, turnout, house, california: int | None = None) -> Outcome | str:
    """The outcome of one clamped share row, or "tied_state" when some share
    is exactly 0.5, else "tied_popular" when the popular vote splits exactly.
    california is California's state index, or None in a world without it."""
    if any(share == 0.5 for share in row):
        return "tied_state"
    dem_pop = float((np.asarray(row, float) * np.asarray(turnout, float)).sum())
    total = float(sum(int(votes) for votes in turnout))
    if 2 * dem_pop == total:
        return "tied_popular"
    dem = 2 * dem_pop > total
    won_house = won_states = 0
    for share, electors in zip(row, house):
        if (share > 0.5) == dem:
            won_house += int(electors)
            won_states += 1
    return Outcome(dem=dem, house=won_house, states=won_states,
                   carried_ca=None if california is None else (row[california] > 0.5) == dem,
                   dem_pop=dem_pop,
                   rep_pop=total - dem_pop, house_total=sum(int(e) for e in house),
                   n_states=len(row))

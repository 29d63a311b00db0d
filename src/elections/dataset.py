"""Historical election data: loading, validation, and per-state structural constants.

The dataset covers the twelve presidential elections 1964-2008 for 50 states
plus the District of Columbia (treated as a 51st state throughout).  Shares
are Democratic fractions of the two-party vote; third parties are excluded.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from importlib import resources

import numpy as np

STATE_NAMES: tuple[str, ...] = (
    "Alabama", "Alaska", "Arizona", "Arkansas", "California", "Colorado",
    "Connecticut", "Delaware", "District of Columbia", "Florida", "Georgia",
    "Hawaii", "Idaho", "Illinois", "Indiana", "Iowa", "Kansas", "Kentucky",
    "Louisiana", "Maine", "Maryland", "Massachusetts", "Michigan", "Minnesota",
    "Mississippi", "Missouri", "Montana", "Nebraska", "Nevada", "New Hampshire",
    "New Jersey", "New Mexico", "New York", "North Carolina", "North Dakota",
    "Ohio", "Oklahoma", "Oregon", "Pennsylvania", "Rhode Island",
    "South Carolina", "South Dakota", "Tennessee", "Texas", "Utah", "Vermont",
    "Virginia", "Washington", "West Virginia", "Wisconsin", "Wyoming",
)

STATE_INDEX: dict[str, int] = {name: i for i, name in enumerate(STATE_NAMES)}

N_STATES = 51
N_YEARS = 12

HOUSE_TOTAL = 436          # 435 House seats + 1 for DC
SENATE_PER_STATE = 2
SENATE_TOTAL = N_STATES * SENATE_PER_STATE   # 102
ELECTORS_TOTAL = HOUSE_TOTAL + SENATE_TOTAL  # 538

CALIFORNIA = STATE_INDEX["California"]


class DatasetError(Exception):
    """Base class for data loading/validation failures."""


class MissingState(DatasetError):
    """Fewer than 51 states or fewer than 12 years present."""


class ShareOutOfRange(DatasetError):
    """A two-party share fell outside the open interval (0, 1)."""


class ElectorSumMismatch(DatasetError):
    """House elector counts do not sum to 436."""


class MalformedRow(DatasetError):
    """A CSV row could not be parsed."""


class DegenerateVote(DatasetError):
    """A two-party share would hit a closed boundary (zero votes for a party)."""


def two_party_share(dem_votes: float, rep_votes: float) -> float:
    """Democratic share of the two-party vote, strictly inside (0, 1).

    Raises DegenerateVote if either count is zero, since the share would
    land exactly on 0 or 1.
    """
    if dem_votes < 0 or rep_votes < 0:
        raise DegenerateVote(f"negative vote count: ({dem_votes}, {rep_votes})")
    if dem_votes == 0 or rep_votes == 0:
        raise DegenerateVote(f"zero vote count: ({dem_votes}, {rep_votes})")
    return dem_votes / (dem_votes + rep_votes)


@dataclass(frozen=True)
class ElectionDataset:
    """Immutable, validated election history plus 2008 structural constants.

    shares[t, s] is the Democratic two-party share in state s in years[t].
    turnout[s] is the two-party vote count in state s in 2008.
    """

    years: tuple[int, ...]
    shares: np.ndarray          # (n_years, 51), float64
    turnout: np.ndarray         # (51,), int64
    house_electors: np.ndarray  # (51,), int64
    senate_electors_base = SENATE_PER_STATE   # a class constant that perfbench reads

    def __post_init__(self):
        shares = np.asarray(self.shares, dtype=float)
        turnout = np.asarray(self.turnout, dtype=np.int64)
        house = np.asarray(self.house_electors, dtype=np.int64)
        if shares.shape != (len(self.years), N_STATES):
            raise MissingState(
                f"shares matrix is {shares.shape}, expected ({len(self.years)}, {N_STATES})"
            )
        if len(self.years) < 2:
            raise MissingState(f"need at least 2 election years, got {len(self.years)}")
        diffs = np.diff(self.years)
        if not np.all(diffs == 4):
            raise DatasetError(f"years must increase in steps of 4: {self.years}")
        if not (np.all(shares > 0.0) and np.all(shares < 1.0)):
            bad = np.argwhere(~((shares > 0.0) & (shares < 1.0)))[0]
            raise ShareOutOfRange(
                f"share {shares[tuple(bad)]!r} for {STATE_NAMES[bad[1]]} "
                f"in {self.years[bad[0]]} is outside (0, 1)"
            )
        if turnout.shape != (N_STATES,) or np.any(turnout <= 0):
            raise DatasetError("turnout must be 51 positive counts")
        if house.shape != (N_STATES,) or np.any(house < 1):
            raise DatasetError("house electors must be 51 counts >= 1")
        if int(house.sum()) != HOUSE_TOTAL:
            raise ElectorSumMismatch(
                f"house electors sum to {int(house.sum())}, expected {HOUSE_TOTAL}"
            )
        shares.flags.writeable = False
        turnout.flags.writeable = False
        house.flags.writeable = False
        object.__setattr__(self, "years", tuple(int(y) for y in self.years))
        object.__setattr__(self, "shares", shares)
        object.__setattr__(self, "turnout", turnout)
        object.__setattr__(self, "house_electors", house)

    def restrict_years(self, start_year: int) -> "ElectionDataset":
        """Drop elections before start_year, keeping structure unchanged."""
        keep = [t for t, y in enumerate(self.years) if y >= start_year]
        return ElectionDataset(
            years=tuple(self.years[t] for t in keep),
            shares=self.shares[keep].copy(),
            turnout=self.turnout.copy(),
            house_electors=self.house_electors.copy(),
        )


def _read_rows(path) -> list[dict]:
    try:
        with open(path, newline="", encoding="utf-8") as f:
            reader = csv.DictReader(f)
            if reader.fieldnames is None:
                raise MalformedRow(f"{path}: empty file")
            return list(reader)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise MalformedRow(f"{path}: cannot read: {exc}") from exc


def load_dataset(shares_path, structure_path) -> ElectionDataset:
    """Load and validate the share history and the 2008 structure table.

    The shares file has header ``state,year,dem_share`` or
    ``state,year,dem_votes,rep_votes``; the structure file has header
    ``state,turnout_two_party_2008,house_electors``.
    """
    share_rows = _read_rows(shares_path)
    if not share_rows:
        raise MissingState(f"{shares_path}: no data rows")
    has_share = "dem_share" in share_rows[0]
    has_votes = "dem_votes" in share_rows[0] and "rep_votes" in share_rows[0]
    if not (has_share or has_votes):
        raise MalformedRow(
            f"{shares_path}: expected dem_share or dem_votes/rep_votes columns"
        )

    cells: dict[tuple[int, int], float] = {}
    for row in share_rows:
        try:
            state = row["state"].strip()
            year = int(row["year"])
            if has_share:
                share = float(row["dem_share"])
            else:
                share = two_party_share(float(row["dem_votes"]), float(row["rep_votes"]))
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise MalformedRow(f"{shares_path}: bad row {row!r}") from exc
        if state not in STATE_INDEX:
            raise MalformedRow(f"{shares_path}: unknown state {state!r}")
        if (year, STATE_INDEX[state]) in cells:
            raise MalformedRow(f"{shares_path}: duplicate row for {state} {year}")
        cells[year, STATE_INDEX[state]] = share

    years = tuple(sorted({year for year, _ in cells}))
    if len(years) < N_YEARS:
        raise MissingState(f"{shares_path}: {len(years)} years present, expected {N_YEARS}")
    shares = np.empty((len(years), N_STATES))
    for t, year in enumerate(years):
        missing = [s for s in range(N_STATES) if (year, s) not in cells]
        if missing:
            raise MissingState(f"{shares_path}: year {year} missing {STATE_NAMES[missing[0]]}")
        shares[t] = [cells[year, s] for s in range(N_STATES)]

    struct_rows = _read_rows(structure_path)
    turnout = np.zeros(N_STATES, dtype=np.int64)
    house = np.zeros(N_STATES, dtype=np.int64)
    seen = set()
    for row in struct_rows:
        try:
            state = row["state"].strip()
            t_count = np.int64(int(row["turnout_two_party_2008"]))
            h_count = np.int64(int(row["house_electors"]))
        except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
            raise MalformedRow(f"{structure_path}: bad row {row!r}") from exc
        if state not in STATE_INDEX:
            raise MalformedRow(f"{structure_path}: unknown state {state!r}")
        idx = STATE_INDEX[state]
        if idx in seen:
            raise MalformedRow(f"{structure_path}: duplicate row for {state}")
        turnout[idx] = t_count
        house[idx] = h_count
        seen.add(idx)
    if len(seen) < N_STATES:
        missing = sorted(set(range(N_STATES)) - seen)
        raise MissingState(f"{structure_path}: missing {STATE_NAMES[missing[0]]}")

    return ElectionDataset(years=years, shares=shares, turnout=turnout,
                           house_electors=house)


def load_bundled_dataset() -> ElectionDataset:
    """The 1964-2008 history and 2008 structure shipped inside the package."""
    root = resources.files("elections") / "data"
    return load_dataset(root / "elections_1964_2008.csv", root / "structure_2008.csv")

"""Historical election data: loading, validation, and per-state structural constants.

The dataset covers the twelve presidential elections 1964-2008 for 50 states
plus the District of Columbia (treated as a 51st state throughout).  Shares
are Democratic fractions of the two-party vote; third parties are excluded.
"""

from __future__ import annotations

import csv
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
MIN_ELECTIONS = 3   # the fewest elections any history, bundled, read or cut, may hold

HOUSE_TOTAL = 436          # 435 House seats + 1 for DC
SENATE_PER_STATE = 2
SENATE_TOTAL = N_STATES * SENATE_PER_STATE   # 102
ELECTORS_TOTAL = HOUSE_TOTAL + SENATE_TOTAL  # 538

CALIFORNIA = STATE_INDEX["California"]


class DatasetError(Exception):
    """Base class for data loading/validation failures."""


class MissingState(DatasetError):
    """Fewer than 51 states, or fewer than MIN_ELECTIONS elections, present."""


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


class ElectionDataset:
    """Immutable, validated election history plus 2008 structural constants.

    shares[t, s] is the Democratic two-party share in state s in years[t].
    turnout[s] is the two-party vote count in state s in 2008.
    """

    __slots__ = ("years", "shares", "turnout", "house_electors")
    senate_electors_base = SENATE_PER_STATE   # a class constant that perfbench reads

    def __init__(self, years: tuple[int, ...], shares: np.ndarray,
                 turnout: np.ndarray, house_electors: np.ndarray):
        shares = np.asarray(shares, dtype=float)          # (n_years, 51)
        turnout = np.asarray(turnout, dtype=np.int64)     # (51,)
        house = np.asarray(house_electors, dtype=np.int64)  # (51,)
        if shares.shape != (len(years), N_STATES):
            raise MissingState(f"shares matrix is {shares.shape}, "
                               f"expected ({len(years)}, {N_STATES})")
        if len(years) < MIN_ELECTIONS:
            raise MissingState(f"need at least {MIN_ELECTIONS} elections, got {len(years)}")
        if not np.all(np.diff(years) == 4):
            raise DatasetError(f"years must increase in steps of 4: {years}")
        if not (np.all(shares > 0.0) and np.all(shares < 1.0)):
            bad = np.argwhere(~((shares > 0.0) & (shares < 1.0)))[0]
            raise ShareOutOfRange(
                f"share {shares[tuple(bad)]!r} for {STATE_NAMES[bad[1]]} "
                f"in {years[bad[0]]} is outside (0, 1)"
            )
        if turnout.shape != (N_STATES,) or np.any(turnout <= 0):
            raise DatasetError("turnout must be 51 positive counts")
        if house.shape != (N_STATES,) or np.any(house < 1):
            raise DatasetError("house electors must be 51 counts >= 1")
        if (total := sum(house.tolist())) != HOUSE_TOTAL:   # Python ints: no int64 wrap
            raise ElectorSumMismatch(f"house electors sum to {total}, expected {HOUSE_TOTAL}")
        for array in (shares, turnout, house):
            array.flags.writeable = False
        for name, value in zip(self.__slots__, (tuple(map(int, years)), shares, turnout, house)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, *value):   # and, as __delattr__, without a value
        raise AttributeError(f"ElectionDataset is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def restrict_years(self, start_year: int) -> "ElectionDataset":
        """Drop elections before start_year, keeping structure unchanged."""
        keep = [t for t, y in enumerate(self.years) if y >= start_year]
        # the read-only structure arrays are shared; shares[keep] is a copy
        return ElectionDataset(years=tuple(self.years[t] for t in keep), shares=self.shares[keep],
                               turnout=self.turnout, house_electors=self.house_electors)


def _cells(path, key, parse) -> dict:
    """{(state index, *key(row)): parse(row)} over the data rows of one CSV file.

    A file that cannot be read, a row that does not parse, an unknown state
    and a repeated cell are each a MalformedRow that names the file.
    """
    cells = {}
    try:
        with open(path, newline="", encoding="utf-8-sig") as f:
            reader = csv.DictReader(f)
            if reader.fieldnames is None:
                raise MalformedRow(f"{path}: empty file")
            for row in reader:
                try:
                    state = row["state"].strip()
                    cell = (STATE_INDEX.get(state), *key(row))
                    value = parse(row)
                except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
                    raise MalformedRow(f"{path}: bad row {row!r}") from exc
                if cell[0] is None:
                    raise MalformedRow(f"{path}: unknown state {state!r}")
                if cell in cells:
                    raise MalformedRow(f"{path}: duplicate row {row!r}")
                cells[cell] = value
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise MalformedRow(f"{path}: cannot read: {exc}") from exc
    return cells


def load_dataset(shares_path=None, structure_path=None) -> ElectionDataset:
    """Load and validate the share history and the 2008 structure table.

    The shares file has header ``state,year,dem_share`` or
    ``state,year,dem_votes,rep_votes``; the structure file has header
    ``state,turnout_two_party_2008,house_electors``.  A path left out is the bundled file.
    """
    shares_path = shares_path or resources.files("elections") / "data" / "elections_1964_2008.csv"
    structure_path = structure_path or resources.files("elections") / "data" / "structure_2008.csv"
    cells = _cells(shares_path, lambda row: (int(row["year"]),), lambda row: (
        float(row["dem_share"]) if "dem_share" in row
        else two_party_share(float(row["dem_votes"]), float(row["rep_votes"]))))
    years = tuple(sorted({year for _, year in cells}))
    shares = np.empty((len(years), N_STATES))
    for t, year in enumerate(years):
        missing = [s for s in range(N_STATES) if (s, year) not in cells]
        if missing:
            raise MissingState(f"{shares_path}: year {year} missing {STATE_NAMES[missing[0]]}")
        shares[t] = [cells[s, year] for s in range(N_STATES)]

    counts = _cells(structure_path, lambda row: (), lambda row: [
        np.int64(int(row[name])) for name in ("turnout_two_party_2008", "house_electors")])
    missing = [s for s in range(N_STATES) if (s,) not in counts]
    if missing:
        raise MissingState(f"{structure_path}: missing {STATE_NAMES[missing[0]]}")
    turnout, house = np.array([counts[s,] for s in range(N_STATES)], dtype=np.int64).T.copy()
    return ElectionDataset(years=years, shares=shares, turnout=turnout,
                           house_electors=house)


def load_bundled_dataset() -> ElectionDataset:
    """The 1964-2008 history and 2008 structure shipped inside the package."""
    return load_dataset()

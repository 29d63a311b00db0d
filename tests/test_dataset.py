import numpy as np
import pytest
from hypothesis import given, strategies as st

from elections import dataset as ds
from elections import load_bundled_dataset
from elections.dataset import load_dataset, two_party_share


def test_state_roster():
    assert len(ds.STATE_NAMES) == 51
    assert ds.STATE_NAMES == tuple(sorted(ds.STATE_NAMES))
    assert "District of Columbia" in ds.STATE_NAMES
    assert ds.STATE_NAMES[ds.CALIFORNIA] == "California"


def test_structural_constants():
    assert ds.HOUSE_TOTAL == 436
    assert ds.SENATE_TOTAL == 102
    assert ds.ELECTORS_TOTAL == 538


def test_two_party_share_examples():
    assert two_party_share(500, 500) == 0.5
    assert two_party_share(159, 141) == pytest.approx(0.53)
    assert two_party_share(65, 35) == pytest.approx(0.65)


@pytest.mark.parametrize("dem,rep", [(0, 100), (100, 0), (0, 0), (-1, 5)])
def test_two_party_share_degenerate(dem, rep):
    with pytest.raises(ds.DegenerateVote):
        two_party_share(dem, rep)


@given(st.integers(1, 10**8), st.integers(1, 10**8), st.integers(1, 10**6))
def test_two_party_share_monotone(dem, rep, extra):
    base = two_party_share(dem, rep)
    assert two_party_share(dem + extra, rep) > base
    assert two_party_share(dem, rep + extra) < base
    assert 0.0 < base < 1.0


def test_bundled_dataset_invariants(dataset):
    assert dataset.years == tuple(range(1964, 2012, 4))
    assert dataset.shares.shape == (12, 51)
    assert np.all(dataset.shares > 0.0) and np.all(dataset.shares < 1.0)
    assert np.all(dataset.turnout > 0)
    assert int(dataset.house_electors.sum()) == 436
    assert int(dataset.house_electors.sum()) + 2 * 51 == 538
    assert dataset.house_electors[ds.STATE_INDEX["District of Columbia"]] == 1
    assert not dataset.shares.flags.writeable


def test_bundled_dataset_known_values(dataset):
    # 2008: Obama carried California; 1964 was a Democratic landslide
    ca = ds.STATE_INDEX["California"]
    assert dataset.shares[dataset.years.index(2008), ca] > 0.5
    assert np.mean(dataset.shares[0]) > 0.55
    # biggest 2008 two-party turnout is California's
    assert int(np.argmax(dataset.turnout)) == ca
    assert dataset.house_electors[ca] == 53


def test_round_trip_bit_equal(dataset, tmp_path, save_dataset):
    shares_path = tmp_path / "shares.csv"
    struct_path = tmp_path / "structure.csv"
    save_dataset(dataset, shares_path, struct_path)
    again = load_dataset(shares_path, struct_path)
    assert again.years == dataset.years
    assert np.array_equal(again.shares, dataset.shares)
    assert np.array_equal(again.turnout, dataset.turnout)
    assert np.array_equal(again.house_electors, dataset.house_electors)


def test_load_votes_format(dataset, tmp_path, save_dataset):
    import csv

    shares_path = tmp_path / "votes.csv"
    struct_path = tmp_path / "structure.csv"
    save_dataset(dataset, tmp_path / "unused.csv", struct_path)
    with open(shares_path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["state", "year", "dem_votes", "rep_votes"])
        for t, year in enumerate(dataset.years):
            for s, name in enumerate(ds.STATE_NAMES):
                dem = float(dataset.shares[t, s]) * 1_000_000
                w.writerow([name, year, repr(dem), repr(1_000_000 - dem)])
    again = load_dataset(shares_path, struct_path)
    assert np.allclose(again.shares, dataset.shares, atol=1e-9)


def test_restrict_years(dataset):
    sub = dataset.restrict_years(1992)
    assert sub.years == (1992, 1996, 2000, 2004, 2008)
    assert np.array_equal(sub.shares, dataset.shares[7:])
    assert np.array_equal(sub.turnout, dataset.turnout)


def test_a_history_needs_three_elections(dataset):
    """Every history, however it is built, holds at least MIN_ELECTIONS elections."""
    assert ds.MIN_ELECTIONS == 3
    with pytest.raises(ds.MissingState, match="need at least 3 elections, got 2"):
        ds.ElectionDataset(years=dataset.years[-2:], shares=dataset.shares[-2:],
                           turnout=dataset.turnout, house_electors=dataset.house_electors)
    with pytest.raises(ds.MissingState, match="need at least 3 elections, got 2"):
        dataset.restrict_years(2004)
    three = ds.ElectionDataset(years=dataset.years[-3:], shares=dataset.shares[-3:],
                               turnout=dataset.turnout, house_electors=dataset.house_electors)
    assert three.years == (2000, 2004, 2008)


def test_dataset_is_immutable(dataset):
    for name in ("years", "shares", "senate_electors_base", "other"):
        with pytest.raises(AttributeError):
            setattr(dataset, name, None)
        with pytest.raises(AttributeError):
            delattr(dataset, name)
    assert dataset.years == tuple(range(1964, 2012, 4))


def test_share_out_of_range(dataset):
    shares = dataset.shares.copy()
    shares[0, 0] = 1.0
    with pytest.raises(ds.ShareOutOfRange):
        ds.ElectionDataset(years=dataset.years, shares=shares,
                           turnout=dataset.turnout,
                           house_electors=dataset.house_electors)


def test_elector_sum_mismatch(dataset):
    house = dataset.house_electors.copy()
    house[0] += 1
    with pytest.raises(ds.ElectorSumMismatch):
        ds.ElectionDataset(years=dataset.years, shares=dataset.shares.copy(),
                           turnout=dataset.turnout, house_electors=house)


def test_elector_sum_that_wraps_in_int64(dataset):
    """Counts whose int64 sum wraps round to 436 still do not sum to 436."""
    house = np.array([2**63 - 1, 2**63 - 1, 390] + [1] * 48, dtype=np.int64)
    assert int(house.sum()) == 436
    with pytest.raises(ds.ElectorSumMismatch, match=f"sum to {2**64 + 436}, expected 436"):
        ds.ElectionDataset(years=dataset.years, shares=dataset.shares.copy(),
                           turnout=dataset.turnout, house_electors=house)


def test_missing_state_rejected(dataset, tmp_path, save_dataset):
    import csv

    shares_path = tmp_path / "shares.csv"
    struct_path = tmp_path / "structure.csv"
    save_dataset(dataset, shares_path, struct_path)
    with open(shares_path, newline="") as f:
        rows = list(csv.reader(f))
    rows = [r for r in rows if not (r[0] == "Wyoming" and r[1] == "2008")]
    with open(shares_path, "w", newline="") as f:
        csv.writer(f).writerows(rows)
    with pytest.raises(ds.MissingState):
        load_dataset(shares_path, struct_path)


def _rewrite_cell(dataset, tmp_path, save_dataset, target, column, text):
    """Save the dataset as a CSV pair, with the first data row's `column` of the
    `target` file ("shares" or "structure") replaced by `text`."""
    import csv

    paths = {"shares": tmp_path / "shares.csv", "structure": tmp_path / "structure.csv"}
    save_dataset(dataset, paths["shares"], paths["structure"])
    with open(paths[target], newline="") as f:
        rows = list(csv.reader(f))
    rows[1][column] = text
    with open(paths[target], "w", newline="") as f:
        csv.writer(f).writerows(rows)
    return paths["shares"], paths["structure"]


# each file's columns after the state: a share, or a turnout and a House count
@pytest.mark.parametrize("target, column", [("shares", 2), ("structure", 1), ("structure", 2)],
                         ids=["shares", "structure", "structure-house"])
def test_malformed_row_rejected(dataset, tmp_path, save_dataset, target, column):
    paths = _rewrite_cell(dataset, tmp_path, save_dataset, target, column, "not-a-number")
    with pytest.raises(ds.MalformedRow, match=f"{target}.csv: bad row"):
        load_dataset(*paths)


@pytest.mark.parametrize("target", ["shares", "structure"])
def test_unknown_state_rejected(dataset, tmp_path, save_dataset, target):
    paths = _rewrite_cell(dataset, tmp_path, save_dataset, target, 0, "Atlantis")
    with pytest.raises(ds.MalformedRow, match=f"{target}.csv: unknown state 'Atlantis'"):
        load_dataset(*paths)


@pytest.mark.parametrize("fault", ["duplicate-share-row", "duplicate-structure-row"])
def test_duplicate_rows_rejected(dataset, tmp_path, save_dataset, fault):
    shares_path = tmp_path / "shares.csv"
    struct_path = tmp_path / "structure.csv"
    save_dataset(dataset, shares_path, struct_path)
    path = shares_path if fault == "duplicate-share-row" else struct_path
    lines = path.read_text().splitlines()
    # the repeated row would otherwise silently overwrite the first one
    path.write_text("\n".join(lines + [lines[1]]) + "\n")
    with pytest.raises(ds.MalformedRow, match="duplicate"):
        load_dataset(shares_path, struct_path)


BUNDLED = ("elections_1964_2008.csv", "structure_2008.csv")


def _bundled_copy(directory, name, line=None):
    """A copy of a bundled CSV, with a UTF-8 byte order mark put before line `line`."""
    from pathlib import Path

    import elections

    lines = (Path(elections.__file__).parent / "data" / name).read_bytes().splitlines(True)
    if line is not None:
        lines[line] = "\ufeff".encode() + lines[line]
    path = directory / name
    path.write_bytes(b"".join(lines))
    return path


def test_byte_order_mark_is_read(dataset, tmp_path):
    """A byte order mark before the header, as spreadsheet exports write it, is
    no part of the first column's name."""
    again = load_dataset(*(_bundled_copy(tmp_path, name, line=0) for name in BUNDLED))
    assert again.years == dataset.years
    assert np.array_equal(again.shares, dataset.shares)
    assert np.array_equal(again.turnout, dataset.turnout)
    assert np.array_equal(again.house_electors, dataset.house_electors)


@pytest.mark.parametrize("target", BUNDLED)
def test_byte_order_mark_on_a_data_row_rejected(tmp_path, target):
    paths = [_bundled_copy(tmp_path, name, line=1 if name == target else None)
             for name in BUNDLED]
    with pytest.raises(ds.MalformedRow, match=f"{target}: unknown state"):
        load_dataset(*paths)

import numpy as np
import pytest
from hypothesis import given, strategies as st

from elections import dataset as ds
from elections import load_bundled_dataset, load_dataset, save_dataset, two_party_share


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


def test_round_trip_bit_equal(dataset, tmp_path):
    shares_path = tmp_path / "shares.csv"
    struct_path = tmp_path / "structure.csv"
    save_dataset(dataset, shares_path, struct_path)
    again = load_dataset(shares_path, struct_path)
    assert again.years == dataset.years
    assert np.array_equal(again.shares, dataset.shares)
    assert np.array_equal(again.turnout, dataset.turnout)
    assert np.array_equal(again.house_electors, dataset.house_electors)


def test_load_votes_format(dataset, tmp_path):
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


def test_missing_state_rejected(dataset, tmp_path):
    import csv

    shares_path = tmp_path / "shares.csv"
    struct_path = tmp_path / "structure.csv"
    save_dataset(dataset, shares_path, struct_path)
    rows = list(csv.reader(open(shares_path)))
    rows = [r for r in rows if not (r[0] == "Wyoming" and r[1] == "2008")]
    with open(shares_path, "w", newline="") as f:
        csv.writer(f).writerows(rows)
    with pytest.raises(ds.MissingState):
        load_dataset(shares_path, struct_path)


def test_malformed_row_rejected(dataset, tmp_path):
    import csv

    shares_path = tmp_path / "shares.csv"
    struct_path = tmp_path / "structure.csv"
    save_dataset(dataset, shares_path, struct_path)
    rows = list(csv.reader(open(shares_path)))
    rows[1][2] = "not-a-number"
    with open(shares_path, "w", newline="") as f:
        csv.writer(f).writerows(rows)
    with pytest.raises(ds.MalformedRow):
        load_dataset(shares_path, struct_path)


def test_unknown_state_rejected(dataset, tmp_path):
    import csv

    shares_path = tmp_path / "shares.csv"
    struct_path = tmp_path / "structure.csv"
    save_dataset(dataset, shares_path, struct_path)
    rows = list(csv.reader(open(shares_path)))
    rows[1][0] = "Atlantis"
    with open(shares_path, "w", newline="") as f:
        csv.writer(f).writerows(rows)
    with pytest.raises(ds.MalformedRow):
        load_dataset(shares_path, struct_path)


@pytest.mark.parametrize("fault", ["duplicate-share-row", "duplicate-structure-row",
                                   -1, 2.5, "2", True])
def test_duplicates_and_bad_senate_base_rejected(dataset, tmp_path, fault):
    if isinstance(fault, str) and fault.startswith("duplicate"):
        shares_path = tmp_path / "shares.csv"
        struct_path = tmp_path / "structure.csv"
        save_dataset(dataset, shares_path, struct_path)
        path = shares_path if fault == "duplicate-share-row" else struct_path
        lines = path.read_text().splitlines()
        # the repeated row would otherwise silently overwrite the first one
        path.write_text("\n".join(lines + [lines[1]]) + "\n")
        with pytest.raises(ds.MalformedRow, match="duplicate"):
            load_dataset(shares_path, struct_path)
    else:
        with pytest.raises(ds.DatasetError, match="senate_electors_base"):
            ds.ElectionDataset(years=dataset.years, shares=dataset.shares,
                               turnout=dataset.turnout,
                               house_electors=dataset.house_electors,
                               senate_electors_base=fault)

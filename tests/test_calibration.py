import numpy as np
import pytest

from distilcal import (
    InvalidInputError,
    InvalidParameterError,
    ece,
    rank_confidence_correct,
    reliability_csv,
)
from distilcal.calibration import _FMT6, _FMT_ROWS, _bins, _fmt6, _fmt6_rows
from distilcal.probs import top_n

from oracles import brute_force_bin_sizes, brute_force_ece


def rec(probs, label):
    return list(probs), label


def two_class(conf, correct):
    """Row at rank-1 confidence ``conf``, correct iff ``correct``."""
    return rec([conf, 1.0 - conf], 0 if correct else 1)


def arrays(records):
    """Stack ``(probs, label)`` rows into a probability matrix and a label vector."""
    return np.array([p for p, _ in records]), np.array([y for _, y in records])


def bins_of(probs, rank, num_bins):
    """The row indices of each of ``ece``'s bins at ``rank``, as lists."""
    return [group.tolist() for group in _bins(top_n(probs, rank)[1], num_bins)]


HAND_FOUR = arrays([
    two_class(0.9, True),
    two_class(1.0, False),
    two_class(0.5, True),  # tie at (0.5, 0.5) resolves to class 0
    two_class(0.7, True),
])


class TestBinning:
    def test_even_split(self):
        bins = bins_of(HAND_FOUR[0], 1, 2)
        assert [len(b) for b in bins] == [2, 2]

    def test_remainder_goes_first(self):
        probs, _ = arrays([two_class(c, True) for c in (0.5, 0.6, 0.7, 0.8, 0.9)])
        bins = bins_of(probs, 1, 2)
        assert [len(b) for b in bins] == [3, 2]

    def test_more_bins_than_records(self):
        probs, _ = arrays([two_class(c, True) for c in (0.5, 0.6, 0.7)])
        bins = bins_of(probs, 1, 5)
        assert [len(b) for b in bins] == [1, 1, 1]
        assert brute_force_bin_sizes(3, 5) == [1, 1, 1]

    def test_sizes_match_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(1, 40))
            b = int(rng.integers(1, 20))
            probs, _ = arrays([two_class(float(c), True) for c in rng.uniform(0.5, 1.0, n)])
            bins = bins_of(probs, 1, b)
            assert [len(g) for g in bins] == brute_force_bin_sizes(n, b)
            flat = sorted(i for g in bins for i in g)
            assert flat == list(range(n))

    def test_sorted_ascending_by_confidence(self):
        bins = bins_of(HAND_FOUR[0], 1, 4)
        assert [b[0] for b in bins] == [2, 3, 0, 1]

    def test_empty_records_rejected(self):
        with pytest.raises(InvalidInputError):
            bins_of(np.empty((0, 2)), 1, 2)

    def test_bad_bin_count_rejected(self):
        with pytest.raises(InvalidParameterError):
            bins_of(HAND_FOUR[0], 1, 0)

    def test_rank_beyond_classes_rejected(self):
        with pytest.raises(InvalidParameterError):
            bins_of(HAND_FOUR[0], 3, 2)


class TestEce:
    def test_hand_example(self):
        # bins {0.5, 0.7} (both correct) and {0.9, 1.0} (one correct):
        # 0.5*|1.0-0.6| + 0.5*|0.5-0.95| = 0.425
        report = ece(*HAND_FOUR, 1, 2)
        assert report.ece == pytest.approx(0.425, abs=1e-12)
        assert report.n_total == 4

    def test_zero_gap_bin(self):
        records = arrays([
            two_class(0.9, True),
            two_class(0.8, True),
            two_class(0.7, False),
            two_class(0.6, True),
        ])
        report = ece(*records, 1, 1)
        assert report.mean_acc[0] == pytest.approx(0.75)
        assert report.mean_conf[0] == pytest.approx(0.75)
        assert report.ece == pytest.approx(0.0, abs=1e-12)

    def test_perfectly_confident_and_correct(self):
        records = arrays([rec([1.0, 0.0], 0) for _ in range(8)])
        for b in (1, 3, 8):
            assert ece(*records, 1, b).ece == 0.0

    def test_single_bin_equals_overall_gap(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(1, 60))
            confs = rng.uniform(0.5, 1.0, n)
            flags = rng.random(n) < 0.7
            records = arrays([two_class(float(c), bool(f)) for c, f in zip(confs, flags)])
            report = ece(*records, 1, 1)
            expected = abs(flags.mean() - confs.mean())
            assert report.ece == pytest.approx(expected, abs=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(123)
        for _ in range(25):
            n = int(rng.integers(1, 200))
            k = int(rng.integers(3, 15))
            probs = rng.dirichlet(np.ones(k), size=n)
            labels = rng.integers(0, k, size=n)
            for rank in (1, 2, 3):
                for b in (1, 5, 15):
                    ours = ece(probs, labels, rank, b).ece
                    ref = brute_force_ece(probs.tolist(), labels.tolist(), rank, b)
                    assert ours == pytest.approx(ref, abs=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(77)
        probs = rng.dirichlet(np.ones(6), size=50)
        labels = rng.integers(0, 6, size=50)
        base = ece(probs, labels, 2, 5).ece
        for _ in range(5):
            perm = rng.permutation(50)
            shuffled = (probs[perm], labels[perm])
            assert ece(*shuffled, 2, 5).ece == pytest.approx(base, abs=1e-12)

    def test_rank_specific_correctness(self):
        # 2nd-best class is the true label: wrong at rank 1, right at rank 2.
        records = arrays([rec([0.6, 0.3, 0.1], 1) for _ in range(4)])
        r1 = ece(*records, 1, 1)
        r2 = ece(*records, 2, 1)
        assert r1.mean_acc[0] == 0.0
        assert r2.mean_acc[0] == 1.0
        assert r2.mean_conf[0] == pytest.approx(0.3)

    def test_group_bins_each_run_and_pools(self):
        rng = np.random.default_rng(9)
        probs = rng.dirichlet(np.ones(4), size=23)
        labels = rng.integers(0, 4, size=23)
        report = ece(probs, labels, 2, 3, group=10)
        runs = [ece(probs[s : s + 10], labels[s : s + 10], 2, 3) for s in (0, 10, 20)]
        for column in ("counts", "mean_conf", "mean_acc"):
            pooled = np.concatenate([getattr(run, column) for run in runs])
            np.testing.assert_array_equal(getattr(report, column), pooled)
        assert report.n_total == 23
        assert report.ece == pytest.approx(sum(r.ece * r.n_total / 23 for r in runs), abs=1e-12)
        one_group, pooled = ece(probs, labels, 2, 3, group=23), ece(probs, labels, 2, 3)
        for a, b in zip(one_group, pooled):
            np.testing.assert_array_equal(a, b)

    def test_bad_group_rejected(self):
        for bad in (0, -1, 2.5):
            with pytest.raises(InvalidParameterError, match="group"):
                ece(*HAND_FOUR, 1, 2, group=bad)

    def test_report_invariants(self):
        rng = np.random.default_rng(5)
        probs = rng.dirichlet(np.ones(8), size=90)
        labels = rng.integers(0, 8, size=90)
        report = ece(probs, labels, 1, 15)
        assert sum(report.counts.tolist()) == report.n_total == 90
        confs = report.mean_conf.tolist()
        assert all(a <= b + 1e-15 for a, b in zip(confs, confs[1:]))
        rows = [line.split(",") for line in reliability_csv(report).splitlines()[1:]]
        assert len(rows) == len(confs)
        for row, conf, acc in zip(rows, confs, report.mean_acc.tolist()):
            assert 0.0 <= acc <= 1.0
            assert row[5] == _fmt6(acc - conf)
        assert 0.0 <= report.ece <= 1.0


class TestReliabilityCsv:
    def test_hand_formatted_row(self):
        records = arrays([two_class(0.5, True), rec([1.0, 0.0], 1)])
        text = reliability_csv(ece(*records, 1, 1))
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[0] == "rank,bin,count,mean_conf,mean_acc,gap"
        assert lines[1] == "1,0,2,0.750000,0.500000,-0.250000"

    def test_fifteen_bins_gives_sixteen_lines(self):
        rng = np.random.default_rng(1)
        probs = rng.dirichlet(np.ones(4), size=60)
        text = reliability_csv(ece(probs, np.zeros(60, dtype=int), 1, 15))
        assert len(text.splitlines()) == 16

    def test_empty_bins_never_emitted(self):
        records = arrays([two_class(c, True) for c in (0.5, 0.6, 0.7)])
        text = reliability_csv(ece(*records, 1, 10))
        assert len(text.splitlines()) == 4  # header + 3 singleton bins


def fmt6_reference(mat):
    """``_fmt6_rows`` as one ``%`` per value; + 0.0 prints -0.0 as 0.000000."""
    return [",".join(_FMT6 % (v + 0.0) for v in row) for row in np.asarray(mat).tolist()]


def hard_values():
    """Values whose six-decimal rounding is easy to get wrong from a scaled
    product: exact binary ties k/128, the doubles nearest the decimal ties
    (n + 0.5) / 1e6, their neighbours on both sides, and a few ends, two of
    them rounding up to 10.000000."""
    rng = np.random.default_rng(11)
    n = np.concatenate(([0, 1, 2, 499_999, 999_999, 1_000_000, 9_999_998, 9_999_999],
                        rng.integers(0, 10**7, size=1500)))
    base = np.concatenate((np.arange(1280) / 128, (n + 0.5) / 1e6))
    return np.concatenate((base, np.nextafter(base, 0.0), np.nextafter(base, np.inf),
                           [5e-324, -0.0, 1.0, 9.9999999, np.nextafter(10.0, 0.0)]))


class TestFmt6Rows:
    @pytest.mark.parametrize("width", [2, 40, 200])
    def test_every_entry_equals_percent_format(self, width):
        values = hard_values()
        values = np.concatenate((values, values[: -len(values) % width]))
        mat = values.reshape(-1, width)
        assert (mat >= 0.0).all() and (mat < 10.0).all()  # the digit path
        assert _fmt6_rows(mat) == fmt6_reference(mat)

    @pytest.mark.parametrize("shuffle", [0, 1, 2])
    def test_shuffled_rows_equal_percent_format(self, shuffle):
        values = np.random.default_rng(shuffle).permutation(hard_values())
        mat = values[: len(values) // 40 * 40].reshape(-1, 40)
        assert _fmt6_rows(mat) == fmt6_reference(mat)

    @pytest.mark.parametrize("odd", [10.0, 9.9999995, -1e-300, 1e300, np.inf, np.nan, -0.0])
    def test_any_matrix_equals_percent_format(self, odd):
        mat = np.array([[0.25, 0.75], [odd, 0.5]])
        assert _fmt6_rows(mat) == fmt6_reference(mat)

    @pytest.mark.parametrize("rows", [1023, 1024, 1025, 2049])
    def test_block_edges_equal_per_entry_format(self, rows):
        """Rows that the digit path prints with ``%`` (a product within 1e-6
        of a half-integer, a value that rounds up to 10.000000) and a -0.0
        stand on both sides of every edge of the ``_FMT_ROWS`` blocks."""
        assert _FMT_ROWS == 1024
        mat = np.random.default_rng(rows).uniform(0.0, 10.0, size=(rows, 7))
        odd = [5e-7, 1.2345675, 9.9999996, -0.0]
        edges = {0, rows - 1, *(i for b in range(_FMT_ROWS, rows, _FMT_ROWS) for i in (b - 1, b))}
        for j, i in enumerate(sorted(edges)):
            mat[i, j % 7] = odd[j % len(odd)]
        assert _fmt6_rows(mat) == [",".join(map(_fmt6, row)) for row in mat]

    @pytest.mark.parametrize("shape", [(0, 3), (2, 0), (0, 0)])
    def test_empty_matrices(self, shape):
        assert _fmt6_rows(np.zeros(shape)) == fmt6_reference(np.zeros(shape))


class TestArrayCore:
    def test_all_equal_rows_match_oracle(self):
        rng = np.random.default_rng(9)
        for k in (3, 4, 7):
            probs = np.full((25, k), 1.0 / k)
            labels = rng.integers(0, k, size=25)
            for rank in (1, 2, 3):
                conf, correct = rank_confidence_correct(probs, labels, rank)
                assert np.array_equal(correct, (labels == rank - 1).astype(float))
                for b in (1, 4, 15):
                    ours = ece(probs, labels, rank, b).ece
                    ref = brute_force_ece(probs.tolist(), labels.tolist(), rank, b)
                    assert ours == pytest.approx(ref, abs=1e-12)

    def test_more_bins_than_rows_matches_oracle(self):
        rng = np.random.default_rng(10)
        for n in (1, 2, 7):
            probs = rng.dirichlet(np.ones(5), size=n)
            labels = rng.integers(0, 5, size=n)
            for rank in (1, 2, 3):
                report = ece(probs, labels, rank, n + 5)
                assert report.counts.tolist() == brute_force_bin_sizes(n, n + 5)
                ref = brute_force_ece(probs.tolist(), labels.tolist(), rank, n + 5)
                assert report.ece == pytest.approx(ref, abs=1e-12)

    def test_single_row_matrix(self):
        probs, labels = np.array([[0.2, 0.5, 0.3]]), np.array([2])
        for rank, conf in ((1, 0.5), (2, 0.3), (3, 0.2)):
            report = ece(probs, labels, rank, 15)
            assert report.n_total == 1 and report.counts.tolist() == [1]
            assert report.mean_conf[0] == conf
            assert report.mean_acc[0] == (1.0 if rank == 2 else 0.0)
            assert bins_of(probs, rank, 15) == [[0]]
            ref = brute_force_ece(probs.tolist(), labels.tolist(), rank, 15)
            assert report.ece == pytest.approx(ref, abs=1e-12)

    def test_bad_matrix_rejected(self):
        labels = np.array([0, 1])
        for probs in (
            [0.5, 0.5],  # one row, not a matrix
            np.full((2, 2, 2), 0.5),
            np.empty((0, 3)),
            [[0.5, 0.6], [0.5, 0.5]],  # off the simplex
            [[1.5, -0.5], [0.5, 0.5]],
            [[np.nan, 1.0], [0.5, 0.5]],
            [[1.0], [1.0]],  # one class
        ):
            with pytest.raises(InvalidInputError):
                ece(probs, labels, 1, 2)

    def test_bad_labels_rejected(self):
        probs = np.array([[0.7, 0.3], [0.4, 0.6]])
        for labels in ([0], [0, 1, 1], [[0, 1]], [0.0, 1.0], [True, False], [0, 2], [-1, 0]):
            with pytest.raises(InvalidInputError):
                ece(probs, np.array(labels), 1, 2)
            with pytest.raises(InvalidInputError):
                rank_confidence_correct(probs, np.array(labels), 1)

    def test_bad_rank_rejected(self):
        for rank in (0, 3, -1, 1.0, True, "1"):
            with pytest.raises(InvalidParameterError):
                ece(*HAND_FOUR, rank, 2)
            with pytest.raises(InvalidParameterError):
                bins_of(HAND_FOUR[0], rank, 2)

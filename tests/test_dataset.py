import gzip
import json
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from utilcal import (
    DomainError,
    FiniteDistribution,
    LabeledPredictions,
    ParseError,
    ValidationError,
    gen_calibrated,
    gen_miscalibrated,
    gen_two_point,
    population_uc,
    split,
    two_point_distribution,
    validate,
)
from utilcal.dataset import (
    EXACT_TOL,
    _load_distinct_rows,
    derive_rng,
    load_distribution_json,
    load_labels_csv,
    load_predictions_csv,
    write_distribution_json,
    write_labels_csv,
    write_predictions_csv,
)
from utilcal.utilities import UtilitySpec


class TestValidate:
    def test_exact_simplex_point(self):
        preds = LabeledPredictions(np.array([[0.5, 0.5]]), np.array([0]))
        report = validate(preds)
        assert report.max_row_sum_deviation == 0.0
        assert report.min_entry == 0.5

    def test_renormalize_noisy_row(self):
        preds = LabeledPredictions(np.array([[0.5000004, 0.5]]), np.array([0]))
        report = validate(preds, renormalize=True)
        row = report.corrected.probs[0]
        s = 0.5000004 + 0.5
        assert row == pytest.approx([0.5000004 / s, 0.5 / s], abs=1e-15)
        assert abs(row.sum() - 1.0) <= 1e-12

    def test_fatal_row_sum(self):
        preds = LabeledPredictions(np.array([[0.7, 0.7]]), np.array([0]))
        with pytest.raises(ValidationError, match="row sum"):
            validate(preds)

    def test_fatal_negative_entry(self):
        preds = LabeledPredictions(np.array([[1.0001, -0.0001]]), np.array([0]))
        with pytest.raises(ValidationError, match="entry"):
            validate(preds)

    def test_label_out_of_range_always_fatal(self):
        # construction rejects it, so no validate call, renormalizing or
        # not, ever sees it
        with pytest.raises(ValidationError, match="label"):
            LabeledPredictions(np.array([[0.5, 0.5]]), np.array([2]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("renormalize", [False, True])
    def test_non_finite_entry_fatal(self, bad, renormalize):
        probs = np.array([[0.5, 0.5], [0.25, 0.75], [0.5, 0.5]])
        probs[1, 0] = bad
        with pytest.raises(ValidationError, match="row 1"):
            validate(LabeledPredictions(probs, np.array([0, 1, 0])), renormalize)

    def test_generators_pass_unrenormalized(self):
        validate(gen_two_point(20))
        sample, _ = gen_calibrated(200, 4, 3, seed=0)
        validate(sample)


class TestLabeledPredictions:
    def test_structural_checks(self):
        with pytest.raises(DomainError):
            LabeledPredictions(np.ones((3, 1)), np.zeros(3, dtype=int))
        with pytest.raises(DomainError):
            LabeledPredictions(np.ones((2, 2)) / 2, np.zeros(3, dtype=int))

    def test_immutable(self):
        d = gen_two_point(20)
        with pytest.raises(ValueError):
            d.probs[0, 0] = 0.9

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [(0, 0), (2, 1)])  # first and last row
    def test_non_finite_entry_rejected(self, bad, at):
        probs = np.full((3, 2), 0.5)
        probs[at] = bad
        with pytest.raises(ValidationError, match=f"row {at[0]}.*finite"):
            LabeledPredictions(probs, np.array([0, 1, 0]))

    @pytest.mark.parametrize("labels", [[1.9, 0.0, 1.0], [0.0, 1.0, 0.5], [0.0, np.nan, 1.0]])
    def test_non_integer_label_rejected(self, labels):
        with pytest.raises(ValidationError, match="integers"):
            LabeledPredictions(np.full((3, 2), 0.5), np.array(labels))

    @pytest.mark.parametrize(
        "rows", [[[1e308, -1e308], [0.5, 0.5]], [[0.5, 0.5], [2.5, -1.5]]]
    )
    def test_entries_outside_bound_rejected(self, rows):
        # huge finite entries would give brier inf and a binned TCE of 5e307
        with pytest.raises(ValidationError, match=r"\[-1, 2\]"):
            LabeledPredictions(np.array(rows), np.array([0, 1]))

    def test_entries_at_bound_accepted(self):
        d = LabeledPredictions(np.array([[2.0, -1.0], [-1.0, 2.0]]), np.array([0, 1]))
        assert d.probs.min() == -1.0 and d.probs.max() == 2.0

    def test_integral_float_labels_accepted(self):
        d = LabeledPredictions(np.full((2, 2), 0.5), np.array([1.0, 0.0]))
        assert d.labels.dtype == np.int64
        assert d.labels.tolist() == [1, 0]

    def test_construction_allocates_no_n_by_c_temporary(self):
        # the checks are one reduction per row plus a label min/max; an
        # n x C mask would cost 10 MB here, a copy 80 MB
        rng = np.random.default_rng(0)
        n, C = 20_000, 500
        probs = rng.random((n, C))
        probs /= probs.sum(axis=1, keepdims=True)
        labels = rng.integers(0, C, size=n)
        tracemalloc.start()
        try:
            preds = LabeledPredictions(probs, labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert preds.probs is probs
        assert peak < 1_000_000


class TestSplit:
    def _data(self, n=10):
        # distinct labels double as row identifiers for partition checks
        probs = np.full((n, n), 0.5 / (n - 1))
        probs[np.arange(n), np.arange(n)] = 0.5
        return LabeledPredictions(probs, np.arange(n))

    def test_sizes(self):
        res = split(self._data(), 0.7, seed=1)
        assert res.calibration.n == 7
        assert res.test.n == 3

    def test_partition_and_determinism(self):
        d = self._data()
        r1 = split(d, 0.7, seed=1)
        r2 = split(d, 0.7, seed=1)
        assert np.array_equal(r1.calibration.probs, r2.calibration.probs)
        assert np.array_equal(r1.test.labels, r2.test.labels)
        ids = np.concatenate([r1.calibration.labels, r1.test.labels])
        assert sorted(ids) == list(range(10))

    def test_different_seeds_still_partition(self):
        d = self._data()
        r1 = split(d, 0.7, seed=1)
        r2 = split(d, 0.7, seed=2)
        assert r1.calibration.n == r2.calibration.n
        for r in (r1, r2):
            ids = np.concatenate([r.calibration.labels, r.test.labels])
            assert sorted(ids) == list(range(10))
        assert not np.array_equal(r1.calibration.labels, r2.calibration.labels)

    def test_bad_fraction(self):
        with pytest.raises(DomainError):
            split(self._data(), 1.2, seed=0)
        with pytest.raises(DomainError):
            split(self._data(), 0.01, seed=0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: split(gen_two_point(20), 0.5, seed=-1),
        lambda: gen_calibrated(10, 3, 2, seed=-1),
        lambda: gen_miscalibrated(two_point_distribution(), 10, seed=-1),
    ],
    ids=["split", "gen_calibrated", "gen_miscalibrated"],
)
def test_negative_seed_rejected(make):
    with pytest.raises(DomainError, match="seed"):
        make()


@pytest.mark.parametrize("seed", [0, 1, 2**32 + 5, 2**63])
def test_seed_alone_draws_numpys_stream(seed):
    # split and the generators draw from derive_rng(seed): numpy's own stream
    ours, numpys = derive_rng(seed), np.random.default_rng(seed)
    assert ours.random(16).tobytes() == numpys.random(16).tobytes()
    assert np.array_equal(ours.permutation(50), numpys.permutation(50))


class TestTwoPoint:
    def test_group_statistics_exact(self):
        d = gen_two_point(20)
        assert d.n == 40 and d.C == 3
        group_a = np.isclose(d.probs[:, 0], 0.45)
        group_b = np.isclose(d.probs[:, 0], 0.55)
        assert group_a.sum() == group_b.sum() == 20
        # top-class correctness: label 0 hits the argmax class
        assert np.mean(d.labels[group_a] == 0) == 0.05
        assert np.mean(d.labels[group_b] == 0) == 0.95

    def test_residual_sums(self):
        d = gen_two_point(20)
        from utilcal.estimators import residuals

        v, r = residuals(d, UtilitySpec.top_class())
        assert r[np.isclose(v, 0.45)].sum() == pytest.approx(-8.0, abs=1e-12)
        assert r[np.isclose(v, 0.55)].sum() == pytest.approx(8.0, abs=1e-12)

    def test_divisibility_guard(self):
        with pytest.raises(DomainError):
            gen_two_point(30)
        with pytest.raises(DomainError):
            gen_two_point(10)

    def test_population_object(self):
        dist = two_point_distribution()
        assert population_uc(dist, UtilitySpec.top_class()) == pytest.approx(
            0.2, abs=1e-15
        )


class TestGenCalibrated:
    def test_population_uc_exactly_zero(self):
        _, dist = gen_calibrated(100, 5, 4, seed=3)
        for spec in (
            UtilitySpec.top_class(),
            UtilitySpec.class_wise(2),
            UtilitySpec.top_k(2),
            UtilitySpec.dcg(1.0),
        ):
            assert population_uc(dist, spec) == 0.0

    def test_reproducible(self):
        a, _ = gen_calibrated(50, 3, 2, seed=9)
        b, _ = gen_calibrated(50, 3, 2, seed=9)
        assert np.array_equal(a.probs, b.probs)
        assert np.array_equal(a.labels, b.labels)

    def test_degenerate_one_hot_support(self):
        # all labels are forced once the conditional law is a point mass
        one_hot = np.array([[1.0, 0.0]])
        sample, _ = gen_miscalibrated(
            FiniteDistribution(one_hot, np.array([1.0]), one_hot), 50, seed=0
        )
        assert np.all(sample.labels == 0)


class TestGenMiscalibrated:
    def test_echoes_spec(self):
        support = np.array([[0.45, 0.275, 0.275], [0.55, 0.225, 0.225]])
        cond = np.array([[0.05, 0.95, 0.0], [0.95, 0.05, 0.0]])
        spec = FiniteDistribution(support, np.array([0.5, 0.5]), cond)
        sample, dist = gen_miscalibrated(spec, 100, seed=1)
        assert dist is spec
        assert population_uc(dist, UtilitySpec.top_class()) == pytest.approx(
            0.2, abs=1e-15
        )
        assert sample.n == 100
        # every sampled row is one of the support points
        for row in sample.probs:
            assert any(np.array_equal(row, p) for p in support)

    def test_calibrated_spec_gives_zero(self):
        p = np.array([[0.3, 0.7]])
        _, dist = gen_miscalibrated(FiniteDistribution(p, np.array([1.0]), p), 10, seed=0)
        assert population_uc(dist, UtilitySpec.top_class()) == 0.0

    def test_invariant_violation_rejected(self):
        half = np.array([[0.5, 0.5]])
        with pytest.raises(DomainError):
            gen_miscalibrated(FiniteDistribution(half, np.array([0.9]), half), 10, seed=0)
        dup = np.array([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(DomainError):
            gen_miscalibrated(
                FiniteDistribution(dup, np.array([0.5, 0.5]), np.array([[0.5, 0.5], [1.0, 0.0]])),
                10,
                seed=0,
            )

    def test_only_a_finite_distribution_accepted(self):
        # a list of (p_s, q_s, pi_s) triples is not a law
        p = np.array([0.3, 0.7])
        with pytest.raises(DomainError, match="FiniteDistribution"):
            gen_miscalibrated([(p, p, 1.0)], 10, seed=0)


class TestFiniteDistributionChecks:
    def test_weight_sum(self):
        with pytest.raises(DomainError, match="weights"):
            FiniteDistribution(
                np.array([[0.5, 0.5]]), np.array([0.5]), np.array([[0.5, 0.5]])
            )

    def test_cond_label_simplex(self):
        with pytest.raises(DomainError, match="cond_label"):
            FiniteDistribution(
                np.array([[0.5, 0.5]]), np.array([1.0]), np.array([[0.5, 0.6]])
            )

    def test_near_duplicate_support_named(self):
        # points 1 and 6 differ by 1e-13 and point 2 sits between them in
        # lexicographic order; the later pair (3, 7) is an exact duplicate
        x = [0.3, 0.3, 0.4]
        support = np.array([
            [0.2, 0.2, 0.6], x, [0.3, 0.35, 0.35], [0.1, 0.1, 0.8],
            [0.5, 0.25, 0.25], [0.05, 0.9, 0.05], [0.3 + 1e-13, 0.3 - 1e-13, 0.4],
            [0.1, 0.1, 0.8], [0.6, 0.2, 0.2],
        ])
        with pytest.raises(DomainError, match="support points 1 and 6 are not distinct"):
            FiniteDistribution(support, np.full(9, 1 / 9), support)

    @pytest.mark.parametrize("gap, distinct", [(EXACT_TOL, False), (2 * EXACT_TOL, True)])
    def test_tolerance_edge(self, gap, distinct):
        # a pair exactly EXACT_TOL apart in max norm is one point, as `<=` has it
        support = np.array([[0.2, 0.3, 0.5], [0.0, 0.25, 0.75], [gap, 0.25, 0.75 - gap]])
        assert np.max(np.abs(support[1] - support[2])) == gap
        if distinct:
            assert FiniteDistribution(support, np.full(3, 1 / 3), support).S == 3
        else:
            with pytest.raises(DomainError, match="support points 1 and 2 are not distinct"):
                FiniteDistribution(support, np.full(3, 1 / 3), support)

    def test_duplicate_far_apart_named(self):
        rng = np.random.default_rng(5)
        support = rng.dirichlet(np.ones(4), size=5000)
        support[4321] = support[17]
        with pytest.raises(DomainError, match="support points 17 and 4321 are not distinct"):
            FiniteDistribution(support, np.full(5000, 1 / 5000), support)

    def test_zero_first_column_is_fast(self):
        # every point ties in the first coordinate, so a sweep sorted by it
        # would compare all 2e8 pairs
        S = 20_000
        rng = np.random.default_rng(S)
        support = np.zeros((S, 10))
        support[:, 1:] = rng.dirichlet(np.ones(9), size=S)
        start = time.perf_counter()
        dist = FiniteDistribution(support, np.full(S, 1 / S), support)
        assert time.perf_counter() - start < 2.0
        assert dist.S == S

    def test_many_coincident_rows_named_fast(self):
        # every row is one point, so every row's window holds the whole
        # support: the first row with a partner ends the sweep
        S = 20_000
        support = np.tile([0.1, 0.2, 0.3, 0.4], (S, 1))
        start = time.perf_counter()
        with pytest.raises(DomainError, match="support points 0 and 1 are not distinct"):
            FiniteDistribution(support, np.full(S, 1 / S), support)
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("field", ["support", "weights", "cond_label"])
    def test_nan_rejected(self, field):
        # each tolerance test is written so that NaN fails it (an infinite
        # entry already fails the sum-to-one tests)
        parts = {
            "support": np.array([[0.5, 0.5], [0.25, 0.75]]),
            "weights": np.array([0.5, 0.5]),
            "cond_label": np.array([[0.5, 0.5], [0.25, 0.75]]),
        }
        parts[field].flat[-1] = np.nan
        with pytest.raises(DomainError):
            FiniteDistribution(**parts)


class TestFileFormats:
    def test_predictions_roundtrip(self, tmp_path):
        probs = gen_two_point(20).probs
        path = tmp_path / "preds.csv"
        write_predictions_csv(path, probs)
        again = load_predictions_csv(path)
        assert np.array_equal(probs, again)

    def test_labels_roundtrip(self, tmp_path):
        labels = gen_two_point(20).labels
        path = tmp_path / "labels.csv"
        write_labels_csv(path, labels)
        assert np.array_equal(labels, load_labels_csv(path))

    def test_header_skip(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b\n0.5,0.5\n")
        arr = load_predictions_csv(path, header=True)
        assert arr.shape == (1, 2)

    def test_malformed_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.5,0.5\n0.4,oops\n")
        with pytest.raises(ParseError):
            load_predictions_csv(path)

    @pytest.mark.parametrize(
        "name, text, header",
        [
            ("repeated.csv", "0.5,0.5\n0.25,0.75\n0.125,0.875\n" * 400, False),
            ("crlf.csv", "0.5,0.5\r\n0.25,0.75\r\n0.5,0.5\r\n", False),
            ("cr.csv", "0.5,0.5\r0.25,0.75\r0.5,0.5\r0.25,0.75", False),
            ("comments.csv",
             "# a comment\n0.5,0.5\n0.25,0.75 # inline\n\n0.5,0.5\n", False),
            ("inline-comment.csv", "0.5,0.5 # inline\n0.25,0.75\n0.5,0.5 # inline\n", False),
            ("header.csv", "p0,p1\n0.5,0.5\n0.25,0.75\n0.5,0.5\n", True),
            ("no-final-newline.csv", "0.5,0.5\n0.25,0.75\n0.5,0.5", False),
            ("spaces.csv", " 0.5 , 0.5\n0.5,0.5\n 0.5 , 0.5 \n 0.5 , 0.5\n", False),
            ("one-column.csv", "0.5\n0.25\n0.5\n0.5\n", False),
            ("distinct.csv", "".join(
                f"{x:.17g},{1 - x:.17g}\n" for x in np.linspace(0, 1, 20_000)
            ), False),
            ("repeated.csv.gz", "0.5,0.5\n0.25,0.75\n" * 300, False),
        ],
    )
    def test_predictions_equal_loadtxt(self, tmp_path, name, text, header):
        """Repeated lines are parsed once, yet the matrix is np.loadtxt's on
        the whole file, bit for bit, whatever the line endings, comments,
        blank lines, spacing, width, size or compression."""
        path = tmp_path / name
        data = text.encode()
        path.write_bytes(gzip.compress(data) if name.endswith(".gz") else data)
        got = load_predictions_csv(path, header=header)
        want = np.loadtxt(path, delimiter=",", skiprows=int(header), ndmin=2)
        assert got.dtype == want.dtype and got.shape == want.shape
        # bit for bit, with a short message when not (a diff of the bytes
        # of a large file takes minutes)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_distinct_rows_stay_within_budget(self, tmp_path):
        """A file of few distinct lines is parsed one distinct line at a
        time; one of 790 kB of distinct lines is left to the whole-file
        parse once the lines held pass the budget."""
        few = tmp_path / "few.csv"
        few.write_text("0.5,0.5\n0.25,0.75\n" * 20_000)
        assert _load_distinct_rows(few, False).shape == (40_000, 2)
        many = tmp_path / "many.csv"
        write_predictions_csv(many, np.linspace(0, 1, 40_000).reshape(-1, 2))
        assert many.stat().st_size > 790_000
        assert _load_distinct_rows(many, False) is None

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="reads a pipe as /dev/fd/N"
    )
    @pytest.mark.parametrize(
        "text",
        [
            "# distinct rows past the budget\n" + "".join(
                f"{x:.17g},{1 - x:.17g}\n" for x in np.linspace(0, 1, 20_000)
            ),
            "0.5,0.5\n0.25,0.75\n" * 500 + "# a comment\n" + "0.5,0.5\n" * 500,
        ],
        ids=["distinct", "repeated"],
    )
    def test_pipe_is_read_once(self, tmp_path, text):
        """A pipe (``--preds <(zcat x.csv.gz)``, ``/dev/stdin``) can be read
        only once: its matrix is np.loadtxt's on the same text, not what a
        first pass left in the pipe."""
        regular = tmp_path / "preds.csv"
        regular.write_text(text)
        r, w = os.pipe()
        path = f"/dev/fd/{r}"

        def feed():
            with os.fdopen(w, "w") as fh:
                fh.write(text)

        got = {}

        def load():
            try:
                got["probs"] = load_predictions_csv(path)
            except Exception as exc:  # reported below, in the test's thread
                got["error"] = exc

        threads = [threading.Thread(target=f, daemon=True) for f in (feed, load)]
        for t in threads:
            t.start()
        threads[1].join(timeout=60)
        assert not threads[1].is_alive(), "the load still waits on the pipe"
        while os.read(r, 1 << 16):  # what a failed load left for the feeder
            pass
        threads[0].join()
        os.close(r)
        assert "error" not in got, got.get("error")
        want = np.loadtxt(regular, delimiter=",", ndmin=2)
        assert got["probs"].shape == want.shape
        assert np.array_equal(got["probs"].view(np.uint64), want.view(np.uint64))

    def test_unexpected_error_is_raised(self, tmp_path, monkeypatch):
        """Only the errors of opening and parsing send the file to the
        whole-file parse; a fault in the distinct pass is raised."""
        path = tmp_path / "preds.csv"
        path.write_text("0.5,0.5\n" * 10)

        def broken(*args):
            raise TypeError("broken")

        monkeypatch.setattr("utilcal.dataset._loadtxt", broken)
        with pytest.raises(TypeError, match="broken"):
            _load_distinct_rows(path, False)

    @pytest.mark.parametrize(
        "text, row",
        [
            ("0.5,0.5\n" * 1000 + "0.4,oops\n0.5,0.5\n", "row 1000,"),
            ("0.5,0.5\n0.25,0.75\n" * 500 + "0.2,0.3,0.5\n", "row 1001;"),
            ("", None),
        ],
        ids=["malformed", "ragged", "empty"],
    )
    def test_parse_error_names_file_row(self, tmp_path, text, row):
        """A parse error carries np.loadtxt's text for the whole file, with
        its file row number, not the number of a distinct line."""
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ParseError) as got:
            load_predictions_csv(path)
        if row is None:
            assert str(got.value) == f"{path}: no data rows"
            return
        with pytest.raises(ValueError) as want:
            np.loadtxt(path, delimiter=",", ndmin=2)
        assert str(got.value) == f"{path}: {want.value}"
        assert row in str(got.value)

    def test_distribution_json_roundtrip(self, tmp_path):
        dist = two_point_distribution()
        path = tmp_path / "dist.json"
        write_distribution_json(path, dist)
        again = load_distribution_json(path)
        assert np.array_equal(dist.support, again.support)
        assert np.array_equal(dist.weights, again.weights)
        assert np.array_equal(dist.cond_label, again.cond_label)
        # documented key names
        d = json.loads(path.read_text())
        assert set(d) == {"support", "weights", "cond_label"}

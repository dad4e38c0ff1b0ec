import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from utilcal import (
    ConfigError,
    DomainError,
    FiniteDistribution,
    LabeledPredictions,
    PatchRecord,
    PatchSequence,
    UtilitySpec,
    ValidationError,
    brier,
    comb_pool,
    find_worst_witness,
    fit,
    gen_calibrated,
    gen_miscalibrated,
    gen_two_point,
    split,
    transform,
    uc_hat,
    uc_hat_pool,
)
from utilcal import ParseError, patching
from utilcal.estimators import (
    _ROW_BLOCK,
    brier_matrix,
    distinct_rows,
    payoff_matrix,
    predicted_utility,
    residuals,
)
from utilcal.patching import _apply_record_rows, _masked_payoff, project_simplex_rows
from utilcal.utilities import derive_rng


def random_dist(rng, S, C):
    sup = -np.log1p(-rng.random((S, C)))
    sup /= sup.sum(axis=1, keepdims=True)
    q = -np.log1p(-rng.random((S, C)))
    q /= q.sum(axis=1, keepdims=True)
    w = -np.log1p(-rng.random(S))
    w /= w.sum()
    return FiniteDistribution(sup, w, q)


def project_simplex(x):
    """The row projection applied to one vector, as a one-row matrix."""
    return project_simplex_rows(np.asarray(x, dtype=np.float64)[None, :])[0]


def apply_patch(p, rec):
    """One patch step on a copy of one prediction vector, as a one-row
    matrix: the step moves its rows in place."""
    probs = np.array(p, dtype=np.float64)[None, :]
    v = predicted_utility(rec.spec, probs)
    hit, uvec = _masked_payoff(probs, v, rec.spec, rec.lo, rec.hi)
    return _apply_record_rows(probs, rec, hit, uvec)[0]


def perfect_predictor(n=24, C=3):
    probs = np.eye(C)[np.arange(n) % C]
    return LabeledPredictions(probs, np.arange(n) % C)


class TestProjectSimplex:
    def test_identity_on_simplex(self):
        x = np.array([0.2, 0.3, 0.5])
        assert np.max(np.abs(project_simplex(x) - x)) <= 1e-15

    def test_symmetric_point(self):
        assert project_simplex(np.array([1.0, 1.0])).tolist() == [0.5, 0.5]

    def test_vertex_with_kkt(self):
        out = project_simplex(np.array([2.0, 0.0, 0.0]))
        assert out.tolist() == [1.0, 0.0, 0.0]
        # KKT certificate: tau = 1 reproduces the output
        assert np.array_equal(np.maximum(np.array([2.0, 0.0, 0.0]) - 1.0, 0.0), out)

    def test_against_dense_grid_search(self):
        # coarse grid over the C=3 simplex as an independent optimality check
        rng = np.random.default_rng(0)
        grid = []
        steps = 120
        for i in range(steps + 1):
            for j in range(steps + 1 - i):
                grid.append((i / steps, j / steps, (steps - i - j) / steps))
        grid = np.array(grid)
        for _ in range(5):
            x = rng.uniform(-2, 2, 3)
            out = project_simplex(x)
            d_out = np.sum((x - out) ** 2)
            d_grid = np.min(np.sum((x - grid) ** 2, axis=1))
            assert d_out <= d_grid + 1e-4

    @given(st.integers(0, 10**6), st.integers(2, 10))
    @settings(max_examples=100, deadline=None)
    def test_kkt_and_nonexpansive(self, seed, C):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-3, 3, C)
        out = project_simplex(x)
        assert abs(out.sum() - 1.0) <= 1e-12
        assert np.all(out >= 0)
        tau = np.max(x - out)
        assert np.max(np.abs(out - np.maximum(x - tau, 0.0))) <= 1e-10
        y = rng.dirichlet(np.ones(C))
        assert np.linalg.norm(y - out) <= np.linalg.norm(y - x) + 1e-10

    def test_rows_matches_single(self):
        # each row is projected on its own: batching changes no bit
        rng = np.random.default_rng(1)
        X = rng.uniform(-2, 2, (50, 6))
        rows = project_simplex_rows(X)
        for i in range(50):
            assert np.array_equal(rows[i], project_simplex(X[i]))


class TestFindWorstWitness:
    def test_single_utility_pool(self):
        d = gen_two_point(20)
        spec = UtilitySpec.top_class()
        best, est = find_worst_witness(d, [spec])
        want = uc_hat(d, spec)
        assert best is spec
        assert est.value == want.value
        assert est.interval == want.interval
        assert est.sign == want.sign

    def test_perfect_predictor_zero(self):
        _, est = find_worst_witness(perfect_predictor(), comb_pool(3))
        assert est.value == 0.0

    def test_two_point_pool_maximum(self):
        # exhaustive evaluation of the small pool: class 1's confidence is
        # 0.275 against a 0.95 true frequency, the largest violation
        d = gen_two_point(20)
        pool = comb_pool(3) + [UtilitySpec.top_class()]
        best, est = find_worst_witness(d, pool)
        per_spec = [uc_hat(d, s).value for s in pool]
        assert est.value == max(per_spec)
        assert est.value == pytest.approx(0.3375, abs=1e-12)
        assert best.label() == "class_wise_1"

    def test_repeated_spec_returns_first_copy(self):
        d = gen_two_point(20)
        first, second = UtilitySpec.class_wise(1), UtilitySpec.class_wise(1)
        pool = [UtilitySpec.top_class(), first, UtilitySpec.top_k(2), second]
        best, est = find_worst_witness(d, pool)
        assert best is first
        assert est == uc_hat(d, first)

    def test_earliest_member_wins_an_exact_tie(self):
        # class 0 leads every row, so class_wise(0), top_k(1) and top_class
        # predict the same v and realize the same payoff: an exact tie
        rng = np.random.default_rng(4)
        e = -np.log1p(-rng.random((500, 4)))
        e[:, 0] = e.max(axis=1) + 0.5
        d = LabeledPredictions(e / e.sum(axis=1, keepdims=True), rng.integers(0, 4, 500))
        tied = [UtilitySpec.class_wise(0), UtilitySpec.top_k(1), UtilitySpec.top_class()]
        est = uc_hat(d, tied[0])
        assert est.value > 0 and all(uc_hat(d, s) == est for s in tied)
        for first in range(3):
            pool = tied[first:] + tied[:first]
            assert find_worst_witness(d, pool)[0] is pool[0]

    def test_empty_pool(self):
        with pytest.raises(DomainError):
            find_worst_witness(perfect_predictor(), [])


class TestApplyPatch:
    def test_outside_interval_identity(self):
        rec = PatchRecord(UtilitySpec.top_class(), 0.8, 0.9, 1, 0.1)
        p = np.array([0.5, 0.3, 0.2])
        assert np.array_equal(apply_patch(p, rec), p)

    def test_zero_step_rejected(self):
        with pytest.raises(DomainError):
            PatchRecord(UtilitySpec.top_class(), 0.4, 0.5, 1, 0.0)

    def test_two_point_row_moves_against_violation(self):
        # witness direction that lowers the over-confident 0.45 prediction
        rec = PatchRecord(UtilitySpec.top_class(), 0.45, 0.45, 1, 0.1)
        p = np.array([0.45, 0.275, 0.275])
        out = apply_patch(p, rec)
        expected = project_simplex(p - 0.1 * np.array([1.0, 0.0, 0.0]))
        assert out == pytest.approx(expected, abs=1e-15)
        assert out[0] < 0.45
        assert abs(out.sum() - 1.0) <= 1e-12 and np.all(out >= 0)

    def test_interval_validation(self):
        with pytest.raises(DomainError):
            PatchRecord(UtilitySpec.top_class(), 0.9, 0.1, 1, 0.1)

    def test_sign_validation(self):
        with pytest.raises(DomainError):
            PatchRecord(UtilitySpec.top_class(), 0.1, 0.9, 2, 0.1)

    @pytest.mark.parametrize(
        "lo, hi", [(math.nan, 0.9), (0.1, math.nan), (math.nan, math.nan)]
    )
    def test_nan_interval_bound_rejected(self, lo, hi):
        # a NaN bound would mask no row, so the record would do nothing
        with pytest.raises(DomainError, match="lo <= hi"):
            PatchRecord(UtilitySpec.top_class(), lo, hi, 1, 0.1)

    @pytest.mark.parametrize(
        "lo, hi", [(-math.inf, 0.9), (0.1, math.inf), (-math.inf, math.inf),
                   (math.inf, math.inf), (-math.inf, -math.inf)]
    )
    def test_infinite_interval_bound_rejected(self, lo, hi):
        # no fit writes an unobserved end, and [-inf, inf] would move every row
        with pytest.raises(DomainError, match="finite lo <= hi"):
            PatchRecord(UtilitySpec.top_class(), lo, hi, 1, 2.0)


def whole_mask_step(points, rec, mask):
    """The reference step: the payoffs, the step and the projection of all
    masked rows in one call each, into a copy."""
    out = points.copy()
    rows = points[mask]
    out[mask] = project_simplex_rows(rows - rec.step * rec.sign * payoff_matrix(rec.spec, rows))
    return out


def one_spec_per_form(C, rng):
    """A utility of each payoff form, the "column" form at K = 1 and K > 1."""
    sim = rng.uniform(-1.0, 1.0, (C, C))
    sim = (sim + sim.T) / 2.0
    np.fill_diagonal(sim, 1.0)
    return {
        "max": UtilitySpec.top_class(),
        "unit": UtilitySpec.class_wise(2),
        "column-1": UtilitySpec.linear(rng.uniform(-1.0, 1.0, C)),
        "column-K": UtilitySpec.decision(rng.uniform(0.0, 1.0, (C, 4))),
        "rank": UtilitySpec.rank(np.sort(rng.uniform(-1.0, 1.0, C))[::-1]),
        "dense": UtilitySpec.similarity(sim),
    }


FORMS = ["max", "unit", "column-1", "column-K", "rank", "dense"]


class TestBlockedMover:
    # 3 full blocks of masked rows and a remainder, among unmasked rows
    MASKED = 3 * _ROW_BLOCK + 123

    def masked_rows(self, rng, C, duplicated=False):
        n = 2 * self.MASKED
        probs = rng.dirichlet(np.full(C, 0.7), n)
        if duplicated:
            probs = probs[rng.integers(0, 40, n)]
        mask = np.zeros(n, dtype=bool)
        mask[rng.permutation(n)[: self.MASKED]] = True
        return probs, mask

    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("given", [True, False], ids=["fit", "transform"])
    def test_blocks_match_the_whole_mask_step_bitwise(self, form, given):
        # fit hands the mover the masked payoffs, transform lets each block
        # compute its own: either way every row gets the whole-mask bits
        rng = np.random.default_rng(FORMS.index(form))
        C = 6
        probs, mask = self.masked_rows(rng, C)
        spec = one_spec_per_form(C, rng)[form]
        rec = PatchRecord(spec, -10.0, 10.0, -1, 0.7)
        want = whole_mask_step(probs, rec, mask)
        uvec = payoff_matrix(spec, probs[mask]) if given else None
        points = probs.copy()
        assert _apply_record_rows(points, rec, mask, uvec) is points
        assert points.tobytes() == want.tobytes()

    @pytest.mark.parametrize("form", FORMS)
    def test_duplicated_rows_move_alike(self, form):
        rng = np.random.default_rng(20 + FORMS.index(form))
        C = 5
        probs, mask = self.masked_rows(rng, C, duplicated=True)
        rec = PatchRecord(one_spec_per_form(C, rng)[form], -10.0, 10.0, 1, 0.4)
        points = _apply_record_rows(probs.copy(), rec, mask)
        assert points.tobytes() == whole_mask_step(probs, rec, mask).tobytes()
        # equal rows stay equal and distinct rows distinct
        _, group = distinct_rows(probs[mask])
        moved, moved_group = distinct_rows(points[mask])
        pairs = np.unique(np.stack([group, moved_group]), axis=1)
        assert pairs.shape[1] == len(moved) == group.max() + 1

    @pytest.mark.parametrize("form", FORMS)
    def test_empty_mask_moves_nothing(self, form, monkeypatch):
        rng = np.random.default_rng(30)
        C = 4
        probs = rng.dirichlet(np.ones(C), 50)
        projected = []
        monkeypatch.setattr(patching, "project_simplex_rows", projected.append)
        rec = PatchRecord(one_spec_per_form(C, rng)[form], 0.0, 1.0, 1, 0.5)
        points = probs.copy()
        assert _apply_record_rows(points, rec, np.zeros(50, dtype=bool)) is points
        assert points.tobytes() == probs.tobytes()
        assert projected == []


class TestFit:
    def test_already_calibrated_stops_immediately(self):
        seq = fit(perfect_predictor(), epsilon=0.01)
        assert seq.records == ()
        assert seq.history == ()

    def test_two_point_single_utility_descent(self):
        d = gen_two_point(200)
        seq = fit(d, pool=[UtilitySpec.top_class()], epsilon=0.01)
        out = transform(d, seq)
        assert uc_hat(out, UtilitySpec.top_class()).value <= 0.01
        assert seq.history[-1].brier_after < seq.history[0].brier_before
        C = 3
        for h in seq.history:
            assert h.brier_before - h.brier_after >= h.err**2 / C - 1e-10

    def test_one_theoretical_step_reduces_witnessed_violation(self):
        d = gen_two_point(20)
        spec, est = find_worst_witness(d, [UtilitySpec.top_class()])
        rec = PatchRecord(spec, *est.interval, -est.sign, est.value / 3)
        patched = transform(d, PatchSequence((rec,), 3))
        assert (
            uc_hat(patched, UtilitySpec.top_class()).value
            < uc_hat(d, UtilitySpec.top_class()).value
        )

    def test_miscalibrated_comb_pool_converges(self):
        dist = random_dist(derive_rng(17), 4, 5)
        d, _ = gen_miscalibrated(dist, 2000, seed=1)
        seq = fit(d, epsilon=0.02)
        briers = [h.brier_after for h in seq.history]
        assert all(a >= b for a, b in zip(briers, briers[1:]))
        out = transform(d, seq)
        assert max(uc_hat(out, s).value for s in comb_pool(5)) <= 0.02

    def test_termination_cap(self):
        d = gen_two_point(40)
        eps = 0.05
        seq = fit(d, pool=[UtilitySpec.top_class()], epsilon=eps)
        assert len(seq.records) <= math.ceil(2 * 3 / eps**2) + 1

    def test_max_iters_respected(self):
        d = gen_two_point(40)
        seq = fit(d, pool=[UtilitySpec.top_class()], epsilon=1e-6, max_iters=5)
        assert len(seq.records) == 5

    def test_quadratic_bound_descent(self):
        dist = random_dist(derive_rng(23), 3, 4)
        d, _ = gen_miscalibrated(dist, 1500, seed=2)
        seq = fit(d, epsilon=0.02)
        briers = [h.brier_after for h in seq.history]
        assert all(a >= b for a, b in zip(briers, briers[1:]))
        out = transform(d, seq)
        assert max(uc_hat(out, s).value for s in comb_pool(4)) <= 0.02

    @pytest.mark.parametrize("augment", [0, 8, 30])
    def test_steps_meet_both_decrease_bounds(self, augment):
        # the quadratic-bound step lowers Brier by at least eta * err, and
        # since D <= C by at least err^2/C
        rng = derive_rng(41, augment)
        C = 3 + augment // 5
        probs = rng.dirichlet(np.full(C, 0.5), size=1500)
        sharp = probs**3 / np.sum(probs**3, axis=1, keepdims=True)
        labels = (rng.random((1500, 1)) > np.cumsum(sharp, axis=1)).sum(axis=1)
        d = LabeledPredictions(probs, np.minimum(labels, C - 1))
        seq = fit(d, epsilon=0.01, max_iters=60,
                  augment_count=augment, augment_seed=augment)
        assert len(seq.history) >= 10
        for h, rec in zip(seq.history, seq.records):
            drop = h.brier_before - h.brier_after
            assert drop >= rec.step * h.err - 1e-12
            assert drop >= h.err**2 / C - 1e-12

    def test_duplicated_rows_masked_as_the_estimator_blocks(self, monkeypatch):
        # n = 2001 rows over 20 distinct vectors, C = 10: every step moves
        # the 20 points, masks exactly the witness blocks, equal rows move
        # alike, and transform replays the fitted rows bit for bit
        C = 10
        d, _ = gen_miscalibrated(random_dist(derive_rng(61), 20, C), 2001, seed=3)
        witnesses, masks, moved = [], [], []
        find = patching._worst_member
        masked, apply = patching._masked_payoff, patching._apply_record_rows

        def record_witness(law, pool):
            out = find(law, pool)
            witnesses.append((law, *out[:2]))
            return out

        def record_mask(*args):
            out = masked(*args)
            masks.append(out[0])
            return out

        def record_move(*args):
            out = apply(*args)
            moved.append(out)
            return out

        monkeypatch.setattr(patching, "_worst_member", record_witness)
        monkeypatch.setattr(patching, "_masked_payoff", record_mask)
        monkeypatch.setattr(patching, "_apply_record_rows", record_move)
        seq = fit(d, epsilon=0.01, max_iters=40, augment_count=8)
        monkeypatch.undo()
        assert len(seq.records) == len(masks) == 40
        # fit's law keeps the order of the first grouping: row i is point
        # inverse[i] at every step
        points, inverse = distinct_rows(d.probs)
        assert witnesses[0][0].points.tobytes() == points.tobytes()
        for (law, spec, est), hit in zip(witnesses, masks):
            assert law.points.shape == (20, C)
            preds = LabeledPredictions(law.points[inverse], d.labels)
            v, r = residuals(preds, spec)
            mask = hit[inverse]
            lo, hi = est.interval
            assert np.array_equal(mask, (v >= lo) & (v <= hi))
            assert est.sign * r[mask].sum() / preds.n == pytest.approx(
                est.value, abs=1e-12
            )
            _, group = distinct_rows(preds.probs)
            counts = np.bincount(group)
            assert set(np.bincount(group, weights=mask) / counts) <= {0.0, 1.0}
        for h, rec in zip(seq.history, seq.records):
            drop = h.brier_before - h.brier_after
            assert drop >= rec.step * h.err - 1e-12
            assert drop >= h.err**2 / C - 1e-12
        fitted = moved[-1][inverse]
        assert transform(d.probs, seq).tobytes() == fitted.tobytes()

    def test_rows_grouped_once_per_fit_and_transform(self, monkeypatch):
        from utilcal import estimators

        calls = []
        grouped = estimators.distinct_rows

        def counting(probs):
            calls.append(len(probs))
            return grouped(probs)

        monkeypatch.setattr(estimators, "distinct_rows", counting)
        monkeypatch.setattr(patching, "distinct_rows", counting)
        d, _ = gen_miscalibrated(random_dist(derive_rng(61), 20, 6), 1001, seed=3)
        seq = fit(d, epsilon=0.01, max_iters=12, augment_count=4)
        assert len(seq.records) == 12
        assert calls == [1001]
        transform(d.probs[:500], seq)
        assert calls == [1001, 500]

    def test_row_permutation_bitwise_on_duplicated_rows(self):
        # D sums its weighted terms in sorted order: summed in row order, this
        # permutation moved the last bit of a step
        C = 10
        d, _ = gen_miscalibrated(random_dist(derive_rng(62), 20, C), 2001, seed=3)
        perm = derive_rng(1, 9).permutation(d.n)
        shuffled = LabeledPredictions(d.probs[perm], d.labels[perm])
        cfg = dict(
            epsilon=0.01, max_iters=40, augment_count=8, augment_seed=1
        )
        assert fit(shuffled, **cfg).to_json_dict() == fit(d, **cfg).to_json_dict()

    def test_step_size_evaluates_the_witness_once(self, monkeypatch):
        # the step size and the move share one mask and payoff pass: the mask
        # reads the witness's v from the pool pass, so no predicted-utility
        # call, and no Brier pass beyond the before and after scores of the
        # history
        d = gen_two_point(20)
        spec = UtilitySpec.top_class()
        best, est = find_worst_witness(d, [spec])
        lo, hi = est.interval
        evaluated, scored = [], []

        def counting(spec, probs):
            evaluated.append(spec)
            return predicted_utility(spec, probs)

        def counting_brier(probs, labels, counts=None):
            scored.append(1)
            return brier_matrix(probs, labels, counts)

        monkeypatch.setattr(patching, "predicted_utility", counting)
        monkeypatch.setattr(patching, "brier_matrix", counting_brier)
        seq = fit(d, pool=[spec], epsilon=0.01, max_iters=1)
        monkeypatch.undo()
        assert evaluated == []
        assert len(scored) == 2
        v = predicted_utility(spec, d.probs)
        uvec = payoff_matrix(spec, d.probs[(v >= lo) & (v <= hi)])
        step = min(est.value / np.mean(np.sum(uvec**2, axis=1)), 2.0)
        rec = PatchRecord(best, lo, hi, -est.sign, step)
        assert seq.records == (rec,)
        # transform replays the record to the rows fit moved
        assert seq.history[0].brier_after == brier_matrix(
            transform(d.probs, seq), d.labels
        )

    def test_step_evaluates_nothing_beyond_its_pool_pass(self, monkeypatch):
        # a linear witness, whose v alone would cost a whole 32-column tile:
        # one step makes the tiled products of its pool pass and no other,
        # and calls predicted_utility nowhere
        from utilcal import estimators

        C = 6
        d, _ = gen_miscalibrated(random_dist(derive_rng(66), 20, C), 1001, seed=4)
        pool = [UtilitySpec.linear(np.linspace(-1.0, 1.0, C)), UtilitySpec.top_k(2)]
        products, evaluated = [], []
        product = estimators._column_products

        def counting_product(probs, G, sort_rows=False):
            products.append((G.shape, sort_rows))
            return product(probs, G, sort_rows)

        def counting(spec, probs):
            evaluated.append(spec)
            return predicted_utility(spec, probs)

        monkeypatch.setattr(estimators, "_column_products", counting_product)
        monkeypatch.setattr(estimators, "predicted_utility", counting)
        monkeypatch.setattr(patching, "predicted_utility", counting)
        uc_hat_pool(d, pool)
        pass_products = list(products)
        products.clear()
        seq = fit(d, pool=pool, epsilon=1e-6, max_iters=1)
        monkeypatch.undo()
        assert [rec.spec.family for rec in seq.records] == ["linear"]
        assert pass_products == [((C, 1), False), ((C, 1), True)]
        assert products == pass_products
        assert evaluated == []

    def test_augmented_step_memory_is_bounded(self):
        # one step over 10 comb members and 64 augmented ones at n = 50 000,
        # C = 10: 32 linear members take one 12.8 MB chunk and 42 rank
        # members two more.  The witness's v is copied out of its chunk, so
        # no chunk outlives the pool pass.  The bound is the peak of the same
        # step when the mask evaluated the witness again (28 282 965 bytes);
        # a witness v that kept its chunk alive through the step would add
        # 12.8 MB to it.
        C, n = 10, 50_000
        rng = derive_rng(64)
        probs = rng.dirichlet(np.ones(C), size=n)
        d = LabeledPredictions(probs, rng.integers(0, C, size=n))
        tracemalloc.start()
        try:
            seq = fit(d, epsilon=1e-6, max_iters=1, augment_count=64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(seq.records) == 1
        assert peak <= 28_282_965

    def test_augmented_pool_is_deterministic(self):
        d = gen_two_point(40)
        cfg = dict(
            epsilon=0.05,
            augment_count=8,
            augment_seed=3,
        )
        a = fit(d, **cfg)
        b = fit(d, **cfg)
        assert a.to_json_dict() == b.to_json_dict()

    def test_fit_builds_no_n_by_c_matrix(self):
        # 200 000 rows over 20 distinct vectors: every step and every Brier
        # score reads the 20 points and their (point, label) pairs, so the
        # fit's peak stays below one n x C float64 array (16 MB)
        C, n = 10, 200_000
        d, _ = gen_miscalibrated(random_dist(derive_rng(63), 20, C), n, seed=5)
        tracemalloc.start()
        try:
            seq = fit(d, epsilon=1e-6, max_iters=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(seq.records) == 3
        assert peak < n * C * 8

    @pytest.mark.parametrize("value", [2.5, 2.0, True])
    @pytest.mark.parametrize("name", ["max_iters", "augment_count"])
    def test_count_settings_must_be_integers(self, name, value):
        # range() failed on 2.5 with a TypeError naming no parameter, and
        # True ran as 1
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            fit(gen_two_point(20), epsilon=0.01, **{name: value})

    def test_bad_epsilon(self):
        with pytest.raises(ConfigError):
            fit(perfect_predictor(), epsilon=0.0)

    @pytest.mark.parametrize(
        "wrong", [UtilitySpec.linear(np.ones(4)), UtilitySpec.class_wise(3)],
        ids=["linear-C4", "class_wise-3"],
    )
    @pytest.mark.parametrize("calibrated", [False, True])
    def test_pool_member_for_another_c_rejected(self, wrong, calibrated):
        # C = 3; the first witness pass checks every member, even on data
        # it finds calibrated at once
        data = perfect_predictor() if calibrated else gen_two_point(20)
        pool = [UtilitySpec.top_class(), wrong]
        with pytest.raises(DomainError):
            fit(data, pool=pool)

    @pytest.mark.parametrize("epsilon", [1e-300, 1e-160])
    def test_epsilon_without_a_finite_cap_rejected(self, epsilon):
        # epsilon^2 underflows to 0 (1e-300) or 2C/epsilon^2 overflows
        # (1e-160): the default cap is not finite
        with pytest.raises(ConfigError, match="max_iters"):
            fit(gen_two_point(20), epsilon=epsilon)
        seq = fit(gen_two_point(20), epsilon=epsilon, max_iters=2)
        assert len(seq.records) == 2

    @pytest.mark.parametrize(
        "config",
        [
            dict(epsilon=float("nan")),
            dict(epsilon=float("nan"), max_iters=3),
            dict(augment_count=-4),
        ],
        ids=["epsilon-nan", "epsilon-nan-capped", "augment-negative"],
    )
    def test_bad_config_rejected(self, config):
        with pytest.raises(ConfigError):
            fit(perfect_predictor(), **config)


# The witness and sign of every record in the 20 fits of acceptance
# criterion 07 ("k" top_k, "c" class_wise), as written before the rank
# members shared one sorted-row product.  Exact class_wise/top_k(1) ties
# reach these fits, so a v that moves by one bit can flip a witness.
ACCEPTANCE_07_WITNESSES = [
    "k1+ c2+ c0- k2- c0- k2- k2-",
    "k4+ k2+ k6+ c7- k2- c0- k1- k4+ k5+ k5- c2+",
    "k1+ c0+ k1+ c0+",
    "k3+ k5+ k5+ k4+ c1- c0- k2- k3+ k4- k6- k1- k2+ k6- k3- c0+ k3-",
    "k1+ k1+ c0+ c1+ c0- k2- k2-",
    "k4+ k3+ k3- k1+ k3- k2- k4+ k4- c6- k5- c1- k6- k6-",
    "c1+ c1+ k2-",
    "k3+ k7+ c4- k1+ k7+ k4- c7- k4- c1+",
    "k1+ k2+ k2+ c0+ c1+ k1- k2+ k2+ k2- k2-",
    "k4+ c9- k6+ k2+ c9- c4- k2- k8+ k8+ c3- k2- k4+ k5- k1- k3+",
    "c2+ c0- c0- k1+ k1- k2+ k2+ k2- c0-",
    "k5+ k2+ k1+ k6- c7- k4+ k4- k5- k9+ c4+ k5- k7+",
    "c2- k1+ c2- k2+ k2+ c2- c2- c0+ c1- c1+ c1- c2- c2+ c1-",
    "k4+ k6+ k2+ k8+ c0- c2- c1- c3- k2-",
    "c1- c1- c1- c0+ c1-",
    "k6+ k7+ k8+ k8+ k2+ k6- c6- k2+ c5- k2- k1+ k2- c9- k4+",
    "k1+ c2+ c1- k2- k1+ k2- c0- c0- c0- c0+",
    "k6+ k1+ c4- k6+ c6- k4+ k1- c5+",
    "k1+ c2- c0+ c0+ k2- c2-",
    "k5+ k6+ k1+ c8- k6+ k5+ k2- k2- c9- k2+ k6-",
]


@pytest.mark.parametrize("i", range(20))
def test_acceptance_07_fits_keep_their_witnesses(i):
    C = 3 if i % 2 == 0 else 10
    dist = random_dist(derive_rng(500, i), 4, C)
    d, _ = gen_miscalibrated(dist, 5000, seed=i)
    seq = fit(d, epsilon=0.05)
    got = " ".join(
        (f"k{r.spec.k}" if r.spec.family == "top_k" else f"c{r.spec.c}") + "+-"[r.sign < 0]
        for r in seq.records
    )
    assert got == ACCEPTANCE_07_WITNESSES[i]


class TestTransform:
    def test_row_permutation_on_duplicated_rows(self):
        # the rows are grouped in an order that depends only on their set,
        # so the output follows the permutation bit for bit
        d, _ = gen_miscalibrated(random_dist(derive_rng(61), 20, 10), 2001, seed=3)
        seq = fit(d, epsilon=0.01, max_iters=20, augment_count=8)
        perm = derive_rng(2, 9).permutation(d.n)
        out = transform(d.probs, seq)
        assert transform(d.probs[perm], seq).tobytes() == out[perm].tobytes()

    def test_empty_sequence_identity(self):
        d = gen_two_point(20)
        out = transform(d.probs, PatchSequence((), 3))
        assert np.array_equal(out, d.probs)

    def test_zero_rows_give_zero_rows(self):
        C = 4
        loss = np.random.default_rng(2).uniform(0.0, 1.0, (C, 3))
        seq = PatchSequence((
            PatchRecord(UtilitySpec.decision(loss), -1.0, 0.0, 1, 0.5),
            PatchRecord(UtilitySpec.top_k(2), 0.0, 1.0, -1, 0.5),
        ), C)
        out = transform(np.zeros((0, C)), seq)
        assert out.shape == (0, C)

    def test_memory_is_the_input_copy_and_a_few_blocks(self):
        # a rank record and a decision record that mask every row of 3 row
        # blocks and a remainder: each record moves the points in place one
        # block at a time, with no n x C temporary beside the input copy
        n, C = 3 * _ROW_BLOCK + 500, 40
        rng = np.random.default_rng(4)
        probs = rng.dirichlet(np.ones(C), n)
        seq = PatchSequence((
            PatchRecord(UtilitySpec.rank(np.linspace(1.0, 0.0, C)), 0.0, 1.0, 1, 0.2),
            PatchRecord(UtilitySpec.decision(rng.uniform(0.0, 1.0, (C, 4))), -1.0, 0.0,
                        -1, 0.3),
        ), C)
        block = _ROW_BLOCK * C * 8
        tracemalloc.start()
        try:
            out = transform(probs, seq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= probs.nbytes + 8 * block
        assert (out != probs).any(axis=1).all()  # every row moved

    def test_replay_matches_fit_bitwise(self):
        d = gen_two_point(200)
        seq = fit(d, pool=[UtilitySpec.top_class()], epsilon=0.01)
        replayed = transform(d.probs, seq)
        assert brier(LabeledPredictions(replayed, d.labels)) == pytest.approx(
            seq.history[-1].brier_after, abs=1e-15
        )
        twice = transform(d.probs, seq)
        assert np.array_equal(replayed, twice)

    def test_rows_stay_on_simplex(self):
        dist = random_dist(derive_rng(5), 4, 6)
        d, _ = gen_miscalibrated(dist, 1000, seed=4)
        seq = fit(d, epsilon=0.03)
        out = transform(d.probs, seq)
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) <= 1e-9
        assert np.min(out) >= 0.0

    def test_dimension_mismatch(self):
        seq = PatchSequence((), 4)
        with pytest.raises(DomainError):
            transform(np.ones((3, 3)) / 3, seq)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_entry_rejected(self, bad):
        probs = np.full((3, 3), 1.0 / 3.0)
        probs[1, 2] = bad
        with pytest.raises(DomainError, match="infinite"):
            transform(probs, PatchSequence((), 3))

    @pytest.mark.parametrize(
        "row, match",
        [([3.0, -2.0, 0.5], "row sum"), ([0.6, 0.6, 0.0], "row sum"),
         ([1.1, -0.1, 0.0], "entry")],
        ids=["far-off", "sum-1.2", "negative-entry"],
    )
    def test_row_off_the_simplex_rejected(self, row, match):
        # the fatal thresholds of validate: a row sum off by more than 1e-3,
        # an entry below -1e-6
        probs = np.full((3, 3), 1.0 / 3.0)
        probs[1] = row
        with pytest.raises(ValidationError, match=match):
            transform(probs, PatchSequence((), 3))

    def test_rows_within_the_thresholds_and_no_rows_pass(self):
        probs = np.array([[0.5, 0.5, 0.0009], [1.0 + 5e-7, 0.0, -5e-7]])
        assert np.array_equal(transform(probs, PatchSequence((), 3)), probs)
        assert transform(np.empty((0, 3)), PatchSequence((), 3)).shape == (0, 3)

    def test_generalization_to_held_out_split(self):
        # patch maps fitted on one half should reduce pool error on the other
        improved = 0
        seeds = 100
        for s in range(seeds):
            dist = random_dist(derive_rng(1000, s), 3, 3)
            data, _ = gen_miscalibrated(dist, 4000, seed=s)
            parts = split(data, 0.5, seed=s)
            seq = fit(parts.calibration, epsilon=0.03)
            before = max(
                uc_hat(parts.test, u).value for u in comb_pool(3)
            )
            patched = transform(parts.test, seq)
            after = max(uc_hat(patched, u).value for u in comb_pool(3))
            improved += after < before
        assert improved >= 90


class TestPatchSequenceJson:
    def test_roundtrip(self, tmp_path):
        d = gen_two_point(40)
        seq = fit(d, pool=[UtilitySpec.top_class()], epsilon=0.05)
        path = tmp_path / "seq.json"
        seq.save(path)
        again = PatchSequence.load(path)
        assert again.C == seq.C
        assert len(again.records) == len(seq.records)
        out_a = transform(d.probs, seq)
        out_b = transform(d.probs, again)
        assert np.array_equal(out_a, out_b)

    def test_json_field_names(self):
        rec = PatchRecord(UtilitySpec.top_class(), 0.1, 0.2, -1, 0.05)
        seq = PatchSequence((rec,), 3, (tuple()))
        d = seq.to_json_dict()
        assert set(d) == {"C", "records", "history"}
        assert set(d["records"][0]) == {"spec", "lo", "hi", "sign", "step"}

    @pytest.mark.parametrize(
        "change, match",
        [
            ({"err": math.nan, "brier_before": -5, "brier_after": 7, "step": 9}, "err"),
            ({"err": 0.0}, "err"),
            ({"err": math.inf}, "err"),
            ({"brier_before": -5, "brier_after": -6}, "Brier"),
            ({"brier_after": 0.6}, "Brier"),
            ({"brier_before": 2.5}, "Brier"),
            ({"brier_before": math.nan}, "Brier"),
            ({"step": 0.2}, "step"),
            (None, "2 entries for 1 records"),
        ],
        ids=["nan-err", "zero-err", "inf-err", "negative-brier", "brier-rises",
             "brier-above-2", "nan-brier", "step-mismatch", "extra-entry"],
    )
    def test_impossible_history_rejected(self, change, match):
        # a history is empty or one entry per record, each one a step fit
        # could take
        record = {"spec": {"family": "top_class"}, "lo": 0.2, "hi": 0.5,
                  "sign": 1, "step": 0.1}
        ok = {"err": 0.1, "brier_before": 0.5, "brier_after": 0.4, "step": 0.1}
        history = [ok, ok] if change is None else [{**ok, **change}]
        PatchSequence.from_json_dict({"C": 3, "records": [record], "history": [ok]})
        with pytest.raises(DomainError, match=match):
            PatchSequence.from_json_dict(
                {"C": 3, "records": [record], "history": history}
            )
        with pytest.raises(DomainError, match="1 entries for 0 records"):
            PatchSequence.from_json_dict({"C": 3, "records": [], "history": [ok]})

    @pytest.mark.parametrize(
        "where, field",
        [("record", "lo"), ("record", "hi"), ("record", "step"),
         ("history", "err"), ("history", "brier_before"),
         ("history", "brier_after"), ("history", "step")],
    )
    @pytest.mark.parametrize("value", ["0.2", True], ids=["string", "true"])
    def test_non_real_fields_rejected(self, where, field, value):
        # float() would take "0.2" as 0.2 and true as 1.0
        record = {"spec": {"family": "top_class"}, "lo": 0.2, "hi": 0.5,
                  "sign": 1, "step": 0.2}
        entry = {"err": 0.1, "brier_before": 0.5, "brier_after": 0.4, "step": 0.2}
        d = {"C": 3, "records": [record], "history": [entry]}
        PatchSequence.from_json_dict(d)
        (record if where == "record" else entry)[field] = value
        with pytest.raises(ParseError, match=f"{field} must be a real number"):
            PatchSequence.from_json_dict(d)

    def test_integer_reals_accepted(self):
        record = {"spec": {"family": "top_class"}, "lo": 0, "hi": 1,
                  "sign": 1, "step": 1}
        entry = {"err": 1, "brier_before": 1, "brier_after": 0, "step": 1}
        seq = PatchSequence.from_json_dict(
            {"C": 3, "records": [record], "history": [entry]}
        )
        assert seq.records[0] == PatchRecord(UtilitySpec.top_class(), 0.0, 1.0, 1, 1.0)
        assert seq.to_json_dict()["history"] == [
            {"err": 1.0, "brier_before": 1.0, "brier_after": 0.0, "step": 1.0}
        ]

    @pytest.mark.parametrize("field", ["sign", "C"])
    @pytest.mark.parametrize("value", [-1.7, 3.9, True, "1"])
    def test_non_integer_sign_and_c_rejected(self, field, value):
        # int() would truncate -1.7 to -1 and 3.9 to 3, and take true and "1"
        d = {
            "C": 3,
            "records": [
                {"spec": {"family": "top_class"}, "lo": 0.2, "hi": 0.5,
                 "sign": 1, "step": 0.1}
            ],
        }
        PatchSequence.from_json_dict(d)
        target = d["records"][0] if field == "sign" else d
        target[field] = value
        with pytest.raises(ParseError, match=f"{field} must be an integer"):
            PatchSequence.from_json_dict(d)

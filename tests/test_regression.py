import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qrp.driver import DriveConfig, generate_inputs, run_drive
from qrp.hamiltonian import IsingParams, spectral_model
from qrp.regression import (
    data_deviation,
    r2_score,
    stm_curve,
    train_weights,
)


def pinv_oracle(x, y):
    """Explicit SVD pseudoinverse on the two-column design."""
    design = np.column_stack([x, np.ones_like(x)])
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    s_inv = np.where(s > 1e-12 * s.max(), 1.0 / np.where(s == 0, 1.0, s), 0.0)
    return vt.T @ (s_inv * (u.T @ y))


class TestTrainWeights:
    def test_identity_data(self):
        rng = np.random.default_rng(20)
        x = rng.random(50)
        w_o, w_c = train_weights(x, x)
        assert abs(w_o - 1.0) < 1e-10 and abs(w_c) < 1e-10

    def test_inverts_injection_map(self):
        rng = np.random.default_rng(21)
        s = rng.random(200)
        w_o, w_c = train_weights(2 * s - 1, s)
        assert abs(w_o - 0.5) < 1e-9 and abs(w_c - 0.5) < 1e-9

    def test_constant_readout_minimum_norm(self):
        rng = np.random.default_rng(22)
        x = np.full(40, 0.7)
        y = rng.random(40)
        w = np.array(train_weights(x, y))
        np.testing.assert_allclose(w, pinv_oracle(x, y), atol=1e-9)

    def test_random_designs_match_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(2, 60))
            x = rng.normal(size=n) * rng.choice([1e-3, 1.0, 50.0])
            y = rng.normal(size=n)
            w = np.array(train_weights(x, y))
            np.testing.assert_allclose(w, pinv_oracle(x, y), atol=1e-9)

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            train_weights(np.array([1.0]), np.array([1.0]))


class TestR2Score:
    def test_perfect(self):
        y = np.linspace(0, 1, 30)
        assert abs(r2_score(y, y) - 1.0) < 1e-12

    def test_affine_invariance(self):
        rng = np.random.default_rng(24)
        y = rng.random(100)
        assert abs(r2_score(3.7 * y - 1.2, y) - 1.0) < 1e-10

    def test_constant_prediction_is_zero(self):
        y = np.linspace(0, 1, 30)
        assert r2_score(np.full(30, 0.4), y) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            r2_score(np.zeros(3), np.zeros(4))

    @given(
        st.floats(min_value=-50, max_value=50).filter(lambda a: abs(a) > 1e-3),
        st.floats(min_value=-50, max_value=50),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_affine_invariance_random(self, a, b, seed):
        y = np.random.default_rng(seed).random(40)
        assert abs(r2_score(a * y + b, y) - 1.0) < 1e-9

    def test_in_unit_interval(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            p, t = rng.normal(size=(2, 30))
            assert 0.0 <= r2_score(p, t) <= 1.0 + 1e-9

    @pytest.mark.parametrize("seed", range(50))
    def test_exact_affine_never_exceeds_one(self, seed):
        # z1 = 2 s - 1 at tau = 0: rounding used to give 1 + 2**-52 (seeds 8,
        # 13, 21, 37)
        s = np.random.default_rng(seed).random(150)
        assert 1.0 - 1e-12 <= r2_score(2 * s - 1, s) <= 1.0


def awkward_columns(rng, n):
    """Columns (n, 8) of a read-out over the grid: ordinary scales, plus the
    constant, zero and 1e-17-scale columns a drive produces at tau = 0 or
    under a symmetry."""
    x = rng.normal(size=(n, 8)) * np.array([1e-3, 1.0, 50.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    x[:, 3] = 0.7
    x[:, 4] = 0.0
    x[:, 5] = rng.normal(size=n) * 1e-17
    x[:, 6] = 0.3 + rng.normal(size=n) * 1e-17
    return x


class TestColumns:
    """Columns (n, G) are fitted and scored as a per-column loop would."""

    @pytest.mark.parametrize("n", [2, 3, 40, 1000])
    def test_weights_match_per_column_loop(self, n):
        rng = np.random.default_rng(n)
        x, y = awkward_columns(rng, n), rng.random(n)
        w_o, w_c = train_weights(x, y)
        loop = np.array([train_weights(x[:, m], y) for m in range(x.shape[1])])
        assert isinstance(loop[0, 0], float)
        np.testing.assert_allclose(w_o, loop[:, 0], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(w_c, loop[:, 1], rtol=1e-12, atol=1e-12)
        for m in range(x.shape[1]):
            np.testing.assert_allclose(loop[m], pinv_oracle(x[:, m], y), rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 40, 1000])
    def test_scores_match_per_column_loop(self, n):
        rng = np.random.default_rng(100 + n)
        pred, target = awkward_columns(rng, n), rng.random(n)
        r2 = r2_score(pred, target)
        loop = [r2_score(pred[:, m], target) for m in range(pred.shape[1])]
        assert all(isinstance(v, float) for v in loop)
        np.testing.assert_allclose(r2, loop, rtol=1e-12, atol=1e-12)
        assert np.all(r2[3:6] == 0.0)
        # a target given per column scores the same
        np.testing.assert_allclose(r2_score(pred, np.tile(target[:, None], 8)), r2, atol=1e-12)

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError):
            train_weights(np.zeros((5, 3)), np.zeros(4))
        with pytest.raises(ValueError):
            r2_score(np.zeros((5, 3)), np.zeros((5, 2)))


@pytest.fixture(scope="module")
def drive():
    params = IsingParams(n=2, h_x=-0.5, h_z=1.05)
    model = spectral_model(params)
    cfg = DriveConfig(t_in=1.0, n_grid=3, n_washout=5, n_train=30, n_test=30, seed=2)
    inputs = generate_inputs(cfg.seed, cfg.n_total)
    record, _ = run_drive(cfg, model, ["z1", "z2"], inputs)
    return record


class TestStmCurve:
    def test_fresh_input_recovered_exactly(self, drive):
        curve = stm_curve(drive, "z1", 0)
        assert abs(curve.r2[0] - 1.0) < 1e-6
        assert abs(curve.w_o[0] - 0.5) < 1e-6
        assert abs(curve.w_c[0] - 0.5) < 1e-6

    def test_matches_per_grid_time_fits(self, drive):
        curve = stm_curve(drive, "z2", 1)
        s = drive.inputs.values
        k = drive.first_step + np.arange(drive.n_train + drive.n_test)
        y = s[k - 1]
        x_train, x_test = drive.train_values("z2"), drive.test_values("z2")
        for m in range(len(drive.grid)):
            w_o, w_c = train_weights(x_train[:, m], y[: drive.n_train])
            r2 = r2_score(w_o * x_test[:, m] + w_c, y[drive.n_train :])
            assert abs(curve.w_o[m] - w_o) <= 1e-12 and abs(curve.w_c[m] - w_c) <= 1e-12
            assert abs(curve.r2[m] - r2) <= 1e-12

    def test_delayed_targets_use_washout_inputs(self, drive):
        curve = stm_curve(drive, "z1", 2)
        assert curve.r2.shape == (3,)
        assert np.all((curve.r2 >= 0) & (curve.r2 <= 1 + 1e-9))

    def test_unknown_operator(self, drive):
        with pytest.raises(KeyError):
            stm_curve(drive, "x9", 0)

    def test_delay_beyond_washout(self, drive):
        with pytest.raises(ValueError, match="washout"):
            stm_curve(drive, "z1", 6)
        with pytest.raises(ValueError):
            stm_curve(drive, "z1", -1)


class TestDataDeviation:
    def test_constant_per_bin_gives_zero(self):
        corr = np.array([0.11, 0.112, 0.53, 0.531])
        r2 = np.array([0.3, 0.3, 0.9, 0.9])
        delta, _ = data_deviation(corr, r2, n_windows=100)
        assert delta == 0.0

    def test_two_values_in_one_bin(self):
        delta, bins = data_deviation(
            np.array([0.50010, 0.50015]), np.array([0.2, 0.4]), n_windows=4000
        )
        assert abs(delta - 0.02) < 1e-12
        assert bins.counts[2000] == 2
        assert abs(bins.means[2000] - 0.3) < 1e-12

    def test_unit_correlation_lands_in_last_window(self):
        _, bins = data_deviation(np.array([1.0]), np.array([0.5]), n_windows=10)
        assert bins.counts[9] == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            data_deviation(np.array([1.2]), np.array([0.5]))
        with pytest.raises(ValueError):
            data_deviation(np.array([-0.1]), np.array([0.5]))

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_zero_whenever_r2_is_a_bin_function(self, seed):
        rng = np.random.default_rng(seed)
        corr = rng.random(50)
        windows = 20
        r2 = (np.minimum((corr * windows).astype(int), windows - 1) % 7) / 7.0
        delta, _ = data_deviation(corr, r2, n_windows=windows)
        assert delta < 1e-24

    def test_total_matches_bins(self):
        rng = np.random.default_rng(26)
        corr = rng.random(300)
        r2 = rng.random(300)
        delta, bins = data_deviation(corr, r2, n_windows=50)
        assert abs(delta - bins.sq_dev.sum()) < 1e-12
        assert bins.counts.sum() == 300

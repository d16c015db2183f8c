"""Sampling distributions: Bingham, Gaussians, uniform, nonparametric,
refiner noise."""

import json
import re

import numpy as np
import pytest
from scipy import integrate, optimize, special

from posefocal import sampling
from posefocal.errors import DegenerateFitError, DomainError
from posefocal.geometry import PoseBatch, Rotation, geodesic_distance
from posefocal.sampling import (Z_CLAMP, BinghamParams,
                                Gaussian2DParams, NonparamDeltas,
                                RefinerNoise, UniformRanges, _bingham_moments,
                                _envelope_root, _gauss_legendre_24, _ive012,
                                _nearest_other, _p95,
                                fit_bingham,
                                fit_translation_focal, load_annotations,
                                sample_bingham, sample_pose_nonparametric,
                                sample_pose_parametric, sample_pose_uniform,
                                sample_refiner_noise, sample_rotation_uniform,
                                select_deltas_95pct)
from posefocal.update_rules import ParamState


def make_record(rot, t, f):
    """One annotation's pose; PoseBatch.from_states stacks them as load_annotations reads
    them. Depth is not checked, as the samplers are left to check it."""
    return ParamState(rot, np.asarray(t, float), f)


def annotation_line(rec) -> str:
    return json.dumps({"quat_wxyz": rec.rotation.quat.tolist(), "t_m": rec.translation.tolist(),
                       "f_px": float(rec.focal), "img_wh": [640.0, 480.0],
                       "bbox": [0, 0, 100, 100]})


def random_records(rng, n, spread=0.3):
    out = []
    for _ in range(n):
        out.append(make_record(
            Rotation(rng.standard_normal(4)),
            [rng.normal(0, spread), rng.normal(0, spread),
             np.exp(rng.normal(0.3, 0.2))],
            np.exp(rng.normal(6.3, 0.2))))
    return out


# ---------------------------------------------------------------------------
# Bingham distribution
# ---------------------------------------------------------------------------

LOOSE_Z = (-8.0, -4.0, -1.0, 0.0)  # accepts about 79 % of the candidates
TIGHT_Z = (-300.0, -200.0, -100.0, 0.0)  # accepts about 45 %


def out_of_place_sample_bingham(params, n, seed):
    """sample_bingham with each candidate array allocated anew, as it was
    before it built them in place, and rotated by the strided view frame.T, as
    before the sampler took a contiguous copy; returns the samples and the
    number of rejection rounds."""
    rng = np.random.default_rng(seed)
    d = 4
    beta = -params.z[::-1]
    b = _envelope_root(beta)
    omega_diag = 1.0 + 2.0 * beta / b
    log_m_star = -(d - b) / 2.0 + (d / 2.0) * np.log(d / b)
    frame = params.m[:, ::-1]
    out, rounds = np.empty((0, 4)), 0
    while out.shape[0] < n:
        chunk = max(2 * (n - out.shape[0]), 256)
        g = rng.standard_normal((chunk, 4))
        u = rng.random(chunk)
        y = g / np.sqrt(omega_diag)
        x = y / np.linalg.norm(y, axis=1, keepdims=True)
        quad_b = (x * x) @ beta
        quad_omega = (x * x) @ omega_diag
        log_accept = -quad_b + (d / 2.0) * np.log(quad_omega) - log_m_star
        accepted = x[np.log(u) < log_accept]
        out = np.vstack([out, accepted @ frame.T])
        rounds += 1
    return out[:n], rounds


class TestBingham:
    def test_density_is_antipodally_symmetric(self):
        rng = np.random.default_rng(0)
        m, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        params = BinghamParams(m, np.array([-30.0, -10.0, -2.0, 0.0]))
        for _ in range(20):
            q = rng.standard_normal(4)
            q /= np.linalg.norm(q)
            assert params.log_density_unnormalized(q) == pytest.approx(
                params.log_density_unnormalized(-q), abs=1e-12)

    def test_point_mass_hits_concentration_cap(self):
        q0 = np.array([0.5, 0.5, 0.5, 0.5])
        quats = np.array([q0, -q0] * 10)
        params = fit_bingham(quats)
        assert np.allclose(np.abs(params.m[:, 3]), np.abs(q0))
        assert np.all(params.z[:3] <= -800.0)

    def test_uniform_samples_fit_near_zero_concentration(self):
        rng = np.random.default_rng(1)
        quats = sample_rotation_uniform(20000, rng)
        params = fit_bingham(quats)
        assert np.all(params.z >= -0.5)
        assert np.all(params.z <= 0.0)

    def test_round_trip_recovers_concentrations(self):
        rng = np.random.default_rng(2)
        m, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        true = BinghamParams(m, np.array([-10.0, -5.0, -2.0, 0.0]))
        quats = sample_bingham(true, 20000, rng)
        fitted = fit_bingham(quats)
        rel = np.abs(fitted.z[:3] - true.z[:3]) / np.abs(true.z[:3])
        assert rel.max() < 0.15

    def test_zero_concentration_sampler_is_uniform(self):
        rng = np.random.default_rng(3)
        params = BinghamParams(np.eye(4), np.zeros(4))
        quats = sample_bingham(params, 20000, rng)
        scatter = quats.T @ quats / len(quats)
        assert np.allclose(np.linalg.eigvalsh(scatter), 0.25, atol=0.02)

    def test_sampler_deterministic_under_seed(self):
        m, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((4, 4)))
        params = BinghamParams(m, np.array([-8.0, -4.0, -1.0, 0.0]))
        a = sample_bingham(params, 100, 42)
        b = sample_bingham(params, 100, 42)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("z, n", [
        (LOOSE_Z, 1), (LOOSE_Z, 37), (LOOSE_Z, 255), (LOOSE_Z, 10_000),
        (TIGHT_Z, 1), (TIGHT_Z, 255), (TIGHT_Z, 10_000)])
    def test_sampler_matches_out_of_place_reference(self, z, n):
        """Candidates built in place give the same quaternions, bit for bit,
        as the out-of-place step, over several seeds and rejection rounds."""
        m, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((4, 4)))
        params = BinghamParams(m, np.array(z))
        rounds = []
        for seed in range(5):
            want, k = out_of_place_sample_bingham(params, n, seed)
            got = sample_bingham(params, n, seed)
            assert got.shape == (n, 4) and got.tobytes() == want.tobytes()
            rounds.append(k)
        if z is TIGHT_Z and n > 1:  # accepts under half its candidates
            assert min(rounds) >= 2

    def test_too_few_samples_rejected(self):
        quats = np.eye(4)
        with pytest.raises(DegenerateFitError):
            fit_bingham(quats)

    @pytest.mark.parametrize("z", [
        (0.0, 0.0, 0.0, 0.0), (-5.0, -3.0, -1.0, 0.0), (-300.0, -200.0, -100.0, 0.0),
        (-900.0, -900.0, -900.0, 0.0), (-900.0, -400.0, -1.0, 0.0),
        (-40.0, -700.0, 0.0, -3.0)])
    def test_moments_match_adaptive_quadrature(self, z):
        want = hopf_reference(z)
        got = _bingham_moments(np.array(z))
        assert np.abs(got - want).max() <= 1e-12 * want.min()
        if not any(z):
            assert got == pytest.approx([0.25] * 4, abs=1e-15)

    @pytest.mark.parametrize("z", [(-5.0, -3.0, -1.0, 0.0), (-300.0, -200.0, -100.0, 0.0),
                                   (-900.0, -400.0, -1.0, 0.0), (-40.0, -700.0, 0.0, -3.0)])
    def test_moment_jacobian_matches_central_differences(self, z):
        z = np.array(z)
        _, jac = _bingham_moments(z, with_jac=True)
        numeric = np.empty((4, 4))
        for j in range(4):
            h = 1e-4 * max(1.0, abs(z[j]))
            step = np.eye(4)[j] * h
            numeric[:, j] = (_bingham_moments(z + step) - _bingham_moments(z - step)) / (2 * h)
        assert np.abs(jac - numeric).max() <= 1e-6 * np.abs(jac).max()

    def test_fit_matches_scatter_eigenvalues(self):
        """Maximum likelihood: the fitted second moments are the scatter's
        eigenvalues, on a 150-record fit and near the concentration clamp."""
        rng = np.random.default_rng(13)
        mode = np.array([0.9, 0.1, 0.3, 0.2])
        m, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        near_clamp = BinghamParams(m, np.array([-880.0, -850.0, -820.0, 0.0]))
        for quats in (mode / np.linalg.norm(mode) + rng.normal(0.0, 0.05, (150, 4)),
                      sample_bingham(near_clamp, 4000, rng)):
            fitted = fit_bingham(quats)
            assert fitted.z[0] > Z_CLAMP
            q = quats / np.linalg.norm(quats, axis=1, keepdims=True)
            eigenvalues = np.diag(fitted.m.T @ (q.T @ q / len(q)) @ fitted.m)
            moments = _bingham_moments(fitted.z)
            assert np.abs(moments / eigenvalues - 1.0).max() <= 1e-10

    def test_fit_matches_least_squares_reference(self):
        """The bounded Newton solve lands where SciPy's bounded least squares
        on the same residuals does, on a 150-record fit and near the clamp."""
        rng = np.random.default_rng(13)
        mode = np.array([0.9, 0.1, 0.3, 0.2])
        m, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        near_clamp = BinghamParams(m, np.array([-880.0, -850.0, -820.0, 0.0]))
        for quats in (mode / np.linalg.norm(mode) + rng.normal(0.0, 0.05, (150, 4)),
                      sample_bingham(near_clamp, 4000, rng)):
            want = least_squares_fit_z(quats)
            got = fit_bingham(quats).z
            assert np.abs(got[:3] / want[:3] - 1.0).max() <= 1e-9
            assert got[3] == want[3] == 0.0

    def test_unconverged_fit_raises(self, monkeypatch):
        monkeypatch.setattr(sampling, "_MAX_RETRIES", 1)
        quats = np.array([0.9, 0.1, 0.3, 0.2]) + np.random.default_rng(15).normal(
            0.0, 0.05, (150, 4))
        with pytest.raises(DegenerateFitError, match=r"in 1 iterations \(residual \d"):
            fit_bingham(quats)

    @pytest.mark.parametrize("z", [(0.0, 0.0, 0.0, 0.0), (-8.0, -4.0, -1.0, 0.0),
                                   (-900.0, -900.0, -900.0, 0.0)])
    def test_envelope_root_matches_brentq(self, z):
        beta = -np.array(z)[::-1]
        want = optimize.brentq(lambda b: np.sum(1.0 / (b + 2.0 * beta)) - 1.0, 1e-12, 4.0,
                               xtol=1e-13)
        got = _envelope_root(beta)
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)
        if not any(z):
            assert got == want == 4.0

    def test_bessel_matches_scipy(self):
        x = np.concatenate([np.linspace(-450.0, 450.0, 9001), [0.0, -0.0],
                            np.geomspace(1e-12, 450.0, 500), -np.geomspace(1e-12, 450.0, 500)])
        want = special.ive(np.arange(3)[:, None], x)
        assert (np.abs(_ive012(x) - want) / want[0]).max() <= 5e-15

    def test_gauss_legendre_constants_match_leggauss(self):
        x, w = _gauss_legendre_24()
        want_x, want_w = np.polynomial.legendre.leggauss(24)
        assert np.all(np.abs(x - want_x) <= np.spacing(np.abs(want_x)))
        assert np.all(np.abs(w - want_w) <= np.spacing(want_w))
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])

    def test_gauss_legendre_integrates_degree_47(self):
        """Exact for x^k, k <= 47, up to the rounding of leggauss's weights, whose
        even moments are about 2.3e-15 high even when summed exactly."""
        x, w = _gauss_legendre_24()
        for k in range(48):
            assert w @ x ** k == pytest.approx(2.0 / (k + 1) if k % 2 == 0 else 0.0,
                                               rel=0, abs=3e-15), k

    def test_invalid_params_rejected(self):
        with pytest.raises(DomainError):
            BinghamParams(np.eye(4), np.array([-1.0, -2.0, -3.0, 0.0]))
        with pytest.raises(DomainError):
            BinghamParams(np.eye(4), np.array([-3.0, -2.0, -1.0, 0.5]))

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    @pytest.mark.parametrize("field", ["m", "z"])
    def test_non_finite_params_rejected(self, field, bad):
        """A non-finite z left sample_bingham accepting nothing, forever; a NaN
        in m passed the orthogonality test and sampled NaN quaternions."""
        params = {"m": np.eye(4), "z": np.array([-3.0, -2.0, -1.0, 0.0])}
        params[field].flat[0] = bad
        with pytest.raises(DomainError, match=f"^{field} must be finite"):
            BinghamParams(**params)


def least_squares_fit_z(quats):
    """Concentrations of the former SciPy fit: bounded least squares on the
    relative moment residuals from the same start, tolerances 1e-12/1e-12/1e-15."""
    q = quats / np.linalg.norm(quats, axis=1, keepdims=True)
    lam = np.clip(np.linalg.eigvalsh(q.T @ q / len(q)), 1e-12, None)
    lam = lam / lam.sum()

    def residual(z3):
        return _bingham_moments(np.append(z3, 0.0))[:3] / lam[:3] - 1.0

    def jacobian(z3):
        return _bingham_moments(np.append(z3, 0.0), with_jac=True)[1][:3, :3] / lam[:3, None]

    x0 = np.clip(0.5 / lam[3] - 0.5 / lam[:3], Z_CLAMP + 1.0, -1e-3)
    sol = optimize.least_squares(residual, x0, jac=jacobian, bounds=(Z_CLAMP, 0.0),
                                 xtol=1e-12, ftol=1e-12, gtol=1e-15)
    return np.minimum(np.append(np.sort(sol.x), 0.0), 0.0)


def hopf_reference(z):
    """E[u_i^2] of exp(sum z_i u_i^2) on S^3 by adaptive quadrature over the
    Hopf angle a, u = (cos a cos p1, cos a sin p1, sin a cos p2, sin a sin p2);
    the p1 and p2 integrals are Bessel functions, I_k(x) = ive(k, x) e^|x|."""
    z1, z2, z3, z4 = z

    def integrand(a, i):
        c, s = np.cos(a) ** 2, np.sin(a) ** 2
        x1, x2 = 0.5 * (z1 - z2) * c, 0.5 * (z3 - z4) * s
        scale = np.exp(0.5 * (z1 + z2) * c + abs(x1) + 0.5 * (z3 + z4) * s + abs(x2)
                       - max(z))
        a0, a1 = special.ive(0, x1), special.ive(1, x1)
        b0, b1 = special.ive(0, x2), special.ive(1, x2)
        parts = (a0 * b0, c * (a0 + a1) / 2 * b0, c * (a0 - a1) / 2 * b0,
                 s * a0 * (b0 + b1) / 2, s * a0 * (b0 - b1) / 2)
        return scale * parts[i] * np.cos(a) * np.sin(a)

    width = 1.0 / np.sqrt(max(1.0, -min(z)))
    breaks = sorted({p for k in (1.0, 5.0) for p in (k * width, np.pi / 2 - k * width)
                     if 0.0 < p < np.pi / 2})
    vals = [integrate.quad(integrand, 0.0, np.pi / 2, args=(i,), points=breaks,
                           limit=400, epsabs=0.0, epsrel=1e-13)[0] for i in range(5)]
    return np.array(vals[1:]) / vals[0]


# ---------------------------------------------------------------------------
# Gaussian fits
# ---------------------------------------------------------------------------

class TestGaussianFits:
    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    @pytest.mark.parametrize("field", ["mean", "cov"])
    def test_non_finite_params_rejected(self, field, bad):
        params = {"mean": np.zeros(2), "cov": np.eye(2)}
        params[field].flat[0] = bad
        with pytest.raises(DomainError, match=f"^{field} must be finite"):
            Gaussian2DParams(**params)

    def test_monte_carlo_recovery(self):
        rng = np.random.default_rng(5)
        mean_xy = np.array([0.0, 0.5])
        cov_xy = np.array([[0.04, 0.01], [0.01, 0.09]])
        mean_zf = np.array([np.log(1.5), np.log(600.0)])
        cov_zf = np.array([[0.02, -0.004], [-0.004, 0.05]])
        chol_xy, chol_zf = np.linalg.cholesky(cov_xy), np.linalg.cholesky(cov_zf)
        records = []
        for _ in range(10000):
            xy = mean_xy + chol_xy @ rng.standard_normal(2)
            zf = np.exp(mean_zf + chol_zf @ rng.standard_normal(2))
            records.append(make_record(Rotation(rng.standard_normal(4)),
                                       [xy[0], xy[1], zf[0]], zf[1]))
        fit_xy, fit_zf = fit_translation_focal(PoseBatch.from_states(records))
        assert np.allclose(fit_xy.mean, mean_xy, atol=0.01)
        assert np.allclose(fit_zf.mean, mean_zf, atol=0.01 * np.abs(mean_zf))
        assert np.abs(fit_xy.cov - cov_xy).max() <= 0.05 * np.abs(cov_xy).max()
        assert np.abs(fit_zf.cov - cov_zf).max() <= 0.05 * np.abs(cov_zf).max()

    @pytest.mark.parametrize("n", [1, 255, 10_000])
    def test_sample_matches_the_row_formula(self, n):
        """sample is mean + normals @ chol.T, as first written, bit for bit."""
        rng = np.random.default_rng(n)
        for _ in range(20):
            a = rng.standard_normal((2, 2))
            params = Gaussian2DParams(rng.standard_normal(2), a @ a.T + 0.1 * np.eye(2))
            seed = int(rng.integers(2**32))
            got = params.sample(n, np.random.default_rng(seed))
            normals = np.random.default_rng(seed).standard_normal((n, 2))
            want = params.mean + normals @ np.linalg.cholesky(params.cov).T
            assert got.shape == (n, 2) and got.tobytes() == want.tobytes()

    def test_identical_records_are_singular(self):
        rec = make_record(Rotation.identity(), [0.1, 0.2, 1.0], 600.0)
        with pytest.raises(DegenerateFitError):
            fit_translation_focal(PoseBatch.from_states([rec] * 5))

    def test_two_records_insufficient(self):
        rng = np.random.default_rng(6)
        with pytest.raises(DegenerateFitError):
            fit_translation_focal(PoseBatch.from_states(random_records(rng, 2)))

    def test_parametric_samples_have_positive_depth_and_focal(self):
        rng = np.random.default_rng(7)
        records = PoseBatch.from_states(random_records(rng, 200))
        bingham = fit_bingham(records.quat)
        xy, zf = fit_translation_focal(records)
        poses = sample_pose_parametric(bingham, xy, zf, 500, seed=0)
        assert len(poses) == 500
        assert np.all(poses.translation[:, 2] > 0) and np.all(poses.focal > 0)


# ---------------------------------------------------------------------------
# Uniform sampler
# ---------------------------------------------------------------------------

class TestUniformSampler:
    def test_ranges_respected(self):
        ranges = UniformRanges(z_range=(0.8, 2.4), f_range=(200.0, 1000.0),
                               xy_box=0.15)
        poses = sample_pose_uniform(ranges, 2000, seed=0)
        z, f, xy = poses.translation[:, 2], poses.focal, poses.translation[:, :2]
        assert z.min() >= 0.8 and z.max() <= 2.4
        assert f.min() >= 200.0 and f.max() <= 1000.0
        assert np.abs(xy).max() <= 0.075

    def test_rotation_angle_follows_haar_density(self):
        rng = np.random.default_rng(8)
        quats = sample_rotation_uniform(20000, rng)
        angles = 2 * np.arccos(np.clip(np.abs(quats[:, 0]), 0, 1))
        # K-S against the Haar angle CDF (theta - sin theta) / pi
        xs = np.sort(angles)
        cdf = (xs - np.sin(xs)) / np.pi
        emp = np.arange(1, len(xs) + 1) / len(xs)
        assert np.abs(emp - cdf).max() < 0.02

    def test_invalid_ranges_rejected(self):
        with pytest.raises(DomainError):
            UniformRanges(z_range=(2.0, 1.0))
        with pytest.raises(DomainError):
            UniformRanges(f_range=(-5.0, 100.0))


# ---------------------------------------------------------------------------
# Nonparametric sampler
# ---------------------------------------------------------------------------

class TestNonparametric:
    def test_two_records_give_their_pairwise_distance(self):
        ra = Rotation.identity()
        rb = Rotation.from_axis_angle([0, 0, 1], 0.5)
        records = [make_record(ra, [0.0, 0.0, 1.0], 600.0),
                   make_record(rb, [0.3, 0.4, 1.0], 600.0)]
        deltas = select_deltas_95pct(PoseBatch.from_states(records))
        assert deltas.delta_r == pytest.approx(0.5)
        assert deltas.delta_x == pytest.approx(0.5)  # hypot(0.3, 0.4)
        assert deltas.delta_x == deltas.delta_y
        assert deltas.delta_z == deltas.delta_f

    def test_duplicated_dataset_gives_zero_deltas(self):
        rng = np.random.default_rng(9)
        records = random_records(rng, 20)
        deltas = select_deltas_95pct(PoseBatch.from_states(records + records))
        assert deltas.delta_r == pytest.approx(0.0, abs=1e-12)
        assert deltas.delta_x == pytest.approx(0.0, abs=1e-12)
        assert deltas.delta_f == pytest.approx(0.0, abs=1e-12)

    def test_matches_brute_force(self):
        """60 records: pairs whose rotations differ by a small turn and a
        sign flip, exact duplicates, and unrelated records."""
        rng = np.random.default_rng(14)
        records = random_records(rng, 30)
        for rec in records[:20]:
            turn = Rotation.from_axis_angle(rng.standard_normal(3), rng.uniform(0.05, 0.6))
            flipped = Rotation(-(turn @ rec.rotation).quat)
            records.append(make_record(flipped, rec.translation + rng.normal(0, 0.05, 3),
                                       rec.focal + rng.normal(0, 5.0)))
        records += records[:10]
        n = len(records)
        ang = np.full((n, n), np.inf)
        for i in range(n):
            for j in range(n):
                if i != j:
                    ang[i, j] = geodesic_distance(records[i].rotation, records[j].rotation)
        t = np.stack([r.translation for r in records])
        zf = np.column_stack([t[:, 2], [r.focal for r in records]])

        def nn95(points):
            dist = np.linalg.norm(points[:, None] - points[None, :], axis=-1)
            np.fill_diagonal(dist, np.inf)
            return np.percentile(dist.min(axis=1), 95.0)

        deltas = select_deltas_95pct(PoseBatch.from_states(records))
        assert deltas.delta_r == np.percentile(ang.min(axis=1), 95.0)
        assert deltas.delta_x == deltas.delta_y == nn95(t[:, :2])
        assert deltas.delta_z == deltas.delta_f == nn95(zf)

    def test_p95_matches_numpy_percentile(self):
        """Bit for bit, on non-negative draws with ties, zeros and +inf (inf - inf is
        NaN in both lerps)."""
        rng = np.random.default_rng(17)
        for n in [*range(1, 301), 10_000]:
            for kind in ("plain", "ties", "zeros", "inf"):
                d = rng.exponential(size=n)
                if kind != "plain":
                    d = np.round(d, 1)
                if kind in ("zeros", "inf"):
                    d[rng.random(n) < 0.3] = 0.0
                if kind == "inf":
                    d[rng.random(n) < 0.1] = np.inf
                with np.errstate(invalid="ignore"):
                    want = np.percentile(d, 95.0)
                    got = _p95(d)
                assert np.float64(got).tobytes() == want.tobytes(), (n, kind, got, want)

    @pytest.mark.parametrize("case", ["duplicates", "antipodal", "antipodal-unsigned",
                                      "twins", "ties", "shared-sweep-coordinate",
                                      "identical"])
    def test_nearest_other_matches_brute_force(self, case):
        rng = np.random.default_rng(16)
        period = None
        if case == "duplicates":
            base = rng.normal(size=(20, 2))
            points = np.concatenate([base, base[:7], base[:3]])
        elif case.startswith("antipodal"):
            # unit quaternions with duplicates and sign flips among them against
            # their negatives, signed as select_deltas_95pct signs them or not
            q = rng.normal(size=(30, 4))
            q /= np.linalg.norm(q, axis=1, keepdims=True)
            q = np.concatenate([q, -q[:10], q[:5]])
            if case == "antipodal":
                q = np.where(q[:, [np.argmax(np.abs(q).max(axis=0))]] < 0.0, -q, q)
            period, points = len(q), np.concatenate([q, -q])
        elif case == "twins":
            # row i + 20 is nearest to row i but is the same row modulo 20
            base = rng.normal(size=(20, 3))
            period, points = 20, np.concatenate([base, base + 1e-9])
        elif case == "ties":
            # integer grid: every row has up to four neighbors at exactly 1
            points = np.stack(np.meshgrid(np.arange(6.0), np.arange(5.0)), -1).reshape(-1, 2)
            points = points[rng.permutation(len(points))]
        elif case == "shared-sweep-coordinate":
            # x is the widest axis and takes two values, so rows tie along it
            points = np.column_stack([np.repeat([0.0, 10.0], 20), rng.random(40)])
        else:
            points = np.full((12, 3), 0.25)
        period = period or len(points)
        owner = np.arange(len(points)) % period
        dist = np.linalg.norm(points[:period, None] - points[None, :], axis=-1)
        dist[owner[None, :] == np.arange(period)[:, None]] = np.inf
        got, nearest = _nearest_other(points, period)
        assert np.array_equal(got, dist.min(axis=1))
        assert np.all(nearest != np.arange(period))
        hit = np.where(owner[None, :] == nearest[:, None], dist, np.inf).min(axis=1)
        assert np.array_equal(hit, got)

    def test_ordering_invariance(self):
        rng = np.random.default_rng(10)
        records = random_records(rng, 50)
        a = select_deltas_95pct(PoseBatch.from_states(records))
        b = select_deltas_95pct(PoseBatch.from_states(records[::-1]))
        for name in ("delta_r", "delta_x", "delta_y", "delta_z", "delta_f"):
            assert getattr(a, name) == pytest.approx(getattr(b, name),
                                                     abs=1e-12)

    def test_zero_deltas_bootstrap(self):
        rng = np.random.default_rng(11)
        records = random_records(rng, 10)
        deltas = NonparamDeltas(0.0, 0.0, 0.0, 0.0, 0.0)
        poses = sample_pose_nonparametric(PoseBatch.from_states(records), deltas, 50, seed=0)
        originals = {tuple(np.round(r.translation, 12)) for r in records}
        for t in poses.translation:
            assert tuple(np.round(t, 12)) in originals

    def test_perturbations_stay_inside_ellipse(self):
        records = [make_record(Rotation.identity(), [0.0, 0.0, 1.0], 600.0)]
        deltas = NonparamDeltas(0.2, 0.05, 0.1, 0.2, 50.0)
        poses = sample_pose_nonparametric(PoseBatch.from_states(records), deltas, 2000,
                                          seed=1)
        dx, dy = poses.translation[:, 0], poses.translation[:, 1]
        dz, df = poses.translation[:, 2] - 1.0, poses.focal - 600.0
        assert np.all((dx / 0.05) ** 2 + (dy / 0.1) ** 2 <= 1.0 + 1e-9)
        assert np.all((dz / 0.2) ** 2 + (df / 50.0) ** 2 <= 1.0 + 1e-9)
        angle = 2 * np.arccos(np.clip(np.abs(poses.quat[:, 0]), 0, 1))
        assert np.all(angle <= 0.2 + 1e-9)

    def test_exhausted_retries_raise(self):
        records = [make_record(Rotation.identity(), [0.0, 0.0, -1.0], 600.0)]
        deltas = NonparamDeltas(0.1, 0.0, 0.0, 0.5, 0.0)
        with pytest.raises(DomainError, match="retries exhausted"):
            sample_pose_nonparametric(PoseBatch.from_states(records), deltas, 5, seed=0)


# ---------------------------------------------------------------------------
# Refiner input-noise model
# ---------------------------------------------------------------------------

class TestRefinerNoise:
    GT = ParamState(Rotation.identity(), np.array([0.1, -0.1, 1.5]), 600.0)

    def test_zero_noise_returns_ground_truth(self):
        out = sample_refiner_noise(self.GT, seed=0,
                                   noise=RefinerNoise(0.0, 0.0, 0.0, 0.0))
        assert out is self.GT

    def test_focal_std_matches_sigma_reading(self):
        draws = np.array([
            sample_refiner_noise(self.GT, seed=i).focal for i in range(10000)])
        assert draws.std() == pytest.approx(0.15 * 600.0, abs=2.0)

    @pytest.mark.parametrize("field, value", [
        ("sigma_xy", -1.0), ("sigma_z", np.nan), ("focal_scale", np.inf),
        ("euler_deg", -0.5)])
    def test_invalid_scale_names_field(self, field, value):
        with pytest.raises(DomainError, match=f"^{field} must be finite and non-negative"):
            RefinerNoise(**{field: value})

    def test_depth_stays_positive(self):
        gt = ParamState(Rotation.identity(), np.array([0.0, 0.0, 0.02]), 600.0)
        for i in range(50):
            assert sample_refiner_noise(gt, seed=i).translation[2] > 0


# ---------------------------------------------------------------------------
# Annotation I/O
# ---------------------------------------------------------------------------

class TestAnnotationIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        records = random_records(rng, 5)
        path = tmp_path / "ann.jsonl"
        path.write_text("\n".join(map(annotation_line, records)))
        back, img_wh, bbox = load_annotations(path)
        assert len(back) == 5
        assert np.allclose(back.translation[0], records[0].translation)
        assert np.array_equal(back.focal, PoseBatch.from_states(records).focal)
        assert img_wh.tolist() == [[640.0, 480.0]] * 5 and bbox.tolist() == [[0, 0, 100, 100]] * 5

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"quat_wxyz": [1,0,0,0]}\n{not json}\n')
        with pytest.raises(DomainError, match="line 1"):
            load_annotations(path)

    @pytest.mark.parametrize("t, f, message", [
        ([0.0, 1.0], 600.0, "translation must be a finite 3-vector"),
        ([0.0, 0.0, 1.0, 2.0], 600.0, "translation must be a finite 3-vector"),
        ([0.0, np.inf, 1.0], 600.0, "translation must be a finite 3-vector"),
        ([0.0, 0.0, 1.0], -600.0, "focal length must be positive, got -600.0"),
        ([0.0, 0.0, 1.0], 0.0, "focal length must be positive, got 0.0"),
        ([0.0, 0.0, 1.0], np.nan, "focal length must be positive, got nan"),
    ], ids=["t-two-components", "t-four-components", "t-infinite", "f-negative",
            "f-zero", "f-nan"])
    def test_bad_record_rejected(self, tmp_path, t, f, message):
        path = tmp_path / "ann.jsonl"
        path.write_text(json.dumps({"quat_wxyz": [1, 0, 0, 0], "t_m": t, "f_px": f,
                                    "img_wh": [640, 480], "bbox": [0, 0, 60, 80]}) + "\n")
        with pytest.raises(DomainError, match=f"^{re.escape(str(path))} "
                           f"line 1: {message}$"):
            load_annotations(path)

    def test_bad_line_is_named(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        path.write_text(json.dumps({"quat_wxyz": [1, 0, 0, 0], "t_m": [0, 0, 1],
                                    "f_px": -600.0, "img_wh": [640, 480],
                                    "bbox": [0, 0, 60, 80]}) + "\n")
        with pytest.raises(DomainError, match=f"^{re.escape(str(path))} "
                           "line 1: focal length must be positive"):
            load_annotations(path)

"""Synthetic training-data distributions for poses and focal lengths.

Parametric: a Bingham distribution on unit quaternions plus two 2D normals,
one for (x, y) and one for (log z, log f). Also: Haar-uniform sampling on
SO(3), a nonparametric perturb-the-dataset sampler, and the refiner
input-noise model.

All samplers take an integer seed (or a numpy Generator) and are
deterministic; the pose samplers return a :class:`PoseBatch`.

Everything here, the Bingham fit and sampler included, is plain NumPy.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import DegenerateFitError, DomainError, number_columns, read_columns, require
from .geometry import (BBox, ParamState, PoseBatch, Rotation, check_boxes, geodesic_angles,
                       pose_columns, quat_multiply, quat_unit, quats_from_axis_angle)

Z_CLAMP = -900.0  # concentration floor; keeps the normalization constant finite
_MAX_RETRIES = 100
ANNOTATION_SHAPES = ((4,), (3,), (), (2,), (4,))  # of quat_wxyz, t_m, f_px, img_wh and bbox


def _require_finite(**arrays):
    for name, a in arrays.items():
        if not np.all(np.isfinite(a)):
            raise DomainError(f"{name} must be finite")


# ---------------------------------------------------------------------------
# Bingham distribution on S^3
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BinghamParams:
    """Orthogonal frame ``m`` (columns) and concentrations diag(z1, z2, z3, 0).

    z is ascending and non-positive; the last column of ``m`` is the mode
    direction and carries concentration 0.
    """

    m: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        z = np.asarray(self.z, dtype=float)
        _require_finite(m=m, z=z)
        if m.shape != (4, 4) or np.abs(m.T @ m - np.eye(4)).max() > 1e-9:
            raise DomainError("m must be a 4x4 orthogonal matrix")
        if z.shape != (4,) or z[3] != 0.0 or np.any(np.diff(z) < 0) or np.any(z > 0):
            raise DomainError("z must be ascending, non-positive, with z[3] == 0")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "z", z)

    def log_density_unnormalized(self, q: np.ndarray) -> np.ndarray:
        """log of exp(q^T M Z M^T q) for quaternions q (4,) or (N, 4)."""
        q = np.atleast_2d(np.asarray(q, dtype=float))
        proj = q @ self.m
        out = (proj * proj) @ self.z
        return out if out.size > 1 else float(out[0])

    def to_dict(self) -> dict:
        return {"m": self.m.tolist(), "z": self.z.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "BinghamParams":
        return cls(np.asarray(d["m"], dtype=float), np.asarray(d["z"], dtype=float))


def _gauss_legendre_24() -> tuple[np.ndarray, np.ndarray]:
    """The 24-node Gauss-Legendre rule on [-1, 1], ascending, as constants: leggauss(24)'s
    positive nodes and their weights, mirrored about 0, without numpy.polynomial."""
    x = np.array((0.06405689286260563, 0.1911188674736163, 0.3150426796961634,
                  0.4337935076260451, 0.5454214713888396, 0.6480936519369755,
                  0.7401241915785544, 0.820001985973903, 0.8864155270044011,
                  0.9382745520027328, 0.9747285559713095, 0.9951872199970213))
    w = np.array((0.12793819534675202, 0.12583745634682825, 0.1216704729278033,
                  0.11550566805372552, 0.10744427011596556, 0.09761865210411393,
                  0.0861901615319532, 0.07334648141108016, 0.05929858491543636,
                  0.04427743881741941, 0.02853138862893356, 0.01234122979998869))
    return np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])


def _hopf_rule(z_min: float):
    """Nodes c = cos^2 a, t = 1 - c and weights of a 24-node Gauss-Legendre
    rule on [0, 1] whose panels grow x4 from both ends, the first
    1 / (4 max(1, -z_min)) wide: a concentrated Bingham's mass lies within a
    few 1/|z| of an end. t comes from the mirrored node, exact near t = 0."""
    width, edges = 0.25 / max(1.0, -z_min), [0.0]
    while edges[-1] + width < 0.5:
        edges.append(edges[-1] + width)
        width *= 4.0
    edges.append(1.0 - edges[-1])
    a, b = np.array(edges[:-1]), np.array(edges[1:])
    gl_x, gl_w = _gauss_legendre_24()
    half = 0.5 * (b - a)[:, None]
    nodes = (0.5 * (a + b)[:, None] + half * gl_x).ravel()
    weights = (half * gl_w).ravel()
    left = nodes < 0.5
    h, w = nodes[left], weights[left]
    return np.concatenate([h, 1.0 - h]), np.concatenate([1.0 - h, h]), np.concatenate([w, w])


def _ive012(x: np.ndarray) -> np.ndarray:
    """(3, len(x)) ive(n, x), n = 0, 1, 2, within 3e-15 of ive(0, x) for |x| <= 450:
    (1/pi) int_0^pi exp(|x| (cos t - 1)) cos nt dt by the 128-node midpoint rule."""
    theta = np.pi * (np.arange(128) + 0.5) / 128
    drop = np.exp(np.abs(x)[:, None] * (-2.0 * np.sin(0.5 * theta) ** 2))
    return (drop @ np.cos(np.outer(theta, np.arange(3))) / 128).T \
        * np.sign(x) ** np.arange(3)[:, None]


def _bingham_moments(z: np.ndarray, with_jac: bool = False):
    """E[u_i^2] along the frame axes, and optionally d E[u_i^2] / d z_j.

    Hopf coordinates u = (cos a cos p1, cos a sin p1, sin a cos p2,
    sin a sin p2) reduce the integrals over S^3 to one over c = cos^2 a:
    the angle p1 integrates to exponentially scaled Bessel functions of
    x1 = (z1 - z2) c / 2, and p2 likewise at x2 = (z3 - z4) t / 2. z need
    not be sorted. The Jacobian is the covariance of the u_i^2.
    """
    c, t, w = _hopf_rule(float(z.min()))
    z1, z2, z3, z4 = z
    lo, hi = max(z1, z2), max(z3, z4)
    s = w * np.exp(lo * c + hi * t - max(lo, hi))
    a0, a1, a2 = _ive012(0.5 * (z1 - z2) * c)
    b0, b1, b2 = _ive012(0.5 * (z3 - z4) * t)
    # second moments of the two circles: cos^2 p -> (I0 + I1) / 2, sin^2 p -> (I0 - I1) / 2
    pa = 0.5 * c * np.array([a0 + a1, a0 - a1])
    pb = 0.5 * t * np.array([b0 + b1, b0 - b1])
    norm = (a0 * b0) @ s
    moments = np.concatenate([pa * b0, pb * a0]) @ s / norm
    if not with_jac:
        return moments

    def same_circle(i0, i1, i2):
        """cos^4 p, cos^2 p sin^2 p and sin^4 p integrated against exp(x cos 2p)."""
        mixed = (i0 - i2) / 8.0
        return np.array([[(3.0 * i0 + 4.0 * i1 + i2) / 8.0, mixed],
                         [mixed, (3.0 * i0 - 4.0 * i1 + i2) / 8.0]])

    fourth = np.empty((4, 4, len(s)))
    fourth[:2, :2] = same_circle(a0, a1, a2) * (c * c * b0)
    fourth[2:, 2:] = same_circle(b0, b1, b2) * (t * t * a0)
    fourth[:2, 2:] = pa[:, None] * pb[None, :]
    fourth[2:, :2] = fourth[:2, 2:].transpose(1, 0, 2)
    return moments, fourth @ s / norm - np.outer(moments, moments)


def fit_bingham(quaternions) -> BinghamParams:
    """Maximum-likelihood Bingham fit to unit quaternions.

    ``quaternions`` is an (N, 4) array. The frame is the eigenbasis of the
    antipodally symmetric scatter matrix; the concentrations are solved by
    matching the scatter eigenvalues, clamped to [-900, 0]. Raises
    :class:`DegenerateFitError` if the solve does not converge.
    """
    q = np.asarray(quaternions, dtype=float)
    if q.ndim != 2 or q.shape[1] != 4 or q.shape[0] < 5:
        raise DegenerateFitError("need at least 5 quaternions of shape (N, 4)")
    q = q / np.linalg.norm(q, axis=1, keepdims=True)

    scatter = q.T @ q / q.shape[0]
    evals, evecs = np.linalg.eigh(scatter)  # ascending
    if evals[3] < 1e-12:
        raise DegenerateFitError("rank-deficient quaternion scatter")

    lam = np.clip(evals, 1e-12, None)
    lam = lam / lam.sum()

    # Relative residuals weigh the three moments alike: near the clamp the
    # eigenvalues are ~1/1800, and absolute ones would hardly count there.
    def residual(z3):
        moments, jac = _bingham_moments(np.append(z3, 0.0), with_jac=True)
        return moments[:3] / lam[:3] - 1.0, jac[:3, :3] / lam[:3, None]

    # Bounded Newton: a coordinate at a bound whose gradient points out stays. The
    # step halves until the residual falls; 30 halvings that fail end the solve.
    x = np.clip(0.5 / lam[3] - 0.5 / lam[:3], Z_CLAMP + 1.0, -1e-3)
    r, jac = residual(x)
    for it in range(_MAX_RETRIES + 1):
        if it == _MAX_RETRIES or not np.isfinite(r @ r):
            raise DegenerateFitError(f"Bingham concentration solve did not converge in "
                                     f"{it} iterations (residual {np.abs(r).max():.3g})")
        free = ~(((x <= Z_CLAMP) & (jac.T @ r > 0)) | ((x >= 0.0) & (jac.T @ r < 0)))
        step = np.linalg.lstsq(jac * free, -r, rcond=None)[0]
        if np.all(np.abs(step) <= 1e-12 * np.maximum(1.0, np.abs(x))):
            break
        for _ in range(30):
            trial = np.clip(x + step, Z_CLAMP, 0.0)
            r_trial, jac_trial = residual(trial)
            if r_trial @ r_trial < r @ r:
                break
            step = 0.5 * step
        else:
            break
        x, r, jac = trial, r_trial, jac_trial
    z = np.append(np.sort(x), 0.0)
    m = evecs.copy()
    if np.linalg.det(m) < 0:
        m[:, 0] = -m[:, 0]
    return BinghamParams(m, z)


def _envelope_root(beta: np.ndarray) -> float:
    """The root b in [1, 4] of sum 1 / (b + 2 beta) = 1 (beta >= 0, beta[0] = 0):
    Newton on the increasing, concave h(b) = 1 / sum 1 / (b + 2 beta) climbs
    from h(1) <= 1 without overshoot, and beta = 0 gives h = b / 4, b = 4."""
    b = 1.0
    while True:  # b rises strictly, so this ends
        inv = 1.0 / (b + 2.0 * beta)
        h = 1.0 / inv.sum()
        b_next = b + (1.0 - h) / (h * h * (inv @ inv))
        if not b_next > b:
            return b
        b = b_next


def sample_bingham(params: BinghamParams, n: int, seed) -> np.ndarray:
    """Exact Bingham sampling by rejection from an angular central Gaussian.

    Returns (n, 4) unit quaternions; deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    d = 4
    # B = -M Z M^T is PSD with smallest eigenvalue 0.
    beta = -params.z[::-1]  # descending z -> ascending beta, beta[0] = 0
    b = _envelope_root(beta)
    omega_diag = 1.0 + 2.0 * beta / b  # in the M-frame (reversed column order)
    log_m_star = -(d - b) / 2.0 + (d / 2.0) * np.log(d / b)

    frame = params.m[:, ::-1]  # columns ordered by ascending beta
    out = np.empty((0, 4))
    while out.shape[0] < n:
        chunk = max(2 * (n - out.shape[0]), 256)
        g = rng.standard_normal((chunk, 4))
        u = rng.random(chunk)
        g /= np.sqrt(omega_diag)  # the candidates are built in place in g
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        x2 = g * g
        log_accept = -(x2 @ beta) + (d / 2.0) * np.log(x2 @ omega_diag) - log_m_star
        g = g[np.log(u) < log_accept]  # the accepted rows; frees the candidates
        out = np.vstack([out, g @ frame.T])
    return out[:n]


# ---------------------------------------------------------------------------
# Gaussians for translation and focal length
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Gaussian2DParams:
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        _require_finite(mean=mean, cov=cov)
        if mean.shape != (2,) or cov.shape != (2, 2):
            raise DomainError("mean must be (2,) and cov (2, 2)")
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise DomainError("covariance is not positive definite") from None
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        chol = np.linalg.cholesky(self.cov)
        return self.mean + rng.standard_normal((n, 2)) @ chol.T

    def to_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "cov": self.cov.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "Gaussian2DParams":
        return cls(np.asarray(d["mean"], dtype=float), np.asarray(d["cov"], dtype=float))


def annotation_row(d: dict) -> tuple:
    """One real-dataset annotation (pose, focal length, image size and bbox) as the fields
    :func:`annotation_fields` gives, checked by Rotation, BBox and ParamState; depth is
    left to the samplers."""
    rotation = Rotation(np.asarray(d["quat_wxyz"], dtype=float))
    t, f, img_wh = np.asarray(d["t_m"], dtype=float), float(d["f_px"]), d["img_wh"]
    if type(img_wh) is not list or len(img_wh) != 2 or {*map(type, img_wh)} - {int, float}:
        raise DomainError(f"img_wh must be two numbers, got {img_wh!r}")
    bbox = BBox(*[float(v) for v in d["bbox"]])
    state = ParamState(rotation, t, f)
    return (state.rotation.quat, state.translation, state.focal, [*map(float, img_wh)],
            bbox.as_list())


def annotation_fields(docs) -> tuple:
    """The quaternions (N, 4), translations (N, 3), focal lengths (N,), image sizes (N, 2)
    and bboxes (N, 4) of annotation dicts, the fields :func:`annotation_row` gives, built
    column-wise: an error where a record is not one that annotation_row takes."""
    quat, t, f, img_wh, bbox = number_columns(map(itemgetter(
        "quat_wxyz", "t_m", "f_px", "img_wh", "bbox"), docs), *ANNOTATION_SHAPES)
    require((img_wh != 0) & (img_wh != 1))  # a bool reads as 0 or 1: left to annotation_row
    return (*pose_columns(quat, t, f), img_wh, check_boxes(bbox))


def load_annotations(path: str | Path) -> tuple[PoseBatch, np.ndarray, np.ndarray]:
    """The poses, image sizes (N, 2) and bboxes (N, 4) of a JSON-lines annotation file:
    read by :func:`annotation_fields` a block of lines at a time, and line by line by
    :func:`annotation_row` in a block where a line breaks one of its checks (or holds an
    image size of 0 or 1, which a bool would read as); errors carry the line number."""
    import orjson
    quat, t, f, img_wh, bbox = read_columns(path, annotation_fields, annotation_row,
                                            *ANNOTATION_SHAPES, loads=orjson.loads)
    return PoseBatch(quat, t, f), img_wh, bbox


def fit_translation_focal(poses: PoseBatch) -> tuple[Gaussian2DParams, Gaussian2DParams]:
    """Fit the (x, y) and (log z, log f) normals with unbiased covariance."""
    if len(poses) < 3:
        raise DegenerateFitError("need at least 3 records")
    t, f = poses.translation, poses.focal
    if np.any(t[:, 2] <= 0) or np.any(f <= 0):
        raise DegenerateFitError("all depths and focal lengths must be positive")
    xy = t[:, :2]
    zf = np.column_stack([np.log(t[:, 2]), np.log(f)])

    def fit_one(data):
        mean = data.mean(axis=0)
        cov = np.cov(data, rowvar=False, ddof=1)
        try:
            return Gaussian2DParams(mean, cov)
        except DomainError:
            raise DegenerateFitError("singular sample covariance") from None

    return fit_one(xy), fit_one(zf)


def sample_pose_parametric(bingham: BinghamParams, xy: Gaussian2DParams,
                           zf: Gaussian2DParams, n: int, seed) -> PoseBatch:
    """Draw (rotation, translation, focal) triples from the fitted distributions."""
    rng = np.random.default_rng(seed)
    quats = sample_bingham(bingham, n, rng)
    xy_s = xy.sample(n, rng)
    with np.errstate(over="ignore", under="ignore"):
        zf_s = np.exp(zf.sample(n, rng))
    if not np.all((0 < zf_s) & (zf_s < np.inf)):
        raise DomainError("zf: a drawn depth or focal is not finite and positive")
    return PoseBatch(quat_unit(quats), np.column_stack([xy_s, zf_s[:, 0]]), zf_s[:, 1])


# ---------------------------------------------------------------------------
# Uniform distribution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UniformRanges:
    """Ranges for uniform pose/focal sampling; defaults match the car datasets,
    use z_range=(0.8, 2.4) for Pix3D."""

    z_range: tuple[float, float] = (0.8, 3.0)
    f_range: tuple[float, float] = (200.0, 1000.0)
    xy_box: float = 0.15  # side length of the x-y sampling box, meters

    def __post_init__(self):
        for name, what in (("z_range", "depth"), ("f_range", "focal")):
            r = np.asarray(getattr(self, name))
            if r.shape != (2,) or not 0 < r[0] < r[1] < np.inf:
                raise DomainError(f"invalid {what} range: need finite 0 < lo < hi")
        if not 0 < self.xy_box < np.inf:
            raise DomainError("invalid x-y box: need a finite side > 0")


def sample_rotation_uniform(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform unit quaternions via the subgroup algorithm (Shoemake)."""
    u1 = rng.random(n)
    u2 = rng.random(n)
    u3 = rng.random(n)
    a, b = np.sqrt(1.0 - u1), np.sqrt(u1)
    return np.column_stack([
        a * np.sin(2 * np.pi * u2),
        a * np.cos(2 * np.pi * u2),
        b * np.sin(2 * np.pi * u3),
        b * np.cos(2 * np.pi * u3),
    ])


def sample_pose_uniform(ranges: UniformRanges, n: int, seed) -> PoseBatch:
    rng = np.random.default_rng(seed)
    quats = sample_rotation_uniform(n, rng)
    half = ranges.xy_box / 2.0
    xy = rng.uniform(-half, half, size=(n, 2))
    z = rng.uniform(*ranges.z_range, size=n)
    f = rng.uniform(*ranges.f_range, size=n)
    return PoseBatch(quat_unit(quats), np.column_stack([xy, z]), f)


# ---------------------------------------------------------------------------
# Nonparametric distribution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NonparamDeltas:
    """Perturbation radii: rotation angle, x-y ellipse, (z, f) ellipse."""

    delta_r: float
    delta_x: float
    delta_y: float
    delta_z: float
    delta_f: float

    def __post_init__(self):
        for name in ("delta_r", "delta_x", "delta_y", "delta_z", "delta_f"):
            if not 0 <= getattr(self, name) < np.inf:
                raise DomainError(f"{name} must be finite and non-negative")

    def to_dict(self) -> dict:
        return {"delta_r_rad": self.delta_r, "delta_x_m": self.delta_x,
                "delta_y_m": self.delta_y, "delta_z_m": self.delta_z,
                "delta_f_px": self.delta_f}

    @classmethod
    def from_dict(cls, d: dict) -> "NonparamDeltas":
        return cls(float(d["delta_r_rad"]), float(d["delta_x_m"]),
                   float(d["delta_y_m"]), float(d["delta_z_m"]), float(d["delta_f_px"]))


def _nearest_other(points: np.ndarray, period: int) -> tuple[np.ndarray, np.ndarray]:
    """Distance (np.linalg.norm's, bit for bit) to, and index mod ``period`` of, the
    nearest row j != i (mod ``period``) of each of the first ``period`` rows i. A sweep
    along the widest axis compares rows k apart until no squared gap beats a best."""
    n = len(points)
    axis = np.argmax(np.ptp(points, axis=0))
    order = np.argsort(points[:, axis], kind="stable")
    cols, row, pos = points[order].T.copy(), order % period, np.arange(n)
    key, arg, first = cols[axis], pos.copy(), np.flatnonzero(order < period)[0]
    best = np.where(order < period, np.inf, -np.inf)  # other rows ask for nothing
    for k in range(1, n):
        lo, hi = slice(max(first - k, 0), n - k), slice(max(first, k), n)
        gap = key[hi] - key[lo]
        gap *= gap
        if not ((gap < best[lo]) | (gap < best[hi])).any():
            break
        d = cols[:, hi] - cols[:, lo]
        d *= d
        s = d.sum(axis=0)
        s[row[hi] == row[lo]] = np.inf
        for near, nearest, other in ((best[lo], arg[lo], pos[hi]),
                                     (best[hi], arg[hi], pos[lo])):
            closer = s < near
            np.copyto(near, s, where=closer)
            np.copyto(nearest, other, where=closer)
    back = np.argsort(order)[:period]
    return np.sqrt(best[back]), row[arg[back]]


def _p95(d: np.ndarray) -> float:
    """``np.percentile(d, 95.0)`` of non-negative d, bit for bit, without numpy.ma: the
    linear method's lerp, t >= 0.5 branch included, at virtual index (n - 1) 0.95."""
    v = (len(d) - 1) * 0.95
    i = min(int(v), len(d) - 2)  # one value: numpy's index -1 twice, and t = 1
    (lo, hi), t = np.partition(d, [i, i + 1])[[i, i + 1]], v - i
    return float(hi - (hi - lo) * (1.0 - t) if t >= 0.5 else lo + (hi - lo) * t)


def select_deltas_95pct(poses: PoseBatch) -> NonparamDeltas:
    """95th percentile (:func:`_p95`) of nearest-neighbor distances, per coordinate pair.

    The (x, y) and (z, f) planes each yield one Euclidean radius (a duplicate
    is at 0), shared by the pair's two axes; rotation uses the geodesic angle.
    The (z, f) radius mixes metres and pixels: the focal spacing sets the depth's.
    """
    n, t, f = len(poses), poses.translation, poses.focal
    if n < 2:
        raise DegenerateFitError("need at least 2 records")
    d_xy = _p95(_nearest_other(t[:, :2], n)[0])
    d_zf = _p95(_nearest_other(np.column_stack([t[:, 2], f]), n)[0])

    # The chordal distance to the nearer of q' and -q' grows with the geodesic
    # angle; a duplicate ties with the point itself, so rows skip i by index.
    # With the sweep column of (c; -c) made non-negative, -c sorts before c.
    q = poses.quat
    c = np.where(q[:, [np.argmax(np.abs(q).max(axis=0))]] < 0.0, -q, q)
    nearest = _nearest_other(np.concatenate([c, -c]), n)[1]
    d_r = _p95(geodesic_angles(q, q[nearest]))
    return NonparamDeltas(d_r, d_xy, d_xy, d_zf, d_zf)


def _sample_in_ellipse(rng: np.random.Generator, ax: float, ay: float,
                       n: int) -> np.ndarray:
    """n uniform points (n, 2) in an axis-aligned ellipse, by rejection from
    its box; rejected rows are redrawn together."""
    out = np.zeros((n, 2))
    if ax == 0 and ay == 0:
        return out
    pending = np.arange(n)
    for _ in range(_MAX_RETRIES):
        p = rng.uniform(-1.0, 1.0, size=(len(pending), 2))
        inside = np.sum(p * p, axis=1) <= 1.0
        out[pending[inside]] = p[inside] * np.array([ax, ay])
        pending = pending[~inside]
        if not len(pending):
            return out
    raise DomainError("ellipse sampling failed to accept a point")


def sample_pose_nonparametric(poses: PoseBatch, deltas: NonparamDeltas, n: int,
                              seed) -> PoseBatch:
    """Bootstrap a pose of ``poses`` and perturb rotation, (x, y), and (z, f).

    Pending rows are drawn in rounds; a row with a non-positive depth or focal,
    or a (numerically) zero rotation axis, is drawn again in the next round.
    """
    if not len(poses):
        raise DomainError("no records to sample from")
    rng = np.random.default_rng(seed)
    rec_q, rec_t, rec_f = poses.quat, poses.translation, poses.focal
    quat, trans, focal = np.empty((n, 4)), np.empty((n, 3)), np.empty(n)
    pending = np.arange(n)
    for _ in range(_MAX_RETRIES):
        m = len(pending)
        pick = rng.integers(len(poses), size=m)
        axis = rng.standard_normal((m, 3))
        angle = rng.uniform(0.0, deltas.delta_r, size=m)
        dxy = _sample_in_ellipse(rng, deltas.delta_x, deltas.delta_y, m)
        dzf = _sample_in_ellipse(rng, deltas.delta_z, deltas.delta_f, m)
        t = rec_t[pick] + np.column_stack([dxy, dzf[:, 0]])
        f = rec_f[pick] + dzf[:, 1]
        ok = (t[:, 2] > 0) & (f > 0) & (np.linalg.norm(axis, axis=1) >= 1e-12)
        rows = pending[ok]
        quat[rows] = quat_multiply(quats_from_axis_angle(axis[ok], angle[ok]), rec_q[pick[ok]])
        trans[rows], focal[rows] = t[ok], f[ok]
        pending = pending[~ok]
        if not len(pending):
            return PoseBatch(quat, trans, focal)
    raise DomainError("perturbation retries exhausted; deltas too large "
                      "for the dataset")


# ---------------------------------------------------------------------------
# Refiner input-noise model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RefinerNoise:
    """Noise scales applied to a ground-truth state to simulate refiner input: standard
    deviations of x-y and z (m), of the focal length relative to it, and of each Euler
    angle (degrees)."""

    sigma_xy: float = 0.01
    sigma_z: float = 0.05
    focal_scale: float = 0.15
    euler_deg: float = 15.0

    def __post_init__(self):
        for name in ("sigma_xy", "sigma_z", "focal_scale", "euler_deg"):
            if not 0 <= getattr(self, name) < np.inf:
                raise DomainError(f"{name} must be finite and non-negative")


def _euler_xyz(rx: float, ry: float, rz: float) -> Rotation:
    return (Rotation.from_axis_angle([0, 0, 1], rz)
            @ Rotation.from_axis_angle([0, 1, 0], ry)
            @ Rotation.from_axis_angle([1, 0, 0], rx))


def sample_refiner_noise(gt: ParamState, seed,
                         noise: RefinerNoise = RefinerNoise()) -> ParamState:
    """Perturbed copy of a ground-truth state; resamples if f or z go non-positive."""
    rng = np.random.default_rng(seed)
    if noise.sigma_xy == 0 and noise.sigma_z == 0 and noise.focal_scale == 0 \
            and noise.euler_deg == 0:
        return gt
    se = np.deg2rad(noise.euler_deg)
    for _ in range(_MAX_RETRIES):
        f = rng.normal(gt.focal, noise.focal_scale * gt.focal)
        t = gt.translation + np.array([rng.normal(0, noise.sigma_xy),
                                       rng.normal(0, noise.sigma_xy),
                                       rng.normal(0, noise.sigma_z)])
        rot = _euler_xyz(*rng.normal(0.0, se, size=3)) @ gt.rotation
        if f > 0 and t[2] > 0:
            return ParamState(rot, t, float(f))
    raise DomainError("refiner-noise resampling retries exhausted")


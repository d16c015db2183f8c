"""Update rules: focal, translation (exact and legacy), rotation, oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posefocal.errors import DomainError
from posefocal.geometry import BBox, CameraIntrinsics, ParamState, Rotation, project_point
from posefocal.update_rules import (DeltaBatch, DeltaTheta, apply_focal_update,
                                    apply_rotation_update, apply_update_batch,
                                    apply_translation_update, apply_update,
                                    init_state, init_state_batch, oracle_delta,
                                    translation_update_batch)


def make_state(x=0.1, y=-0.2, z=1.0, f=600.0, rot=None):
    return ParamState(rot or Rotation.identity(), np.array([x, y, z]), f)


def make_delta(vx=0.0, vy=0.0, vz=1.0, vf=0.0, v_r1=(1, 0, 0), v_r2=(0, 1, 0)):
    return DeltaTheta(vx, vy, vz, np.array(v_r1, float), np.array(v_r2, float), vf)


def random_state(rng):
    return ParamState(Rotation(rng.standard_normal(4)),
                      np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                                rng.uniform(0.3, 3.0)]),
                      rng.uniform(200.0, 1000.0))


# ---------------------------------------------------------------------------
# Focal update
# ---------------------------------------------------------------------------

class TestFocalUpdate:
    def test_identity(self):
        assert apply_focal_update(600.0, 0.0) == pytest.approx(600.0)

    def test_exact_doubling(self):
        assert apply_focal_update(600.0, np.log(2)) == pytest.approx(1200.0)

    @given(st.floats(-5, 5), st.floats(-5, 5))
    @settings(max_examples=100, deadline=None)
    def test_composition_is_additive(self, a, b):
        seq = apply_focal_update(apply_focal_update(600.0, a), b)
        assert seq == pytest.approx(apply_focal_update(600.0, a + b), rel=1e-12)

    @given(st.floats(-20, 20))
    @settings(max_examples=100, deadline=None)
    def test_positivity(self, vf):
        assert apply_focal_update(600.0, vf) > 0


# ---------------------------------------------------------------------------
# Translation updates
# ---------------------------------------------------------------------------

class TestTranslationUpdate:
    def test_identity_update(self):
        state = make_state()
        out = apply_translation_update(state, make_delta(), f_new=state.focal)
        assert np.allclose(out, state.translation)

    def test_hand_evaluated_step(self):
        state = make_state(x=0.1, y=-0.2, z=1.0, f=600.0)
        delta = make_delta(vx=30.0, vy=0.0, vz=1.2)
        out = apply_translation_update(state, delta, f_new=660.0)
        assert out[0] == pytest.approx(108.0 / 660.0)
        assert out[1] == pytest.approx(-144.0 / 660.0)
        assert out[2] == pytest.approx(1.2)

    def test_legacy_hand_evaluated_step(self):
        state = make_state(x=0.1, y=-0.2, z=1.0, f=600.0)
        delta = make_delta(vx=30.0, vy=0.0, vz=1.2)
        out = apply_translation_update(state, delta, f_new=660.0, legacy=True)
        assert out[0] == pytest.approx((30.0 / 660.0 + 0.1) * 1.2)
        assert out[0] == pytest.approx(0.174545, abs=1e-6)

    def test_rules_coincide_when_focal_constant(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            state = random_state(rng)
            delta = make_delta(vx=rng.normal(0, 20), vy=rng.normal(0, 20),
                               vz=np.exp(rng.normal(0, 0.2)))
            exact = apply_translation_update(state, delta, f_new=state.focal)
            legacy = apply_translation_update(state, delta, f_new=state.focal,
                                              legacy=True)
            assert np.allclose(exact, legacy, atol=1e-12)

    def test_zero_shift_with_focal_change_scales_xy_only_in_exact_rule(self):
        state = make_state()
        delta = make_delta(vz=1.0)
        exact = apply_translation_update(state, delta, f_new=900.0)
        legacy = apply_translation_update(state, delta, f_new=900.0, legacy=True)
        assert np.allclose(legacy, state.translation)
        assert np.allclose(exact[:2], state.translation[:2] * 600.0 / 900.0)

    def test_depth_composition_is_multiplicative(self):
        state = make_state()
        out = apply_translation_update(state, make_delta(vz=1.5), state.focal)
        state2 = ParamState(state.rotation, out, state.focal)
        out2 = apply_translation_update(state2, make_delta(vz=0.8), state.focal)
        assert out2[2] == pytest.approx(1.0 * 1.5 * 0.8)

    def test_non_positive_depth_ratio_rejected(self):
        with pytest.raises(DomainError):
            make_delta(vz=0.0)


def both_rules_translation_update(translation, f, vx, vy, vz, f_new, legacy=False):
    """The batched translation update computing both rules for every row and picking
    one per row with np.where, the reference for translation_update_batch."""
    x, y, z = translation.T
    z_new = vz * z
    x_new = np.where(legacy, (vx / f_new + x / z) * z_new, (vx + f * x / z) * z_new / f_new)
    y_new = np.where(legacy, (vy / f_new + y / z) * z_new, (vy + f * y / z) * z_new / f_new)
    return np.column_stack(np.broadcast_arrays(x_new, y_new, z_new))


@pytest.mark.parametrize("n", [1, 7, 500])
def test_translation_update_batch_is_the_both_rules_form(n):
    """Bit for bit, for N rows of every input and for the losses' one translation row
    and scalar focals, with legacy False, True and a mixed mask."""
    rng = np.random.default_rng(n)
    t = np.column_stack([rng.uniform(-0.5, 0.5, (n, 2)), rng.uniform(0.3, 3.0, n)])
    f, f_new = rng.uniform(200.0, 1000.0, (2, n))
    vx, vy = rng.normal(0.0, 50.0, (2, n))
    vz = np.exp(rng.normal(0.0, 0.3, n))
    for args in [(t, f, vx, vy, vz, f_new), (t[:1], f[0], vx, vy, float(vz[0]), f_new[0])]:
        for legacy in (False, True, rng.random(n) < 0.5):
            got = translation_update_batch(*args, legacy=legacy)
            want = both_rules_translation_update(*args, legacy=legacy)
            assert got.shape == want.shape == (n, 3) and got.tobytes() == want.tobytes()


class TestDeltaChecks:
    def test_non_finite_6d_vector_rejected(self):
        with pytest.raises(DomainError, match="v_r1"):
            DeltaTheta(0, 0, 1, [np.nan, 0, 0], [0, 1, 0], 0)

    def test_6d_vector_shape_checked(self):
        with pytest.raises(DomainError, match="v_r2"):
            DeltaTheta(0, 0, 1, [1, 0, 0], [0, 1], 0)

    @pytest.mark.parametrize("quat", [[[1.0, 0, 0, 0], [np.nan, 0, 0, 1]], np.eye(3)[:2],
                                      [[1.0, 0, 0, 0], [0.0, 2.0, 0, 0]], np.zeros((2, 4))],
                             ids=["non-finite", "three-wide", "not-unit", "zero"])
    def test_batch_quaternion_checked(self, quat):
        with pytest.raises(DomainError, match="quat"):
            DeltaBatch(np.zeros(2), np.zeros(2), np.ones(2), quat, np.zeros(2))

    @pytest.mark.parametrize("rows, field", [((2, 3, 3, 3, 3), "vy"), ((3, 1, 3, 3, 3), "vy"),
                                             ((3, 3, 3, 3, 1), "vf"), ((3, 3, 3, 1, 4), "quat")])
    def test_batch_rows_must_agree(self, rows, field):
        """The first field whose row count differs from vx's is named; a field of one row
        is not spread over the others."""
        nx, ny, nz, nq, nf = rows
        with pytest.raises(DomainError, match=rf"^{field} has shape .* vx \({nx},\)$"):
            DeltaBatch(np.zeros(nx), np.zeros(ny), np.ones(nz), np.tile([1.0, 0, 0, 0], (nq, 1)),
                       np.zeros(nf))

    @pytest.mark.parametrize("vx", [0.0, np.zeros((3, 1))], ids=["scalar", "column"])
    def test_batch_fields_are_rows(self, vx):
        with pytest.raises(DomainError, match="^vx has shape"):
            DeltaBatch(vx, np.zeros(3), np.ones(3), np.tile([1.0, 0, 0, 0], (3, 1)), np.zeros(3))

    def test_batch_update_rows_must_match_the_state(self):
        """A one-row update is not spread over a three-row state."""
        state = init_state_batch(np.array([[0.0, 0, 64, 48]] * 3), CameraIntrinsics(600.0))
        one = DeltaBatch([0.0], [0.0], [1.0], [[1.0, 0, 0, 0]], [0.0])
        with pytest.raises(DomainError, match="^update has 1 rows, state has 3$"):
            apply_update_batch(state, one, np.zeros(3, bool))


# ---------------------------------------------------------------------------
# Rotation update
# ---------------------------------------------------------------------------

class TestRotationUpdate:
    def test_identity_left_factor(self):
        rot = Rotation.from_axis_angle([1, 2, 3], 0.7)
        out = apply_rotation_update(rot, [1, 0, 0], [0, 1, 0])
        assert np.allclose(out.as_matrix(), rot.as_matrix())

    def test_composition_of_left_multiplications(self):
        rz45 = Rotation.from_axis_angle([0, 0, 1], np.pi / 4).as_matrix()
        rot = Rotation.from_axis_angle([1, 0, 0], 0.3)
        out = apply_rotation_update(
            apply_rotation_update(rot, rz45[:, 0], rz45[:, 1]),
            rz45[:, 0], rz45[:, 1])
        expected = Rotation.from_axis_angle([0, 0, 1], np.pi / 2) @ rot
        assert np.allclose(out.as_matrix(), expected.as_matrix(), atol=1e-12)


# ---------------------------------------------------------------------------
# Full step, oracle, init
# ---------------------------------------------------------------------------

class TestApplyUpdate:
    def test_identity_delta_is_noop(self):
        state = make_state()
        out = apply_update(state, DeltaTheta.identity())
        assert np.allclose(out.translation, state.translation)
        assert out.focal == pytest.approx(state.focal)
        assert np.allclose(out.rotation.as_matrix(), state.rotation.as_matrix())

    def test_composed_hand_evaluated_step(self):
        state = make_state(x=0.1, y=-0.2, z=1.0, f=600.0)
        delta = make_delta(vx=30.0, vy=0.0, vz=1.2, vf=np.log(660.0 / 600.0))
        out = apply_update(state, delta)
        assert out.focal == pytest.approx(660.0)
        assert np.allclose(out.translation,
                           [108.0 / 660.0, -144.0 / 660.0, 1.2])

    def test_pixel_displacement_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            state = random_state(rng)
            delta = make_delta(vx=rng.normal(0, 30), vy=rng.normal(0, 30),
                               vz=np.exp(rng.normal(0, 0.3)),
                               vf=rng.normal(0, 0.3))
            intr = CameraIntrinsics(state.focal, 0.0, 0.0)
            before = np.asarray(project_point(
                intr, Rotation.identity(), state.translation, np.zeros(3)))
            out = apply_update(state, delta)
            after = np.asarray(project_point(
                CameraIntrinsics(out.focal, 0.0, 0.0), Rotation.identity(),
                out.translation, np.zeros(3)))
            assert np.allclose(after - before, [delta.vx, delta.vy], atol=1e-9)

    def test_legacy_center_term_scaled_by_focal_ratio(self):
        state = make_state()
        delta = make_delta(vz=1.0, vf=np.log(1.1))
        out = apply_update(state, delta, legacy=True)
        carried = out.translation[0] * out.focal / out.translation[2]
        original = state.translation[0] * state.focal / state.translation[2]
        assert carried / original == pytest.approx(1.1)


class TestOracleDelta:
    def test_state_equals_target_gives_identity(self):
        state = make_state()
        delta = oracle_delta(state, state)
        assert delta.vx == pytest.approx(0.0, abs=1e-12)
        assert delta.vy == pytest.approx(0.0, abs=1e-12)
        assert delta.vz == pytest.approx(1.0)
        assert delta.vf == pytest.approx(0.0, abs=1e-12)

    def test_focal_component(self):
        delta = oracle_delta(make_state(f=600.0), make_state(f=660.0))
        assert delta.vf == pytest.approx(np.log(1.1))
        assert delta.vf == pytest.approx(0.09531, abs=1e-5)

    def test_round_trip_on_random_pairs(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(1000):
            state, target = random_state(rng), random_state(rng)
            out = apply_update(state, oracle_delta(state, target))
            worst = max(worst,
                        np.abs(out.translation - target.translation).max(),
                        abs(out.focal - target.focal) / target.focal,
                        np.abs(out.rotation.as_matrix()
                               - target.rotation.as_matrix()).max())
        assert worst <= 1e-9


class TestInitState:
    def test_defaults(self):
        state = init_state(BBox(-10, -10, 10, 10), CameraIntrinsics(600.0, 0, 0))
        assert state.focal == 600.0
        assert state.translation[2] == 1.0
        assert np.allclose(state.rotation.as_matrix(), np.eye(3))

    def test_centered_bbox_gives_zero_xy(self):
        state = init_state(BBox(-30, -20, 30, 20), CameraIntrinsics(600.0, 0, 0))
        assert np.allclose(state.translation[:2], 0.0)

    def test_offset_bbox_back_projects(self):
        state = init_state(BBox(30, 0, 90, 60), CameraIntrinsics(600.0, 0, 0))
        assert state.translation[0] == pytest.approx(0.1)
        assert state.translation[1] == pytest.approx(0.05)

    BOXES = [(30, 0, 90, 60), (-250, -40, -10, 300), (400.5, 200.25, 401.5, 700.0)]

    @pytest.mark.parametrize("box", BOXES)
    def test_projects_onto_box_center_off_principal_point(self, box):
        intr = CameraIntrinsics(750.0, 320.5, -241.0)
        state = init_state(BBox(*box), intr)
        uv = project_point(intr, state.rotation, state.translation, np.zeros(3))
        assert uv == pytest.approx([0.5 * (box[0] + box[2]), 0.5 * (box[1] + box[3])],
                                   rel=0, abs=1e-9)
        assert state.translation[2] == 1.0 and state.focal == 750.0

    def test_batch_rows_project_onto_box_centers(self):
        intr = CameraIntrinsics(750.0, 320.5, -241.0)
        poses = init_state_batch(np.array(self.BOXES, dtype=float), intr)
        assert len(poses) == len(self.BOXES)
        assert np.array_equal(poses.quat, np.tile([1.0, 0, 0, 0], (len(self.BOXES), 1)))
        assert np.array_equal(poses.translation[:, 2], np.ones(len(self.BOXES)))
        assert np.array_equal(poses.focal, np.full(len(self.BOXES), 750.0))
        for i, box in enumerate(self.BOXES):
            uv = project_point(intr, Rotation.identity(), poses.translation[i], np.zeros(3))
            assert uv == pytest.approx([0.5 * (box[0] + box[2]), 0.5 * (box[1] + box[3])],
                                       rel=0, abs=1e-9)

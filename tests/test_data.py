import json
import os
import re
import stat

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from respalloc.data import (WEAVING_KINDS, DesiredPolicyParams, InteractionSample,
                            SampleSet, ScenarioConfig, TrajectoryFormatError,
                            WeavingConfig, active_fraction, atomic_write, augment,
                            default_planar_group_config,
                            default_two_agent_config, desired_controls_weaving,
                            desired_lateral_control,
                            desired_longitudinal_control, export_csv,
                            generate_synthetic, generate_weaving_trajectories,
                            load_trajectories, planar_group_scene, read_header,
                            resolve_gamma_truth, save_trajectories,
                            speed_advantage_gamma, two_agent_line_scene,
                            weaving_scene)
from respalloc.filter_qp import solve_filter
from respalloc.models import ConstantGamma, RelativeSymmetricGamma, init_model
from respalloc.training import TrainConfig, loss, prepare_batch

from oracles import (csv_reference, ndjson_reference, synthetic_draws_reference,
                     weaving_rollout_reference)

PARAMS = DesiredPolicyParams()


# -- desired-control policies ---------------------------------------------------


def test_lateral_policy_zero_at_target():
    x = np.array([3.0, 1.85, 10.0, 0.0])
    assert desired_lateral_control(x, PARAMS, 1.85) == 0.0


def test_lateral_policy_value():
    # -(0 + 4.7) * 0.022 * tanh(0.8 * 3) evaluated directly.
    x = np.array([0.0, 3.0, 10.0, 0.0])
    val = desired_lateral_control(x, PARAMS, 0.0)
    assert val == pytest.approx(-4.7 * 0.022 * np.tanh(2.4), abs=1e-12)
    assert val == pytest.approx(-0.1017, abs=2e-4)


def test_lateral_policy_odd_in_error():
    x_hi = np.array([0.0, 3.0, 10.0, 0.0])
    x_lo = np.array([0.0, -3.0, 10.0, 0.0])
    assert desired_lateral_control(x_hi, PARAMS, 0.0) == pytest.approx(
        -desired_lateral_control(x_lo, PARAMS, 0.0), abs=1e-12)


def test_longitudinal_policy_branches():
    assert desired_longitudinal_control(np.array([5.0, 0.0, -3.0, 0.0])) == 0.0
    # Far ahead and being caught: saturates at the limit.
    val = desired_longitudinal_control(np.array([-10.0, 0.0, 1.0, 0.0]))
    assert val == pytest.approx(2.0, abs=1e-6)
    # Boundary r_lon = 0 takes the speed-up branch: tanh(0) = 0 gives limit/2.
    assert desired_longitudinal_control(np.array([0.0, 0.0, 5.0, 0.0])) == \
        pytest.approx(1.0)


@settings(max_examples=50, deadline=None)
@given(st.floats(-50, 50), st.floats(-10, 10), st.floats(-20, 20),
       st.floats(-8, 8))
def test_policy_bounds(r_lon, vr_lon, x_lon, x_lat):
    lon = desired_longitudinal_control(np.array([r_lon, 0.0, vr_lon, 0.0]))
    assert 0.0 <= lon <= PARAMS.lon_limit
    lat = desired_lateral_control(np.array([x_lon, x_lat, 10.0, 0.0]), PARAMS, 1.85)
    assert abs(lat) <= abs(x_lon + PARAMS.lon_offset) * PARAMS.lat_gain + 1e-12


def test_policies_on_a_batch_equal_per_state_calls():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(200, 8)) * np.array([20.0, 2.0, 10.0, 1.0] * 2)
    X[:3, 4] = X[:3, 0]                         # r_lon = 0 on the boundary branch
    per_state = np.array([desired_controls_weaving(x, PARAMS) for x in X])
    np.testing.assert_array_equal(desired_controls_weaving(X, PARAMS), per_state)
    np.testing.assert_array_equal(
        desired_longitudinal_control(X[:, 4:] - X[:, :4], PARAMS),
        [desired_longitudinal_control(x[4:] - x[:4], PARAMS) for x in X])
    np.testing.assert_array_equal(
        desired_lateral_control(X[:, :4], PARAMS, 1.85),
        [desired_lateral_control(x[:4], PARAMS, 1.85) for x in X])
    assert per_state.shape == (200, 2, 2)
    assert isinstance(desired_lateral_control(X[0, :4], PARAMS, 1.85), float)
    assert isinstance(desired_longitudinal_control(X[0, :4], PARAMS), float)


@pytest.mark.parametrize("params", [PARAMS, DesiredPolicyParams(lat_targets=(1.85, -1.85)),
                                    DesiredPolicyParams(lon_offset=-2.0, lat_targets=(0.3, 4.0))])
@pytest.mark.parametrize("seed", range(3))
def test_both_cars_in_one_pass_equal_the_per_car_policies(params, seed):
    def per_car(x):
        x1, x2 = x[:4], x[4:]
        return [[desired_longitudinal_control(x2 - x1, params),
                 desired_lateral_control(x1, params, params.lat_targets[0])],
                [desired_longitudinal_control(x1 - x2, params),
                 desired_lateral_control(x2, params, params.lat_targets[1])]]

    rng = np.random.default_rng(seed)
    X = rng.normal(size=(300, 8)) * np.array([20.0, 2.0, 10.0, 1.0] * 2)
    X[:5, 4] = X[:5, 0]                         # r_lon = 0 on the boundary branch
    reference = np.array([per_car(x) for x in X])
    np.testing.assert_array_equal(desired_controls_weaving(X, params), reference)
    for x, ref in zip(X[:20], reference):
        np.testing.assert_array_equal(desired_controls_weaving(x, params), ref)


# -- i.i.d. synthetic -----------------------------------------------------------


def test_zero_noise_samples_reproduce_filter_output():
    scene = two_agent_line_scene()
    cfg = default_two_agent_config(n_samples=32, noise_variance=0.0, seed=3)
    gamma = np.array([0.3, 0.7])
    for s in generate_synthetic(cfg, scene, gamma):
        sol = solve_filter(scene.build_problem(s.x, s.u_des.ravel(), gamma))
        np.testing.assert_allclose(s.u.ravel(), sol.u, atol=1e-12)


def test_synthetic_counts_and_determinism():
    scene = two_agent_line_scene()
    cfg = default_two_agent_config(n_samples=128, seed=5)
    a = generate_synthetic(cfg, scene, np.array([0.3, 0.7]))
    b = generate_synthetic(cfg, scene, np.array([0.3, 0.7]))
    assert len(a) == 128
    assert all(np.array_equal(x.u, y.u) and np.array_equal(x.x, y.x)
               for x, y in zip(a, b))


def test_default_boxes_keep_constraint_frequently_active():
    scene = two_agent_line_scene()
    cfg = default_two_agent_config(n_samples=128, seed=0)
    samples = generate_synthetic(cfg, scene, np.array([0.3, 0.7]))
    assert active_fraction(samples, scene, [0.3, 0.7]) >= 0.4
    scene6 = planar_group_scene(6)
    g6 = np.random.default_rng(0).dirichlet(np.ones(6))
    cfg6 = default_planar_group_config(6, n_samples=64, seed=0)
    assert active_fraction(generate_synthetic(cfg6, scene6, g6), scene6, g6) >= 0.4


def test_active_fraction_takes_every_truth_kind():
    scene = two_agent_line_scene()
    gamma = np.array([0.2, 0.8])
    cfg = default_two_agent_config(n_samples=48, seed=4)
    samples = generate_synthetic(cfg, scene, gamma)
    share = active_fraction(samples, scene, gamma)
    assert active_fraction(samples, scene, lambda k, x: gamma) == share
    assert active_fraction(samples, scene, ConstantGamma(2, params=np.log(gamma))) == \
        pytest.approx(share)
    # A schedule is indexed by position in the sample list.
    flip = active_fraction(samples, scene, lambda k, x: gamma if k < 24 else gamma[::-1])
    assert flip == (active_fraction(samples[:24], scene, gamma) * 24
                    + active_fraction(samples[24:], scene, gamma[::-1]) * 24) / 48


def test_schedule_shift_is_detectable_in_the_data():
    # Step change in the truth mid-dataset: the deviation split differs
    # between halves, measured by re-solving each half under both values.
    scene = two_agent_line_scene()
    cfg = default_two_agent_config(n_samples=128, noise_variance=0.0, seed=9)

    def schedule(k, x):
        return np.array([0.2, 0.8]) if k < 64 else np.array([0.8, 0.2])

    samples = generate_synthetic(cfg, scene, schedule)

    def half_mismatch(chunk, gamma):
        err = 0.0
        for s in chunk:
            sol = solve_filter(scene.build_problem(s.x, s.u_des.ravel(), gamma))
            err += float(np.sum((s.u.ravel() - sol.u) ** 2))
        return err

    first, second = samples[:64], samples[64:]
    assert half_mismatch(first, np.array([0.2, 0.8])) < 1e-12
    assert half_mismatch(second, np.array([0.8, 0.2])) < 1e-12
    assert half_mismatch(first, np.array([0.8, 0.2])) > 1e-3
    assert half_mismatch(second, np.array([0.2, 0.8])) > 1e-3


def test_scenario_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(np.zeros(2), np.ones(2), np.zeros(2), np.ones(2),
                       n_samples=0)
    for bad in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="noise_variance must be nonnegative and finite"):
            ScenarioConfig(np.zeros(2), np.ones(2), np.zeros(2), np.ones(2),
                           noise_variance=bad)
        with pytest.raises(ValueError, match="noise_variance must be nonnegative and finite"):
            WeavingConfig(noise_variance=bad)
    for bad in (0, -3):
        with pytest.raises(ValueError, match="steps must be at least 1"):
            WeavingConfig(steps=bad)
    for bad in (0.0, -0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            WeavingConfig(dt=bad)
    # A point box (low == high) is legal and always draws that point.
    point = ScenarioConfig(np.ones(2), np.ones(2), np.zeros(2), np.zeros(2), n_samples=3)
    samples = generate_synthetic(point, two_agent_line_scene(), [0.5, 0.5])
    assert all(np.array_equal(s.x, [1.0, 1.0]) for s in samples)


@pytest.mark.parametrize("make", [two_agent_line_scene, weaving_scene,
                                  lambda **kw: planar_group_scene(3, **kw)])
def test_scene_rejects_bad_filter_weights(make):
    for beta1 in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="beta1 must be nonnegative and finite"):
            make(beta1=beta1)
    for beta2 in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="beta2 must be positive and finite"):
            make(beta2=beta2)
    assert make(beta1=0.0).beta1 == 0.0


@pytest.mark.parametrize("field,value,message", [
    ("state_low", [0.0, -np.inf], "state_low holds a NaN or infinite entry"),
    ("state_high", [np.nan, 1.0], "state_high holds a NaN or infinite entry"),
    ("udes_high", [1.0, np.inf], "udes_high holds a NaN or infinite entry"),
    ("state_high", [1.0, 1.0, 1.0], "state_low and state_high must be vectors of one shape"),
    ("udes_low", [[0.0, 0.0]], "udes_low and udes_high must be vectors of one shape"),
    ("udes_low", 0.0, "udes_low and udes_high must be vectors of one shape"),
    ("state_low", [0.0, 2.0], "state_low exceeds state_high at entry 1"),
    ("udes_high", [1.0, -0.5], "udes_low exceeds udes_high at entry 1"),
])
def test_scenario_config_rejects_bad_boxes_naming_the_field(field, value, message):
    boxes = {"state_low": np.zeros(2), "state_high": np.ones(2),
             "udes_low": np.zeros(2), "udes_high": np.ones(2)}
    boxes[field] = value
    with pytest.raises(ValueError, match=message):
        ScenarioConfig(**boxes)


@pytest.mark.parametrize("make", [
    lambda seed: (default_two_agent_config(n_samples=40, seed=seed),
                  two_agent_line_scene(), np.array([0.3, 0.7])),
    lambda seed: (default_planar_group_config(6, n_samples=12, seed=seed),
                  planar_group_scene(6), np.full(6, 1.0 / 6.0)),
], ids=["line", "planar6"])
@pytest.mark.parametrize("seed", [0, 7, 123])
def test_synthetic_draws_follow_the_per_sample_uniform_reference(make, seed):
    cfg, scene, gamma = make(seed)
    samples = generate_synthetic(cfg, scene, gamma)
    X, U_des, noise = synthetic_draws_reference(cfg, scene.system.control_dim_total)
    U = (solve_filter(scene.problem(scene.assemble(X), U_des,
                                    np.tile(gamma, (len(X), 1)))).u
         + float(np.sqrt(cfg.noise_variance)) * noise)
    n = len(scene.system.control_dims)
    np.testing.assert_array_equal(np.array([s.x for s in samples]), X)
    np.testing.assert_array_equal(np.array([s.u_des for s in samples]),
                                  U_des.reshape(len(X), n, -1))
    np.testing.assert_array_equal(np.array([s.u for s in samples]), U.reshape(len(X), n, -1))
    assert [s.trajectory_id for s in samples] == list(range(cfg.n_samples))


def test_truths_resolve_on_arrays_as_per_row_calls():
    rng = np.random.default_rng(2)
    states = rng.normal(size=(9, 4))
    gamma = np.array([0.25, 0.75])
    const = resolve_gamma_truth(gamma, range(9), states)
    assert const.shape == (9, 2)
    np.testing.assert_array_equal(const, resolve_gamma_truth(lambda k, x: gamma,
                                                             range(9), states))
    np.testing.assert_array_equal(const, np.tile(gamma, (9, 1)))
    # A callable sees each row's own k and state; a model all states at once.
    seen = resolve_gamma_truth(lambda k, x: [k, x[0]], [5] * 4 + list(range(5)), states)
    np.testing.assert_array_equal(seen, np.c_[[5] * 4 + list(range(5)), states[:, 0]])
    model = init_model("relative", seed=0, context_dim=4)
    batched = resolve_gamma_truth(model, range(9), states)
    np.testing.assert_array_equal(batched, model.gamma_batch(states))
    # BLAS rounds a batched forward apart from per-state ones by an ulp or so.
    np.testing.assert_allclose(batched, [model.gamma(x) for x in states], rtol=0, atol=1e-15)


def test_speed_advantage_truth_on_arrays_equals_per_row_calls():
    R = np.random.default_rng(3).normal(size=(200, 4), scale=3.0)
    truth = speed_advantage_gamma(0.7, 0.3)
    rows = np.array([truth(k, r) for k, r in enumerate(R)])
    np.testing.assert_array_equal(truth.gamma_batch(R), rows)
    np.testing.assert_array_equal(resolve_gamma_truth(truth, range(len(R)), R), rows)
    # The per-row formula on scalars.
    g1 = np.array([0.5 - 0.3 * np.tanh(0.7 * r[2]) for r in R])
    np.testing.assert_array_equal(rows, np.c_[g1, 1.0 - g1])


# -- weaving rollouts -----------------------------------------------------------


def test_single_weaving_trajectory_completes_lane_swap():
    w = generate_weaving_trajectories("single", 1, seed=0)
    xs = np.array([s.x for s in w])
    assert len(w) == 150
    assert np.abs(xs[:, 1] - 1.85).min() < 0.5     # lower car reaches upper lane
    assert np.abs(xs[:, 5] + 1.85).min() < 0.5     # upper car reaches lower lane


def test_rear_overtake_shows_longitudinal_yielding():
    # Noise-free: recorded controls are exactly the filter output, so the
    # slower car's executed longitudinal control dropping below its desired
    # is the filter (not noise) making it yield.
    w = generate_weaving_trajectories(
        "rear_overtake", 1, seed=0, config=WeavingConfig(noise_variance=0.0))
    gap = np.array([s.u[0, 0] - s.u_des[0, 0] for s in w])
    assert gap.min() < -0.2


def test_side_by_side_ordering_is_bimodal_across_seeds():
    finals = []
    for seed in range(30):
        w = generate_weaving_trajectories(
            "side_by_side", 1, seed=seed,
            config=WeavingConfig(steps=100, noise_variance=0.1))
        x_last = w[-1].x
        finals.append(x_last[4] - x_last[0])
    finals = np.array(finals)
    assert (finals > 1.0).sum() >= 5
    assert (finals < -1.0).sum() >= 5


def test_weaving_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown weaving kind"):
        generate_weaving_trajectories("zigzag", 1)


def test_mixed_kind_alternates_and_groups_ids():
    w = generate_weaving_trajectories("mixed", 4, seed=2,
                                      config=WeavingConfig(steps=10))
    ids = sorted({s.trajectory_id for s in w})
    assert ids == [0, 1, 2, 3]
    assert len(w) == 40


@pytest.mark.parametrize("kind", WEAVING_KINDS)
@pytest.mark.parametrize("noise", [0.0, 0.05])
@pytest.mark.parametrize("count", [1, 3])
def test_rollout_equals_the_per_step_reference(kind, noise, count):
    config = WeavingConfig(noise_variance=noise)
    for seed in (0, 4, 11):
        fast = generate_weaving_trajectories(kind, count, seed=seed, config=config)
        slow = weaving_rollout_reference(kind, count, seed=seed, config=config)
        assert len(fast) == len(slow) == count * config.steps
        for f, s in zip(fast, slow):
            np.testing.assert_array_equal(f.x, s.x)
            np.testing.assert_array_equal(f.u, s.u)
            np.testing.assert_array_equal(f.u_des, s.u_des)
            assert f.t == s.t and f.trajectory_id == s.trajectory_id


# -- augmentations ----------------------------------------------------------------


def _tiny_weaving(n=12):
    return generate_weaving_trajectories(
        "single", 1, seed=1, config=WeavingConfig(steps=n, noise_variance=0.05))


def _partly_desired(samples):
    """Copies of ``samples`` in which every third one lacks desired controls."""
    return [InteractionSample(x=s.x.copy(), u=s.u.copy(),
                              u_des=None if k % 3 == 0 else s.u_des.copy(),
                              t=s.t, trajectory_id=s.trajectory_id)
            for k, s in enumerate(samples)]


def _assert_same_samples(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g.x, w.x)
        np.testing.assert_array_equal(g.u, w.u)
        assert (g.u_des is None) == (w.u_des is None)
        if w.u_des is not None:
            np.testing.assert_array_equal(g.u_des, w.u_des)
        assert g.t == w.t and g.trajectory_id == w.trajectory_id


def test_mirror_augmentation_is_involutive_and_doubles():
    assert len(augment([], "mirror_lateral")) == 0
    for base in (_tiny_weaving(), _partly_desired(_tiny_weaving())):
        once = augment(base, "mirror_lateral")
        assert len(once) == 2 * len(base)
        _assert_same_samples(once[:len(base)], base)
        for orig, copy in zip(base, once[len(base):]):
            assert not np.shares_memory(orig.x, copy.x)
            np.testing.assert_array_equal(copy.x[[0, 2, 4, 6]], orig.x[[0, 2, 4, 6]])
            np.testing.assert_array_equal(copy.x[[1, 3, 5, 7]], -orig.x[[1, 3, 5, 7]])
            np.testing.assert_array_equal(copy.u, orig.u * [1.0, -1.0])
            assert (copy.u_des is None) == (orig.u_des is None)
            if orig.u_des is not None:
                np.testing.assert_array_equal(copy.u_des, orig.u_des * [1.0, -1.0])
        twice = augment(once[len(base):], "mirror_lateral")
        _assert_same_samples(twice[len(base):], base)


def test_swap_augmentation_negates_relative_state():
    assert len(augment([], "swap_agents")) == 0
    scene = weaving_scene()
    for base in (_tiny_weaving(), _partly_desired(_tiny_weaving())):
        out = augment(base, "swap_agents")
        assert len(out) == 2 * len(base)
        for orig, swapped in zip(base, out[len(base):]):
            np.testing.assert_allclose(scene.filter_state(swapped.x),
                                       -scene.filter_state(orig.x), atol=1e-12)
            np.testing.assert_array_equal(swapped.u[0], orig.u[1])
            np.testing.assert_array_equal(swapped.u[1], orig.u[0])
            assert (swapped.u_des is None) == (orig.u_des is None)
            if orig.u_des is not None:
                np.testing.assert_array_equal(swapped.u_des[0], orig.u_des[1])
                np.testing.assert_array_equal(swapped.u_des[1], orig.u_des[0])
            assert swapped.t == orig.t and swapped.trajectory_id == orig.trajectory_id
        _assert_same_samples(augment(out[len(base):], "swap_agents")[len(base):], base)


def test_augment_rejects_incompatible_layouts():
    scene = two_agent_line_scene()
    cfg = default_two_agent_config(n_samples=2, seed=0)
    samples = generate_synthetic(cfg, scene, np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="two-agent"):
        augment(samples, "mirror_lateral")
    with pytest.raises(ValueError, match="unknown augmentation"):
        augment(_tiny_weaving(2), "rotate")


def test_symmetric_model_loss_invariant_under_swap_augmentation():
    # The filter commutes with relabeling the two agents, and a symmetric
    # model's allocation swaps with them, so appending swapped copies cannot
    # change the mean loss.
    base = _tiny_weaving(20)
    scene = weaving_scene()
    model = RelativeSymmetricGamma(4, rng=np.random.default_rng(8))
    config = TrainConfig(epochs=1, batch_size=8)
    plain = loss(base, model, scene, config)
    swapped = loss(augment(base, "swap_agents"), model, scene, config)
    assert swapped == pytest.approx(plain, abs=1e-9)


# -- trajectory files --------------------------------------------------------------


def test_save_load_roundtrip_bit_exact(tmp_path):
    samples = _tiny_weaving()
    path = tmp_path / "traj.ndjson"
    save_trajectories(samples, path, scenario="single")
    header = read_header(path)
    assert header["scenario"] == "single"
    assert header["n_agents"] == 2 and header["state_dim"] == 8
    loaded = load_trajectories(path)
    assert len(loaded) == len(samples)
    for a, b in zip(samples, loaded):
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.u_des, b.u_des)
        assert a.t == b.t and a.trajectory_id == b.trajectory_id


def test_a_weaving_file_without_desired_controls_recomputes_them(tmp_path):
    samples = _tiny_weaving()
    path = tmp_path / "bare.ndjson"
    save_trajectories([InteractionSample(x=s.x, u=s.u, t=s.t, trajectory_id=s.trajectory_id)
                       for s in samples], path, scenario="single")
    loaded = load_trajectories(path)
    assert all(s.u_des is None for s in loaded)
    scene = weaving_scene()
    np.testing.assert_array_equal(prepare_batch(loaded, scene, 4).u_des,
                                  prepare_batch(samples, scene, 4).u_des)


def test_a_line_sample_without_desired_controls_is_an_error():
    sample = InteractionSample(x=np.array([0.0, 2.0]), u=np.zeros((2, 1)))
    with pytest.raises(ValueError, match="sample lacks desired controls"):
        prepare_batch([sample], two_agent_line_scene(), 0)


def test_loader_rejects_nonfinite_values_naming_the_record(tmp_path):
    path = tmp_path / "bad.ndjson"
    save_trajectories(_tiny_weaving(3), path)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[2])
    rec["x"][2] = float("nan")
    lines[2] = json.dumps(rec)          # json writes the token NaN
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TrajectoryFormatError, match="record 1"):
        load_trajectories(path)


def test_loader_rejects_shape_mismatch_with_position(tmp_path):
    samples = _tiny_weaving(3)
    path = tmp_path / "bad.ndjson"
    save_trajectories(samples, path)
    lines = path.read_text().splitlines()
    import json as _json
    rec = _json.loads(lines[2])
    rec["x"] = rec["x"][:-1]
    lines[2] = _json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TrajectoryFormatError, match=r"record 1 \(line 3\)"):
        load_trajectories(path)


@pytest.mark.parametrize("key,value,message", [
    ("t", float("nan"), "t must be a finite number, got nan"),
    ("t", float("inf"), "t must be a finite number, got inf"),
    ("t", "0.5", "t must be a finite number, got '0.5'"),
    ("t", "x", "t must be a finite number, got 'x'"),
    ("t", True, "t must be a finite number, got True"),
    ("trajectory_id", 1.7, "trajectory_id must be an integer, got 1.7"),
    ("trajectory_id", True, "trajectory_id must be an integer, got True"),
    ("trajectory_id", "x", "trajectory_id must be an integer, got 'x'"),
    ("u_des", [[0.0, 0.0]], r"u_des has shape \(1, 2\), header says \(2, 2\)"),
    ("x", "x", "x is not an array of numbers"),
    ("x", ["1.5"] + [1.0] * 7, "x is not an array of numbers"),
    ("x", [True] + [1.0] * 7, "x is not an array of numbers"),
    ("u", [[1.0, False], [0.0, 0.0]], "u is not an array of numbers"),
    ("u_des", [[0.0, 0.0], ["2", 0.0]], "u_des is not an array of numbers"),
    ("udes", [[0.0, 0.0], [0.0, 0.0]], "unknown field 'udes'"),
], ids=["t-nan", "t-inf", "t-str", "t-x", "t-true", "id-float", "id-true", "id-x",
        "u_des-shape", "x-str", "x-numeric-str", "x-true", "u-false", "u_des-str",
        "udes-unknown"])
def test_loader_requires_json_numbers_naming_the_record(key, value, message, tmp_path):
    path = tmp_path / "bad.ndjson"
    save_trajectories(_tiny_weaving(3), path)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[2])
    rec[key] = value
    lines[2] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TrajectoryFormatError, match=r"record 1 \(line 3\): " + message):
        load_trajectories(path)


@pytest.mark.parametrize("record", ["5", json.dumps(["trajectory_id", "t", "x", "u"])],
                         ids=["number", "list-of-field-names"])
def test_loader_rejects_a_record_that_is_not_an_object(record, tmp_path):
    path = tmp_path / "bad.ndjson"
    save_trajectories(_tiny_weaving(3), path)
    lines = path.read_text().splitlines()
    lines[2] = record
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TrajectoryFormatError,
                       match=r"record 1 \(line 3\): record must be a JSON object"):
        load_trajectories(path)


@pytest.mark.parametrize("key,message", [
    ("t", "t must be a finite number, got 1000"),
    ("x", "non-finite value in x"),
    ("u", "non-finite value in u"),
], ids=["t", "x", "u"])
def test_loader_rejects_integers_beyond_float_range(key, message, tmp_path):
    path = tmp_path / "bad.ndjson"
    save_trajectories(_tiny_weaving(3), path)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[2])
    if key == "t":
        rec["t"] = 10 ** 400
    elif key == "x":
        rec["x"][2] = 10 ** 400
    else:
        rec["u"][1][0] = -10 ** 400
    lines[2] = json.dumps(rec)          # an integer literal of 401 digits
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TrajectoryFormatError, match=r"record 1 \(line 3\): " + message):
        load_trajectories(path)


def _with_header(tmp_path, header):
    """A saved file whose header line is replaced by ``header`` (a JSON value)."""
    path = tmp_path / "header.ndjson"
    save_trajectories(_tiny_weaving(2), path)
    lines = path.read_text().splitlines()
    if isinstance(header, dict):
        header = {**json.loads(lines[0]), **header}
    lines[0] = json.dumps(header)
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("header,message", [
    (5, "header must be a JSON object, got 5"),
    (["version", "n_agents", "state_dim", "control_dim", "scenario"],
     "header must be a JSON object"),
    ({"state_dim": "8"}, "header state_dim must be a nonnegative integer, got '8'"),
    ({"n_agents": -1}, "header n_agents must be a nonnegative integer, got -1"),
    ({"n_agents": True}, "header n_agents must be a nonnegative integer, got True"),
    ({"control_dim": 2.0}, "header control_dim must be a nonnegative integer, got 2.0"),
    ({"control_dim": None}, "header control_dim must be a nonnegative integer, got None"),
], ids=["number", "list", "state_dim-str", "n_agents-negative", "n_agents-true",
        "control_dim-float", "control_dim-null"])
def test_header_dimensions_must_be_nonnegative_json_integers(header, message, tmp_path):
    # A float dimension such as 2.0 is refused too: the writer always writes
    # integers, and the header is the one place that states the shapes.
    path = _with_header(tmp_path, header)
    for read in (read_header, load_trajectories):
        with pytest.raises(TrajectoryFormatError, match=re.escape(f"{path}: {message}")):
            read(path)


def test_loader_reports_the_first_bad_record_before_a_later_bad_line(tmp_path):
    path = tmp_path / "bad.ndjson"
    save_trajectories(_tiny_weaving(5), path)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[2])
    rec["u"] = rec["u"][:1]
    lines[2] = json.dumps(rec)
    lines[4] = lines[4][:-1]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TrajectoryFormatError,
                       match=r"record 1 \(line 3\): u has shape \(1, 2\)"):
        load_trajectories(path)
    lines[2] = lines[3]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TrajectoryFormatError, match=r"record 3 \(line 5\): invalid JSON"):
        load_trajectories(path)


def test_loader_keeps_the_last_value_of_a_repeated_key(tmp_path):
    # A repeated key adds quotes that no string value made. A value that a
    # later one replaces is not checked; a string or boolean that stays is.
    path = tmp_path / "dup.ndjson"
    samples = _tiny_weaving(3)
    save_trajectories(samples, path)
    lines = path.read_text().splitlines()
    record = lines[2][1:-1]
    x = samples[1].x + 1.0
    for first, last, want in (("", f', "x": {x.tolist()}', x),
                              ('"x": "abc", ', "", samples[1].x),
                              ('"u_des": [[true, 0.0], [0.0, 0.0]], ', "", samples[1].x)):
        lines[2] = "{" + first + record + last + "}"
        path.write_text("\n".join(lines) + "\n")
        loaded = load_trajectories(path)
        np.testing.assert_array_equal(loaded.x[1], want)
        np.testing.assert_array_equal(loaded.u_des[1], samples[1].u_des)
    for last, message in ((', "x": "abc"', "x is not an array of numbers"),
                          (', "t": true', "t must be a finite number")):
        lines[2] = "{" + record + last + "}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TrajectoryFormatError, match=r"record 1 \(line 3\): " + message):
            load_trajectories(path)


@pytest.mark.parametrize("field,row", [("t", 1), ("x", 2), ("u", 5), ("u_des", 4)])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_writer_refuses_nonfinite_values_and_leaves_the_file(field, row, bad, tmp_path):
    # Sample 3 lacks desired controls, so its u_des row holds NaN in the set.
    path = tmp_path / "kept.ndjson"
    path.write_text("kept\n")
    samples = _partly_desired(_tiny_weaving(6))
    if field == "t":
        samples[row].t = bad
    else:
        getattr(samples[row], field).flat[1] = bad
    with pytest.raises(ValueError, match=f"sample {row}: non-finite value in {field};"):
        save_trajectories(samples, path)
    with pytest.raises(ValueError, match=f"sample {row}: non-finite value in {field};"):
        save_trajectories(SampleSet.from_samples(samples), path)
    assert path.read_text() == "kept\n"


@pytest.mark.parametrize("field,shape", [("x", (7,)), ("u", (2, 1)), ("u_des", (1, 2))])
def test_writer_refuses_samples_of_another_shape(field, shape, tmp_path):
    path = tmp_path / "kept.ndjson"
    path.write_text("kept\n")
    samples = list(_tiny_weaving(4))
    setattr(samples[2], field, np.zeros(shape))
    with pytest.raises(ValueError, match=rf"sample 2: {field} has shape {re.escape(str(shape))}"):
        save_trajectories(samples, path)
    assert path.read_text() == "kept\n"


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
def test_written_files_get_the_mode_of_a_plain_open(umask, mode, tmp_path):
    old = os.umask(umask)
    try:
        atomic_write(tmp_path / "a.txt", "text\n")
        save_trajectories(_tiny_weaving(2), tmp_path / "b.ndjson")
        with open(tmp_path / "c.txt", "w") as fh:
            fh.write("text\n")
    finally:
        os.umask(old)
    for name in ("a.txt", "b.ndjson", "c.txt"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "b.ndjson", "c.txt"]


def _writer_cases():
    planar = generate_synthetic(default_planar_group_config(6, n_samples=10, seed=4),
                                planar_group_scene(6), np.full(6, 1.0 / 6.0))
    weave = augment(generate_weaving_trajectories(
        "mixed", 2, seed=5, config=WeavingConfig(steps=30, noise_variance=0.05)),
        "mirror_lateral")
    line = generate_synthetic(default_two_agent_config(n_samples=40, seed=2),
                              two_agent_line_scene(), np.array([0.4, 0.6]))
    return {"line": line, "planar6": planar, "weave": weave,
            "weave-partly": _partly_desired(weave), "empty": []}


@pytest.mark.parametrize("name", ["line", "planar6", "weave", "weave-partly", "empty"])
def test_writers_equal_the_per_sample_reference(name, tmp_path):
    samples = _writer_cases()[name]
    objects = list(samples)
    save_trajectories(samples, tmp_path / "a.ndjson", scenario=name, extra_header={"k": 1})
    assert (tmp_path / "a.ndjson").read_text() == ndjson_reference(objects, name, {"k": 1})
    export_csv(samples, tmp_path / "a.csv", header_comment="c")
    assert (tmp_path / "a.csv").read_text() == csv_reference(objects, "c")
    loaded = load_trajectories(tmp_path / "a.ndjson")
    _assert_same_samples(loaded, objects)
    _assert_same_samples(SampleSet.from_samples(objects), objects)


def test_sample_set_views_and_slices():
    w = _partly_desired(_tiny_weaving(12))
    s = SampleSet.from_samples(w)
    assert SampleSet.from_samples(s) is s
    assert len(s) == 12 and s.x.shape == (12, 8) and s.u_des.shape == (12, 2, 2)
    np.testing.assert_array_equal(s.has_u_des, [k % 3 != 0 for k in range(12)])
    assert np.isnan(s.u_des[0]).all()
    _assert_same_samples(list(s), w)
    row = s[-2]
    assert isinstance(row, InteractionSample) and row.trajectory_id == w[10].trajectory_id
    assert np.shares_memory(row.x, s.x) and np.shares_memory(row.u_des, s.u_des)
    assert s[3].u_des is None
    with pytest.raises(IndexError):
        s[12]
    for key, rows in ((slice(2, 7), range(2, 7)), (slice(None, None, 5), range(0, 12, 5)),
                      (np.array([4, 1, 1]), [4, 1, 1]),
                      (s.has_u_des, [k for k in range(12) if k % 3])):
        part = s[key]
        assert isinstance(part, SampleSet)
        _assert_same_samples(part, [w[k] for k in rows])
    with pytest.raises(ValueError, match="a sample set needs"):
        SampleSet(s.x, s.u, s.u_des[:, :1], s.has_u_des, s.t, s.trajectory_id)


def test_empty_sample_list_roundtrips(tmp_path):
    path = tmp_path / "empty.ndjson"
    save_trajectories([], path, scenario="none")
    assert read_header(path)["n_agents"] == 0
    assert len(load_trajectories(path)) == 0


def test_csv_export(tmp_path):
    samples = _tiny_weaving(4)
    path = tmp_path / "out.csv"
    export_csv(samples, path, header_comment="probe")
    lines = path.read_text().splitlines()
    assert lines[0] == "# probe"
    assert lines[1].startswith("trajectory_id,t,x0")
    assert len(lines) == 2 + len(samples)

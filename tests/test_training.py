import json

import numpy as np
import pytest

from respalloc.data import (WeavingConfig, augment, default_planar_group_config,
                            default_two_agent_config, generate_synthetic,
                            generate_weaving_trajectories, planar_group_scene,
                            two_agent_line_scene, weaving_scene)
from respalloc import models, training
from respalloc.filter_qp import FilterProblem, differentiate_filter, solve_filter
from respalloc.models import ConstantGamma, RelativeSymmetricGamma, init_model
from respalloc.training import (Adam, Sgd, TrainConfig, batch_loss,
                                batch_loss_and_grad, fit, fit_windows,
                                gradient_step, loss, prepare_batch,
                                residual_loss, time_loss_and_grad)

from oracles import assert_rel_close


CFG = TrainConfig(epochs=1, batch_size=8)


def test_huber_values():
    val, _ = residual_loss(np.array([0.5]), "huber", 1.0)
    assert val == pytest.approx(0.125)
    val, _ = residual_loss(np.array([2.0]), "huber", 1.0)
    assert val == pytest.approx(1.5)
    val, _ = residual_loss(np.array([0.5, 2.0]), "huber", 1.0)
    assert val == pytest.approx(1.625)


def test_loss_metric_derivatives():
    r = np.array([0.5, -2.0, 0.0])
    for metric in ("huber", "l2", "l1"):
        val, dval = residual_loss(r, metric, 1.0)
        for j in (0, 1):
            e = np.zeros_like(r)
            e[j] = 1e-7
            fd = (residual_loss(r + e, metric, 1.0)[0]
                  - residual_loss(r - e, metric, 1.0)[0]) / 2e-7
            assert dval[j] == pytest.approx(fd, rel=1e-5, abs=1e-9)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    for name in ("learning_rate", "huber_delta"):
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
                TrainConfig(**{name: bad})
    with pytest.raises(ValueError):
        TrainConfig(optimizer="lbfgs")
    with pytest.raises(ValueError):
        TrainConfig(loss_metric="mse")


@pytest.fixture(scope="module")
def line_scene():
    return two_agent_line_scene()


@pytest.fixture(scope="module")
def clean_samples(line_scene):
    cfg = default_two_agent_config(n_samples=64, noise_variance=0.0, seed=2)
    return generate_synthetic(cfg, line_scene, np.array([0.3, 0.7]))


def test_loss_is_zero_at_the_generating_allocation(line_scene, clean_samples):
    truth = ConstantGamma(2, params=np.array([np.log(0.3), np.log(0.7)]))
    assert loss(clean_samples, truth, line_scene, CFG) <= 1e-10


def test_empty_batch_rejected(line_scene):
    with pytest.raises(ValueError, match="empty"):
        prepare_batch([], line_scene)


def test_chained_gradient_matches_finite_differences(line_scene):
    cfg = default_two_agent_config(n_samples=4, noise_variance=0.1, seed=7)
    batch = generate_synthetic(cfg, line_scene, np.array([0.4, 0.6]))
    prep = prepare_batch(batch, line_scene, 0)
    model = ConstantGamma(2, params=np.array([0.2, -0.1]))
    _, grad = batch_loss_and_grad(prep, model, CFG)
    step = 1e-6
    for j in range(2):
        base = model.params.copy()
        model.params = base + step * np.eye(2)[j]
        up = batch_loss(prep, model, CFG)
        model.params = base - step * np.eye(2)[j]
        down = batch_loss(prep, model, CFG)
        model.params = base
        assert grad[j] == pytest.approx((up - down) / (2 * step), rel=1e-3)


def test_chained_gradient_neural_model_on_weaving_data():
    scene = weaving_scene()
    batch = generate_weaving_trajectories(
        "single", 1, seed=3, config=WeavingConfig(steps=6, noise_variance=0.05))
    prep = prepare_batch(batch, scene, 4)
    model = RelativeSymmetricGamma(4, rng=np.random.default_rng(0))
    _, grad = batch_loss_and_grad(prep, model, CFG)
    rng = np.random.default_rng(1)
    step = 1e-6
    for _ in range(4):
        v = rng.normal(size=model.params.size)
        v /= np.linalg.norm(v)
        base = model.params.copy()
        model.params = base + step * v
        up = batch_loss(prep, model, CFG)
        model.params = base - step * v
        down = batch_loss(prep, model, CFG)
        model.params = base
        fd = (up - down) / (2 * step)
        assert grad @ v == pytest.approx(fd, rel=1e-3, abs=1e-10)


def test_inactive_rows_without_ridge_give_zero_gradient():
    # Far-apart agents, separating desired controls, no ridge: the filter is
    # the identity and nothing depends on the allocation.
    scene = two_agent_line_scene(beta1=0.0)
    cfg = default_two_agent_config(n_samples=8, noise_variance=0.0, seed=1)
    cfg.state_low = np.array([-0.5, 9.0])
    cfg.state_high = np.array([0.5, 10.0])
    samples = generate_synthetic(cfg, scene, np.array([0.5, 0.5]))
    prep = prepare_batch(samples, scene, 0)
    model = ConstantGamma(2, params=np.array([0.3, -0.2]))
    before = model.params.copy()
    value, grad = batch_loss_and_grad(prep, model, CFG)
    np.testing.assert_allclose(grad, 0.0, atol=1e-14)
    gradient_step(model, prep, TrainConfig(epochs=1, batch_size=8,
                                           learning_rate=0.1, optimizer="sgd"))
    np.testing.assert_array_equal(model.params, before)


@pytest.mark.parametrize("kind,kwargs", [
    ("constant", {"n_agents": 2}),
    ("mlp", {"n_agents": 2, "context_dim": 2}),
    ("symmetric", {"n_agents": 2, "agent_dim": 1}),
    ("relative", {"context_dim": 2}),
])
def test_loss_and_grad_runs_one_model_forward(kind, kwargs, line_scene,
                                              clean_samples, monkeypatch):
    model = init_model(kind, seed=3, **kwargs)
    prep = prepare_batch(clean_samples[:8], line_scene, model.context_dim)
    calls = {"entry": 0, "stack": 0}

    def counted(key, fn):
        def wrapper(*args, **kw):
            calls[key] += 1
            return fn(*args, **kw)
        return wrapper

    cls = type(model)
    for name in ("gamma_and_pullback", "gamma_batch", "vjp_params_batch"):
        monkeypatch.setattr(cls, name, counted("entry", getattr(cls, name)))
    monkeypatch.setattr(models, "_tanh_stack", counted("stack", models._tanh_stack))
    batch_loss_and_grad(prep, model, CFG)
    assert calls == {"entry": 1, "stack": 0 if kind == "constant" else 1}


def _one_chunk_loss_and_grad(prep, model, config):
    """The step as one forward and one pullback over the whole minibatch."""
    gamma, pullback = model.gamma_and_pullback(prep.contexts)
    problems = [FilterProblem(prep.constraints[i], prep.u_des[i], gamma[i],
                              prep.beta1, prep.beta2, prep.lb, prep.ub)
                for i in range(len(prep))]
    solutions = [solve_filter(problem) for problem in problems]
    u = np.array([sol.u for sol in solutions])
    total, dval_dresid = residual_loss(prep.u_obs - u, config.loss_metric,
                                       config.huber_delta)
    dgamma = np.array([-w @ differentiate_filter(problem, sol).du_dgamma
                       for w, problem, sol in zip(dval_dresid, problems, solutions)])
    return total / len(prep), pullback(dgamma / len(prep))


@pytest.fixture(scope="module")
def planar6_prep():
    scene = planar_group_scene(6)
    cfg = default_planar_group_config(n_agents=6, n_samples=33, seed=4)
    samples = generate_synthetic(cfg, scene, np.full(6, 1 / 6))
    model = init_model("symmetric", seed=2, n_agents=6, agent_dim=4)
    return prepare_batch(samples, scene, model.context_dim), model


@pytest.fixture(scope="module")
def line2_prep(line_scene):
    cfg = default_two_agent_config(n_samples=64, noise_variance=0.1, seed=5)
    samples = generate_synthetic(cfg, line_scene, np.array([0.3, 0.7]))
    return prepare_batch(samples, line_scene, 0), ConstantGamma(2, params=np.array([0.4, -0.3]))


@pytest.fixture(scope="module")
def weave_prep():
    rollouts = generate_weaving_trajectories(
        "mixed", 2, seed=6, config=WeavingConfig(steps=40, noise_variance=0.05))
    model = init_model("relative", seed=6, context_dim=4)
    return prepare_batch(augment(rollouts, "mirror_lateral"), weaving_scene(), 4), model


# The perfbench workloads' scenes and model families; 33 is not a multiple of
# the symmetric model's four-context chunk.
@pytest.mark.parametrize("workload,size", [
    pytest.param("planar6_prep", 5, id="5"), pytest.param("planar6_prep", 16, id="16"),
    pytest.param("planar6_prep", 33, id="33"), pytest.param("planar6_prep", 4, id="planar6-4"),
    pytest.param("line2_prep", 8, id="line2-8"), pytest.param("line2_prep", 64, id="line2-64"),
    pytest.param("weave_prep", 160, id="weave-160")])
def test_chunked_step_equals_one_chunk_reference(workload, size, request):
    prep, model = request.getfixturevalue(workload)
    sub = prep.subset(np.arange(size))
    value, grad = batch_loss_and_grad(sub, model, CFG)
    ref_value, ref_grad = _one_chunk_loss_and_grad(sub, model, CFG)
    rows = model.net_rows_per_context
    if not rows or size <= training.CHUNK_ROWS // rows:
        assert value == ref_value       # one chunk: the same sum, bit for bit
    assert_rel_close(value, ref_value)
    assert_rel_close(grad, ref_grad)
    assert batch_loss(sub, model, CFG) == ref_value


def test_prepared_rows_index_as_one_row_constraints(line_scene, clean_samples):
    prep = prepare_batch(clean_samples, line_scene, 0)
    rows = line_scene.assemble(np.array([line_scene.filter_state(s.x) for s in clean_samples]))
    idx = np.array([5, 2, 5, 63])
    sub = prep.subset(idx)
    assert sub.constraints.a.shape == (4, 2) and sub.constraints.offset.shape == (4,)
    for k, i in enumerate(idx):
        for got in (prep.constraints[i], sub.constraints[k]):
            assert got.a.shape == (2,) and np.array_equal(got.a, rows.a[i])
            assert type(got.offset) is float and got.offset == rows.offset[i]
            assert got.agent_dims == rows.agent_dims


@pytest.mark.parametrize("size", [16, 33])
def test_each_ordering_row_runs_once_per_step(planar6_prep, size, monkeypatch):
    prep, model = planar6_prep
    columns, stack = [], models._tanh_stack

    def counted(layers, pre, *block):
        columns.append(pre.shape[1])
        return stack(layers, pre, *block)

    monkeypatch.setattr(models, "_tanh_stack", counted)
    batch_loss_and_grad(prep.subset(np.arange(size)), model, CFG)
    assert model.net_rows_per_context == 720
    assert sum(columns) == size * 720
    per_chunk = training.CHUNK_ROWS // 720
    assert len(columns) == -(-size // per_chunk)
    assert max(columns) <= training.CHUNK_ROWS


@pytest.mark.parametrize("kind,kwargs,rows", [
    ("constant", {"n_agents": 2}, 0),
    ("mlp", {"n_agents": 2, "context_dim": 2}, 1),
    ("relative", {"context_dim": 2}, 2),
])
def test_small_row_models_run_one_chunk(kind, kwargs, rows, line_scene, monkeypatch):
    cfg = default_two_agent_config(n_samples=512, noise_variance=0.1, seed=8)
    samples = generate_synthetic(cfg, line_scene, np.array([0.4, 0.6]))
    model = init_model(kind, seed=3, **kwargs)
    prep = prepare_batch(samples, line_scene, model.context_dim)
    calls = []
    cls = type(model)
    original = cls.gamma_and_pullback

    def counted(self, contexts):
        calls.append(len(contexts))
        return original(self, contexts)

    monkeypatch.setattr(cls, "gamma_and_pullback", counted)
    batch_loss_and_grad(prep, model, CFG)
    assert model.net_rows_per_context == rows
    assert calls == [512]


def _fit_with_bad_step(line_scene, samples, monkeypatch, bad_step, corrupt):
    """Fit while the gradient of step ``bad_step`` goes through ``corrupt``."""
    original, calls, before = training.batch_loss_and_grad, [], []

    def flaky(prep, model, config):
        value, grad = original(prep, model, config)
        calls.append(1)
        before.append(model.params.copy())
        return value, corrupt(grad) if len(calls) == bad_step else grad

    monkeypatch.setattr(training, "batch_loss_and_grad", flaky)
    model = ConstantGamma(2)
    tc = TrainConfig(epochs=20, batch_size=16, learning_rate=2.0,
                     optimizer="sgd", seed=0)
    return fit(samples, model, line_scene, tc), model, before, len(calls)


@pytest.mark.parametrize("corrupt", [
    lambda g: np.where(np.arange(g.size) == 1, np.nan, g),     # NaN gradient
    lambda g: np.full_like(g, np.finfo(float).max),            # update overflows
], ids=["nan-gradient", "inf-parameters"])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_fit_stops_at_the_first_non_finite_step(line_scene, clean_samples,
                                                monkeypatch, corrupt):
    report, model, before, steps = _fit_with_bad_step(
        line_scene, clean_samples, monkeypatch, bad_step=6, corrupt=corrupt)
    assert report.diverged
    assert steps == 6                       # stopped at once, mid-epoch
    assert report.epochs_run == 2           # 64 samples / 16 = 4 steps an epoch
    np.testing.assert_array_equal(model.params, before[-1])
    np.testing.assert_array_equal(report.final_params, before[-1])
    assert np.all(np.isfinite(report.losses)) and np.all(np.isfinite(report.gamma_trace))


def test_sgd_and_adam_zero_gradient_fixed_point():
    params = np.array([1.0, -2.0, 3.0])
    zero = np.zeros(3)
    assert np.array_equal(Sgd(0.1).step(params, zero), params)
    adam = Adam(0.1)
    stepped = adam.step(params, zero)
    np.testing.assert_allclose(stepped, params, atol=1e-12)


def test_adam_minimizes_quadratic_bowl():
    target = np.array([1.5, -0.7, 0.2, 4.0])
    scales = np.array([1.0, 10.0, 0.3, 2.0])
    params = np.zeros(4)
    adam = Adam(0.01)
    for _ in range(5000):
        grad = 2 * scales * (params - target)
        params = adam.step(params, grad)
    np.testing.assert_allclose(params, target, atol=1e-6)


def test_first_steps_move_toward_truth(line_scene):
    cfg = default_two_agent_config(n_samples=128, noise_variance=0.1, seed=0)
    samples = generate_synthetic(cfg, line_scene, np.array([0.3, 0.7]))
    prep = prepare_batch(samples, line_scene, 0)
    model = ConstantGamma(2)
    tc = TrainConfig(epochs=1, batch_size=8, learning_rate=0.005, optimizer="sgd")
    opt = Sgd(0.005)
    rng = np.random.default_rng(4)
    errs = []
    for step in range(50):
        idx = rng.choice(len(prep), size=8, replace=False)
        gradient_step(model, prep.subset(idx), tc, opt)
        errs.append(abs(model.gamma()[0] - 0.3))
    smoothed = np.convolve(errs, np.ones(10) / 10, mode="valid")
    assert smoothed[-1] < smoothed[0] - 0.01


def test_fit_is_seed_deterministic(line_scene, clean_samples):
    tc = TrainConfig(epochs=5, batch_size=16, learning_rate=0.01,
                     optimizer="adam", seed=11)
    m1 = ConstantGamma(2)
    r1 = fit(clean_samples, m1, line_scene, tc)
    m2 = ConstantGamma(2)
    r2 = fit(clean_samples, m2, line_scene, tc)
    assert np.array_equal(r1.losses, r2.losses)
    assert np.array_equal(m1.params, m2.params)
    assert np.array_equal(r1.gamma_trace, r2.gamma_trace)


def test_zero_noise_fit_reaches_tiny_loss(line_scene, clean_samples):
    model = ConstantGamma(2)
    tc = TrainConfig(epochs=300, batch_size=64, learning_rate=0.05,
                     optimizer="adam", seed=0)
    report = fit(clean_samples, model, line_scene, tc)
    assert report.losses[-1] <= 1e-6
    np.testing.assert_allclose(model.gamma(), [0.3, 0.7], atol=1e-3)


def test_windowed_fits_track_schedule(line_scene):
    cfg = default_two_agent_config(n_samples=128, noise_variance=0.1, seed=6)

    def schedule(k, x):
        return np.array([0.2, 0.8]) if k < 64 else np.array([0.8, 0.2])

    samples = generate_synthetic(cfg, line_scene, schedule)
    tc = TrainConfig(epochs=80, batch_size=8, learning_rate=0.005,
                     optimizer="sgd", seed=0)
    estimates = fit_windows(samples, line_scene, tc, n_windows=2)
    assert abs(estimates[0][0] - 0.2) <= 0.1
    assert abs(estimates[1][0] - 0.8) <= 0.1


def test_fit_windows_equal_fits_on_each_slice(line_scene, clean_samples):
    tc = TrainConfig(epochs=3, batch_size=8, learning_rate=0.01, seed=4)
    estimates = fit_windows(clean_samples, line_scene, tc, n_windows=4)
    assert estimates.shape == (4, 2)
    for w, estimate in enumerate(estimates):
        model = ConstantGamma(2)
        fit(clean_samples[16 * w:16 * (w + 1)], model, line_scene, tc)
        np.testing.assert_array_equal(estimate, model.gamma())
    for n_windows in (0, 3):
        with pytest.raises(ValueError, match=rf"\[1, 2\] for 2 samples, got {n_windows}"):
            fit_windows(clean_samples[:2], line_scene, tc, n_windows=n_windows)


def test_divergence_aborts_with_partial_report(line_scene, clean_samples):
    model = ConstantGamma(2)
    tc = TrainConfig(epochs=50, batch_size=64, learning_rate=0.01,
                     optimizer="sgd", seed=0, divergence_limit=1e-12)
    report = fit(clean_samples, model, line_scene, tc)
    assert report.diverged
    assert report.epochs_run < 50


def test_report_serialization(tmp_path, line_scene, clean_samples):
    model = ConstantGamma(2)
    tc = TrainConfig(epochs=3, batch_size=16, learning_rate=0.01, seed=1)
    report = fit(clean_samples, model, line_scene, tc)
    jpath = tmp_path / "report.json"
    report.save_json(jpath)
    doc = json.loads(jpath.read_text())
    assert len(doc["losses"]) == 3
    assert doc["config"]["batch_size"] == 16
    assert np.array_equal(doc["final_params"], model.params)
    cpath = tmp_path / "trace.csv"
    report.save_trace_csv(cpath)
    lines = cpath.read_text().splitlines()
    assert lines[0] == "epoch,loss,wall_ms,gamma1,gamma2"
    assert len(lines) == 4


def test_timing_grows_at_most_linearly(line_scene):
    cfg = default_two_agent_config(n_samples=256, noise_variance=0.1, seed=0)
    samples = generate_synthetic(cfg, line_scene, np.array([0.4, 0.6]))
    prep = prepare_batch(samples, line_scene, 0)
    _, slope = time_loss_and_grad(prep, ConstantGamma(2), CFG, [8, 32, 128], repeats=5)
    assert 0.7 <= slope <= 1.3


def test_every_benchmark_tracer_target_is_defined_on_its_owner():
    # The benchmark rebinds these attributes in every run, traced or not, so a
    # deleted or moved one would crash it. Each must be the owner's own
    # attribute (a module global or a method defined on that class).
    import importlib.util
    import pathlib

    import respalloc.cli        # layer_targets reads respalloc.cli, not imported by respalloc
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing.layer_targets(respalloc)
    assert targets
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in targets
               if attr not in vars(owner)]
    assert not missing

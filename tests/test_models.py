import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from respalloc.models import (ConstantGamma, Mlp, MlpGamma,
                              RelativeSymmetricGamma, SymmetricGammaN,
                              grad_gamma, init_model, load_model, save_model)

from oracles import assert_rel_close, symmetric_gamma_reference


def test_uniform_logits_give_uniform_allocation():
    model = ConstantGamma(2)
    np.testing.assert_allclose(model.gamma(), [0.5, 0.5])
    model4 = ConstantGamma(4)
    np.testing.assert_allclose(model4.gamma(), np.full(4, 0.25))


def test_constant_softmax_jacobian():
    model = ConstantGamma(2)
    jac = grad_gamma(model)
    assert jac[0, 0] == pytest.approx(0.25)
    assert jac[0, 1] == pytest.approx(-0.25)


def test_relative_model_constant_network_is_indifferent():
    model = RelativeSymmetricGamma(context_dim=4)
    model.params = np.zeros_like(model.params)
    for r in np.random.default_rng(0).normal(size=(20, 4), scale=5):
        np.testing.assert_allclose(model.gamma(r), [0.5, 0.5], atol=1e-15)


def test_mlp_parameter_count():
    net = Mlp(4, 1, hidden=16, n_hidden=3)
    expected = (16 * 4 + 16) + 2 * (16 * 16 + 16) + (1 * 16 + 1)
    assert net.n_params == expected
    assert net.params.shape == (expected,)


def test_init_is_seed_deterministic():
    a = init_model("relative", seed=123, context_dim=4)
    b = init_model("relative", seed=123, context_dim=4)
    assert np.array_equal(a.params, b.params)
    c = init_model("relative", seed=124, context_dim=4)
    assert not np.array_equal(a.params, c.params)
    assert np.array_equal(init_model("constant", seed=5, n_agents=3).params,
                          np.zeros(3))


def test_init_weight_scale_statistics():
    # First-layer weights are Uniform(-a, a) with a = 1/sqrt(fan_in), so their
    # variance should sit near a^2/3 when pooled over many draws.
    fan_in = 4
    draws = []
    for seed in range(1000):
        net = Mlp(fan_in, 1, hidden=16, n_hidden=3,
                  rng=np.random.default_rng(seed))
        draws.append(net.params[:16 * fan_in])
    var = np.var(np.concatenate(draws))
    target = (1.0 / fan_in) / 3.0
    assert target / 3.0 < var < target * 3.0


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_allocations_sum_to_one(seed):
    rng = np.random.default_rng(seed)
    models = [
        ConstantGamma(3, params=rng.normal(size=3)),
        MlpGamma(2, 4, rng=rng),
        SymmetricGammaN(3, 2, rng=rng),
        RelativeSymmetricGamma(4, rng=rng),
    ]
    for model in models:
        ctx = rng.normal(size=(100, model.context_dim), scale=3.0)
        g = model.gamma_batch(ctx)
        assert np.all(g >= 0) and np.all(g <= 1)
        np.testing.assert_allclose(g.sum(axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("n_agents", [2, 3, 4])
def test_symmetric_model_permutation_properties(n_agents):
    rng = np.random.default_rng(n_agents)
    d = 2
    model = SymmetricGammaN(n_agents, d, rng=rng)

    def permute(x, order):
        return x.reshape(n_agents, d)[list(order)].ravel()

    for _ in range(25):
        x = rng.normal(size=n_agents * d, scale=2.0)
        g = model.gamma(x)
        # Fixing agent i and shuffling the others leaves gamma_i unchanged.
        for i in range(n_agents):
            others = [j for j in range(n_agents) if j != i]
            order = list(range(n_agents))
            shuffled = rng.permutation(others)
            for slot, j in zip(others, shuffled):
                order[slot] = int(j)
            gp = model.gamma(permute(x, order))
            assert gp[i] == pytest.approx(g[i], abs=1e-12)
        # Swapping agents i and j swaps their allocations.
        for i, j in itertools.combinations(range(n_agents), 2):
            order = list(range(n_agents))
            order[i], order[j] = j, i
            gs = model.gamma(permute(x, order))
            assert gs[j] == pytest.approx(g[i], abs=1e-12)
            assert gs[i] == pytest.approx(g[j], abs=1e-12)


def test_symmetric_model_full_permutation_equivariance():
    # gamma(sigma(x)) = sigma(gamma(x)) for every permutation, N = 3.
    rng = np.random.default_rng(9)
    model = SymmetricGammaN(3, 2, rng=rng)
    x = rng.normal(size=6)
    g = model.gamma(x)
    for order in itertools.permutations(range(3)):
        xp = x.reshape(3, 2)[list(order)].ravel()
        gp = model.gamma(xp)
        np.testing.assert_allclose(gp, g[list(order)], atol=1e-12)


@pytest.mark.parametrize("n_agents", [2, 3, 4, 5, 6])
def test_symmetric_model_matches_the_gather_reference(n_agents):
    d, b = (4, 3) if n_agents == 6 else (3, 5)
    rng = np.random.default_rng(40 + n_agents)
    model = SymmetricGammaN(n_agents, d, rng=rng)
    model.params = model.params + rng.normal(size=model.params.size, scale=0.3)
    ctx = rng.normal(size=(b, n_agents * d), scale=2.0)
    dg = rng.normal(size=(b, n_agents))
    gamma_ref, vjp_ref = symmetric_gamma_reference(model, ctx, dg)
    gamma, pullback = model.gamma_and_pullback(ctx)
    assert_rel_close(gamma, gamma_ref)
    assert_rel_close(pullback(dg), vjp_ref)


@pytest.mark.parametrize("kind,kwargs", [
    ("constant", {"n_agents": 3}),
    ("mlp", {"n_agents": 3, "context_dim": 4}),
    ("symmetric", {"n_agents": 3, "agent_dim": 2}),
    ("relative", {"context_dim": 4}),
])
def test_pullback_is_the_batched_vjp_and_repeatable(kind, kwargs):
    model = init_model(kind, seed=8, **kwargs)
    rng = np.random.default_rng(2)
    model.params = model.params + rng.normal(size=model.params.size, scale=0.3)
    ctx = rng.normal(size=(5, model.context_dim))
    dg = rng.normal(size=(5, model.n_agents))
    gamma, pullback = model.gamma_and_pullback(ctx)
    first = pullback(dg)
    np.testing.assert_array_equal(gamma, model.gamma_batch(ctx))
    np.testing.assert_array_equal(first, model.vjp_params_batch(ctx, dg))
    np.testing.assert_array_equal(pullback(dg), first)
    # The pullback keeps the parameters of its forward pass.
    model.params = model.params + 1.0
    np.testing.assert_array_equal(pullback(dg), first)


def test_chunked_forward_equals_one_unchunked_forward(monkeypatch):
    from respalloc import models
    model = init_model("symmetric", seed=5, n_agents=6, agent_dim=4)
    ctx = np.random.default_rng(6).normal(size=(9, model.context_dim))
    whole = model.gamma_and_pullback(ctx)[0]
    columns, stack = [], models._tanh_stack

    def counted(layers, pre, *block):
        columns.append(pre.shape[1])
        return stack(layers, pre, *block)

    monkeypatch.setattr(models, "_tanh_stack", counted)
    np.testing.assert_array_equal(model.gamma_batch(ctx), whole)
    assert models.CHUNK_ROWS // model.net_rows_per_context == 4
    assert columns == [4 * 720, 4 * 720, 720]


def test_live_pullbacks_keep_their_activations_across_later_passes():
    model = init_model("symmetric", seed=2, n_agents=4, agent_dim=3)
    twin = init_model("symmetric", seed=2, n_agents=4, agent_dim=3)
    rng = np.random.default_rng(9)
    ctx = [rng.normal(size=(5, 12)) for _ in range(3)]
    dg = [rng.normal(size=(5, 4)) for _ in range(3)]
    first = model.gamma_and_pullback(ctx[0])[1]
    second = model.gamma_and_pullback(ctx[1])[1]
    model.vjp_params_batch(ctx[2], dg[2])
    model.gamma_batch(ctx[2])
    for c, g, pullback in zip(ctx, dg, (first, second)):
        np.testing.assert_array_equal(pullback(g), twin.gamma_and_pullback(c)[1](g))
    np.testing.assert_array_equal(model.gamma_batch(ctx[0]), twin.gamma_batch(ctx[0]))


def test_chunked_passes_reuse_one_activation_block():
    from respalloc import models
    model = init_model("symmetric", seed=5, n_agents=6, agent_dim=4)
    ctx = np.random.default_rng(6).normal(size=(9, model.context_dim))
    model.gamma_batch(ctx)
    block = model._block[0]
    assert block.size == 5 * 16 * models.CHUNK_ROWS
    # Shorter chunks (the last one of 9 contexts, or 2 contexts) run in it too.
    model.gamma_batch(ctx)
    model.vjp_params_batch(ctx[:2], np.ones((2, 6)))
    model.gamma_batch(ctx[:4])
    assert model._block[0] is block


def test_symmetric_cap():
    with pytest.raises(ValueError, match="capped"):
        SymmetricGammaN(7, 2)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_relative_model_swap_identity(seed):
    rng = np.random.default_rng(seed)
    model = RelativeSymmetricGamma(4, rng=rng)
    r = rng.normal(size=(100, 4), scale=4.0)
    g = model.gamma_batch(r)
    g_neg = model.gamma_batch(-r)
    np.testing.assert_allclose(g[:, 0] + g_neg[:, 0], 1.0, atol=1e-12)
    np.testing.assert_allclose(g[:, 0], g_neg[:, 1], atol=1e-12)
    assert np.all(g > 0) and np.all(g < 1)


def test_unconstrained_model_breaks_swap_identity():
    # Witness, not a universal claim: a random unconstrained network
    # generically violates gamma1(r) + gamma1(-r) = 1 somewhere.
    model = MlpGamma(2, 4, rng=np.random.default_rng(0))
    r = np.random.default_rng(1).normal(size=(200, 4), scale=3.0)
    gap = model.gamma_batch(r)[:, 0] + model.gamma_batch(-r)[:, 0] - 1.0
    assert np.max(np.abs(gap)) > 1e-3


def _directional_fd(model, ctx, direction, step=1e-6):
    base = model.params.copy()
    model.params = base + step * direction
    up = model.gamma(ctx)
    model.params = base - step * direction
    down = model.gamma(ctx)
    model.params = base
    return (up - down) / (2 * step)


@pytest.mark.parametrize("kind,kwargs", [
    ("constant", {"n_agents": 3}),
    ("mlp", {"n_agents": 2, "context_dim": 4}),
    ("symmetric", {"n_agents": 3, "agent_dim": 2}),
    ("relative", {"context_dim": 4}),
])
def test_parameter_jacobian_matches_finite_differences(kind, kwargs):
    model = init_model(kind, seed=42, **kwargs)
    rng = np.random.default_rng(7)
    ctx = rng.normal(size=model.context_dim, scale=2.0) if model.context_dim else None
    jac = grad_gamma(model, ctx)
    assert jac.shape == (model.n_agents, model.params.size)
    for _ in range(5):
        v = rng.normal(size=model.params.size)
        v /= np.linalg.norm(v)
        fd = _directional_fd(model, ctx, v)
        np.testing.assert_allclose(jac @ v, fd, rtol=1e-4, atol=1e-8)


def test_zeroed_head_gradient_is_uniform_softmax_jacobian():
    # Zero the final affine layer: logits vanish, gamma is uniform, and the
    # gradient in the head bias is the softmax Jacobian at uniform.
    model = MlpGamma(2, 4, rng=np.random.default_rng(3))
    params = model.params.copy()
    head = 16 * 2 + 2
    params[-head:] = 0.0
    model.params = params
    ctx = np.array([0.3, -1.0, 0.7, 0.2])
    np.testing.assert_allclose(model.gamma(ctx), [0.5, 0.5], atol=1e-15)
    jac = grad_gamma(model, ctx)
    bias_cols = jac[:, -2:]
    np.testing.assert_allclose(bias_cols, [[0.25, -0.25], [-0.25, 0.25]],
                               atol=1e-12)


def test_batched_vjp_equals_sum_of_singles():
    model = init_model("relative", seed=0, context_dim=4)
    rng = np.random.default_rng(5)
    ctx = rng.normal(size=(6, 4))
    dg = rng.normal(size=(6, 2))
    batched = model.vjp_params_batch(ctx, dg)
    singles = sum(model.vjp_params_batch(ctx[i:i + 1], dg[i:i + 1])
                  for i in range(6))
    np.testing.assert_allclose(batched, singles, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("kind,kwargs", [
    ("constant", {"n_agents": 4}),
    ("mlp", {"n_agents": 2, "context_dim": 4}),
    ("symmetric", {"n_agents": 3, "agent_dim": 4}),
    ("relative", {"context_dim": 4}),
])
def test_checkpoint_roundtrip_is_bit_exact(kind, kwargs, tmp_path):
    model = init_model(kind, seed=99, **kwargs)
    model.params = model.params + np.random.default_rng(1).normal(
        size=model.params.size, scale=0.3)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.kind == model.kind
    assert np.array_equal(loaded.params, model.params)
    ctx = np.linspace(-1, 1, model.context_dim) if model.context_dim else None
    np.testing.assert_array_equal(loaded.gamma(ctx), model.gamma(ctx))


def test_checkpoint_refuses_non_finite_parameters(tmp_path):
    model = init_model("mlp", seed=1, n_agents=2, context_dim=4)
    params = model.params.copy()
    params[[7, 30]] = [np.nan, np.inf]
    model.params = params
    path = tmp_path / "model.json"
    with pytest.raises(ValueError, match="parameter 7 is nan"):
        save_model(model, path)
    assert not path.exists()
    # A checkpoint written by other means is refused on loading, naming the file.
    model.params = np.where(np.isfinite(params), params, 0.0)
    save_model(model, path)
    doc = json.loads(path.read_text())
    doc["params"][30] = float("inf")
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as raised:
        load_model(path)
    assert str(raised.value) == f"{path}: parameter 30 is inf; refusing to load a non-finite model"


def test_checkpoint_rejects_foreign_files(tmp_path):
    path = tmp_path / "other.json"
    for text in (json.dumps({"something": 1}), "not json"):
        path.write_text(text)
        with pytest.raises(ValueError, match="not a model checkpoint"):
            load_model(path)


@pytest.mark.parametrize("seed", [7, None])
def test_checkpoint_roundtrips_the_init_seed(seed, tmp_path):
    model = init_model("mlp", seed=3, n_agents=2, context_dim=4)
    model.init_seed = seed
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    save_model(model, first)
    loaded = load_model(first)
    assert loaded.init_seed == seed
    save_model(loaded, second)
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("edit,match", [
    (lambda doc: doc["dims"].pop("n_agents"), "needs dims"),
    (lambda doc: doc["dims"].update(agent_dim=4), "needs dims"),
    (lambda doc: doc.pop("params"), "has no params"),
    (lambda doc: doc.update(kind=["mlp"]), "unknown model kind"),
    (lambda doc: doc["params"].pop(), "expected 10 parameters, got 9"),
])
def test_checkpoint_rejects_malformed_files_naming_them(edit, match, tmp_path):
    path = tmp_path / "bad.json"
    save_model(init_model("mlp", seed=0, n_agents=2, context_dim=1, hidden=2,
                          n_hidden=1), path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=match) as exc:
        load_model(path)
    assert str(path) in str(exc.value)

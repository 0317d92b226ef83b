import json

import numpy as np
import pytest

from respalloc.cli import main
from respalloc.data import (active_fraction, load_trajectories, read_header,
                            two_agent_line_scene, weaving_scene)
from respalloc.filter_qp import solve_filter
from respalloc.models import ConstantGamma, load_model, save_model


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "d2.ndjson"
    assert run(["generate", "--scenario", "synthetic-2agent", "--n", 64,
                "--gamma", 0.3, "--seed", 1, "--out", path]) == 0
    return path


@pytest.fixture(scope="module")
def weaving_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "weave.ndjson"
    assert run(["generate", "--scenario", "weaving-single", "--count", 2,
                "--steps", 40, "--noise", 0.02, "--seed", 3,
                "--out", path]) == 0
    return path


def test_generate_sample_count_and_header(small_dataset):
    header = read_header(small_dataset)
    assert header["scenario"] == "synthetic-2agent"
    assert header["config"]["gamma"] == "0.3"       # provenance echo
    assert len(load_trajectories(small_dataset)) == 64


def test_generate_weaving_header_and_grouping(weaving_dataset):
    header = read_header(weaving_dataset)
    assert header["scenario"] == "weaving-single"
    samples = load_trajectories(weaving_dataset)
    assert len(samples) == 2 * 40
    assert {s.trajectory_id for s in samples} == {0, 1}


def test_generate_zero_noise_is_recoverable(tmp_path):
    path = tmp_path / "clean.ndjson"
    assert run(["generate", "--scenario", "synthetic-2agent", "--n", 16,
                "--gamma", 0.4, "--noise", 0, "--seed", 2, "--out", path]) == 0
    scene = two_agent_line_scene()
    gamma = np.array([0.4, 0.6])
    for s in load_trajectories(path):
        sol = solve_filter(scene.build_problem(s.x, s.u_des.ravel(), gamma))
        np.testing.assert_allclose(s.u.ravel(), sol.u, atol=1e-12)


def test_generate_is_idempotent(tmp_path):
    p1, p2 = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
    args = ["generate", "--scenario", "synthetic-2agent", "--n", 8,
            "--seed", 9]
    assert run(args + ["--out", p1]) == 0
    assert run(args + ["--out", p2]) == 0
    assert p1.read_bytes().replace(b"a.ndjson", b"") == \
        p2.read_bytes().replace(b"b.ndjson", b"")


def test_generate_validates_gamma(tmp_path):
    assert run(["generate", "--scenario", "synthetic-2agent", "--gamma",
                "0.9,0.9", "--out", "/tmp/na.ndjson"]) == 2
    ckpt = tmp_path / "truth.json"
    save_model(ConstantGamma(2), ckpt)
    assert run(["generate", "--scenario", "synthetic-2agent", "--gamma", 0.3,
                "--gamma-model", ckpt, "--out", tmp_path / "na.ndjson"]) == 2


def test_generate_weaving_honours_gamma(tmp_path):
    path = tmp_path / "weave_half.ndjson"
    assert run(["generate", "--scenario", "weaving-single", "--count", 2,
                "--steps", 30, "--gamma", 0.5, "--noise", 0, "--seed", 4,
                "--out", path]) == 0
    scene = weaving_scene()
    for s in load_trajectories(path):
        sol = solve_filter(scene.build_problem(s.x, s.u_des, np.array([0.5, 0.5])))
        np.testing.assert_allclose(s.u.ravel(), sol.u, rtol=0, atol=1e-12)


def test_generate_header_records_the_synthetic_default_truth(tmp_path):
    path = tmp_path / "default.ndjson"
    assert run(["generate", "--scenario", "synthetic-2agent", "--n", 8,
                "--noise", 0, "--seed", 3, "--out", path]) == 0
    header = read_header(path)
    assert header["config"]["gamma"] is None
    assert header["truth"] == {"kind": "constant", "gamma": [0.3, 0.7]}
    scene = two_agent_line_scene()
    for s in load_trajectories(path):
        sol = solve_filter(scene.build_problem(s.x, s.u_des, header["truth"]["gamma"]))
        np.testing.assert_allclose(s.u.ravel(), sol.u, rtol=0, atol=1e-12)


def test_generate_six_agent_default_truth_is_uniform(tmp_path):
    from respalloc.data import planar_group_scene

    path = tmp_path / "six.ndjson"
    assert run(["generate", "--scenario", "synthetic-6agent", "--n", 4,
                "--noise", 0, "--seed", 3, "--out", path]) == 0
    truth = read_header(path)["truth"]
    assert truth == {"kind": "constant", "gamma": [1.0 / 6] * 6}
    scene = planar_group_scene(6)
    for s in load_trajectories(path):
        sol = solve_filter(scene.build_problem(s.x, s.u_des.ravel(), truth["gamma"]))
        np.testing.assert_allclose(s.u.ravel(), sol.u, rtol=0, atol=1e-12)
    # An explicit scalar is still ambiguous for more than two agents.
    assert run(["generate", "--scenario", "synthetic-6agent", "--n", 4,
                "--gamma", 0.3, "--out", tmp_path / "na.ndjson"]) == 2


def test_generate_header_records_the_weaving_default_truth(tmp_path):
    from respalloc.data import speed_advantage_gamma

    path = tmp_path / "weave_default.ndjson"
    assert run(["generate", "--scenario", "weaving-rear-overtake", "--count", 2,
                "--steps", 20, "--noise", 0, "--seed", 4, "--out", path]) == 0
    truth = read_header(path)["truth"]
    assert truth == {"kind": "speed_advantage_gamma", "sharpness": 0.5, "span": 0.35}
    gamma = speed_advantage_gamma(truth["sharpness"], truth["span"])
    scene = weaving_scene()
    for s in load_trajectories(path):
        r = scene.filter_state(s.x)
        sol = solve_filter(scene.build_problem(s.x, s.u_des, gamma(0, r)))
        np.testing.assert_allclose(s.u.ravel(), sol.u, rtol=0, atol=1e-12)


def test_generate_active_share_uses_the_model_truth(tmp_path, capsys):
    ckpt, path = tmp_path / "truth.json", tmp_path / "d.ndjson"
    truth = ConstantGamma(2, params=np.log([0.05, 0.95]))
    save_model(truth, ckpt)
    assert run(["generate", "--scenario", "synthetic-2agent", "--n", 64,
                "--gamma-model", ckpt, "--seed", 1, "--out", path]) == 0
    printed = capsys.readouterr().out
    scene, samples = two_agent_line_scene(), load_trajectories(path)
    share = active_fraction(samples, scene, truth)
    assert f"{active_fraction(samples, scene, [0.5, 0.5]):.0%}" != f"{share:.0%}"
    assert f"safety row active on {share:.0%} of the first 64" in printed


def test_train_writes_checkpoint_and_report(small_dataset, tmp_path):
    ckpt = tmp_path / "model.json"
    rep = tmp_path / "report.json"
    csv = tmp_path / "trace.csv"
    assert run(["train", "--dataset", small_dataset, "--model", "constant",
                "--epochs", 60, "--batch", 8, "--lr", 0.005,
                "--optimizer", "sgd", "--seed", 0,
                "--checkpoint-out", ckpt, "--report-out", rep,
                "--trace-csv", csv]) == 0
    model = load_model(ckpt)
    assert abs(model.gamma()[0] - 0.3) < 0.08
    doc = json.loads(rep.read_text())
    assert len(doc["losses"]) == 60
    assert doc["config"]["cli_config"]["dataset"] == str(small_dataset)
    assert csv.read_text().startswith("epoch,loss,wall_ms,gamma1,gamma2")


def test_train_missing_dataset_exits_2(tmp_path):
    assert run(["train", "--dataset", tmp_path / "nope.ndjson",
                "--model", "constant"]) == 2


def test_config_file_merging(small_dataset, tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"epochs": 2, "batch": 16}))
    ckpt = tmp_path / "m.json"
    # CLI flag (epochs 3) overrides the file (epochs 2); batch comes from file.
    assert run(["train", "--dataset", small_dataset, "--model", "constant",
                "--config", cfgfile, "--epochs", 3,
                "--report-out", tmp_path / "r.json",
                "--checkpoint-out", ckpt]) == 0
    doc = json.loads((tmp_path / "r.json").read_text())
    assert len(doc["losses"]) == 3
    assert doc["config"]["batch_size"] == 16


def test_config_file_rejects_unknown_keys(small_dataset, tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"epoch": 2}))
    assert run(["train", "--dataset", small_dataset, "--model", "constant",
                "--config", cfgfile]) == 2


@pytest.fixture(scope="module")
def relative_checkpoint(weaving_dataset, tmp_path_factory):
    ckpt = tmp_path_factory.mktemp("cli") / "rel.json"
    assert run(["train", "--dataset", weaving_dataset, "--model", "relative",
                "--epochs", 15, "--batch", 32, "--lr", 1e-3, "--seed", 0,
                "--checkpoint-out", ckpt]) == 0
    return ckpt


def test_landscape_grid_and_symmetry(relative_checkpoint, tmp_path):
    out = tmp_path / "land.csv"
    assert run(["landscape", "--checkpoint", relative_checkpoint, "--out", out,
                "--axes", "r_lon,vr_lon", "--range1", -10, 10,
                "--range2", -3, 3, "--res", 7,
                "--fixed", "r_lat=3.7,vr_lat=0"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config")
    assert lines[1] == "r_lon,vr_lon,gamma1,filter_inactive"
    assert len(lines) == 2 + 49
    # Swap symmetry of the checkpointed model: flipping both grid axes AND the
    # fixed lateral coordinates negates r, so gamma1 -> 1 - gamma1.
    out2 = tmp_path / "land_neg.csv"
    assert run(["landscape", "--checkpoint", relative_checkpoint, "--out", out2,
                "--axes", "r_lon,vr_lon", "--range1", 10, -10,
                "--range2", 3, -3, "--res", 7,
                "--fixed", "r_lat=-3.7,vr_lat=0"]) == 0
    g = np.array([float(l.split(",")[2]) for l in lines[2:]])
    g_neg = np.array([float(l.split(",")[2])
                      for l in out2.read_text().splitlines()[2:]])
    np.testing.assert_allclose(g + g_neg, 1.0, atol=1e-9)


def test_landscape_mask_matches_closed_form_oracle(relative_checkpoint, tmp_path):
    from respalloc.data import (DesiredPolicyParams, desired_controls_weaving,
                                weaving_scene)

    out = tmp_path / "mask.csv"
    assert run(["landscape", "--checkpoint", relative_checkpoint, "--out", out,
                "--axes", "r_lon,r_lat", "--range1", -14, 14,
                "--range2", -5, 5, "--res", 9, "--fixed", "vr_lon=1"]) == 0
    model = load_model(relative_checkpoint)
    scene = weaving_scene()
    policy = DesiredPolicyParams(lat_targets=(1.85, -1.85))
    ref = np.array([0.0, -1.85, 10.0, 0.0])
    rows = out.read_text().splitlines()[2:]
    assert len(rows) == 81
    flagged = 0
    for row in rows:
        v1, v2, g1, inactive = row.split(",")
        r = np.array([float(v1), float(v2), 1.0, 0.0])
        x_joint = np.concatenate([ref, ref + r])
        u_des = desired_controls_weaving(x_joint, policy)
        problem = scene.build_problem(x_joint, u_des.ravel(), model.gamma(r))
        sol = solve_filter(problem)
        expect = int(sol.eps <= 1e-9 and
                     np.max(np.abs(sol.u - problem.shrunk_desired())) <= 1e-7)
        assert int(inactive) == expect
        flagged += expect
    assert 0 < flagged < 81      # both regimes appear on this grid


def test_landscape_rejects_bad_axes(relative_checkpoint, tmp_path):
    assert run(["landscape", "--checkpoint", relative_checkpoint,
                "--out", tmp_path / "x.csv", "--axes", "r_lon,theta"]) == 2


def test_trace_rows_and_self_consistency(relative_checkpoint, weaving_dataset,
                                         tmp_path):
    out = tmp_path / "trace.csv"
    assert run(["trace", "--checkpoint", relative_checkpoint,
                "--dataset", weaving_dataset, "--traj-id", 1,
                "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[1].startswith("t,gamma1,")
    assert len(lines) == 2 + 40
    # Tracing a checkpoint on its own dataset: gamma column equals the model
    # evaluated at the stored relative states.
    from respalloc.data import weaving_scene
    model = load_model(relative_checkpoint)
    scene = weaving_scene()
    samples = [s for s in load_trajectories(weaving_dataset)
               if s.trajectory_id == 1]
    for line, s in zip(lines[2:], samples):
        g1 = float(line.split(",")[1])
        assert g1 == pytest.approx(model.gamma(scene.filter_state(s.x))[0],
                                   abs=1e-12)


def test_trace_rejects_missing_trajectory(relative_checkpoint, weaving_dataset,
                                          tmp_path):
    assert run(["trace", "--checkpoint", relative_checkpoint,
                "--dataset", weaving_dataset, "--traj-id", 99,
                "--out", tmp_path / "x.csv"]) == 2


def test_bench_outputs_rows_and_exponent(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert run(["bench", "--sizes", "8,16,32", "--repeats", 2,
                "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "batch_size,loss_grad_ms"
    assert len(lines) == 2 + 3
    captured = capsys.readouterr().out
    assert "fitted scaling exponent" in captured

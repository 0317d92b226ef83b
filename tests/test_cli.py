import json
from dataclasses import replace

import numpy as np
import pytest

from respalloc import cli
from respalloc.cli import main
from respalloc.data import (active_fraction, load_trajectories, read_header,
                            save_trajectories, two_agent_line_scene, weaving_scene)
from respalloc.filter_qp import solve_filter
from respalloc.models import ConstantGamma, init_model, load_model, save_model


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


@pytest.mark.parametrize("line,text,message", [
    (0, "5", "header must be a JSON object"),
    (0, '{"state_dim": "2"}', "header state_dim must be a nonnegative integer"),
    (1, "5", "record 0 (line 2): record must be a JSON object"),
    (1, '["trajectory_id", "t", "x", "u"]', "record 0 (line 2): record must be a JSON object"),
    (1, '{"trajectory_id": 0, "t": 1' + "0" * 400 + ', "x": [0.0, 2.0], "u": [[0.0], [0.0]]}',
     "record 0 (line 2): t must be a finite number"),
    (1, '{"trajectory_id": 0, "t": 0.0, "x": [0.0, 2.0], "u": [[1' + "0" * 400 + '], [0.0]]}',
     "record 0 (line 2): non-finite value in u"),
], ids=["header-number", "header-dim-str", "record-number", "record-list", "t-overflow",
        "u-overflow"])
def test_train_on_a_malformed_dataset_exits_2(small_dataset, line, text, message, tmp_path,
                                              capsys):
    lines = small_dataset.read_text().splitlines()
    if line == 0 and text.startswith("{"):
        text = json.dumps({**json.loads(lines[0]), **json.loads(text)})
    lines[line] = text
    path = tmp_path / "bad.ndjson"
    path.write_text("\n".join(lines) + "\n")
    assert run(["train", "--dataset", path, "--model", "constant", "--epochs", 1]) == 2
    err = capsys.readouterr().err
    assert f"{path}: {message}" in err and "Traceback" not in err


def test_train_rejects_a_dataset_that_does_not_fit_the_scene(small_dataset, capsys,
                                                            monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("fit ran on a mismatched dataset")

    monkeypatch.setattr(cli, "fit", no_fit)
    assert run(["train", "--dataset", small_dataset, "--scene", "synthetic-6agent",
                "--model", "constant", "--epochs", 1]) == 2
    err = capsys.readouterr().err
    for shape in ("(2,)", "(2, 1)", "(24,)", "(6, 2)"):
        assert shape in err


@pytest.mark.parametrize("flags,name", [
    (["--huber-delta=-1"], "huber_delta"), (["--huber-delta", 0], "huber_delta"),
    (["--lr", "nan"], "learning_rate"), (["--lr", "inf"], "learning_rate"),
    (["--beta1=-1"], "beta1"), (["--beta2=-1"], "beta2")])
def test_train_rejects_bad_training_numbers(flags, name, small_dataset, tmp_path, capsys):
    ckpt = tmp_path / "m.json"
    assert run(["train", "--dataset", small_dataset, "--model", "constant", "--epochs", 2,
                *flags, "--checkpoint-out", ckpt]) == 2
    assert name in capsys.readouterr().err
    assert not ckpt.exists()


@pytest.mark.parametrize("flags,name", [
    (["--scenario", "synthetic-2agent", "--noise", "nan"], "noise_variance"),
    (["--scenario", "synthetic-2agent", "--noise", "inf"], "noise_variance"),
    (["--scenario", "weaving-mixed", "--noise", "nan"], "noise_variance"),
    (["--scenario", "synthetic-2agent", "--beta1=-1"], "beta1"),
    (["--scenario", "weaving-mixed", "--beta2=-1"], "beta2"),
    (["--scenario", "weaving-single", "--steps", "0"], "steps"),
    (["--scenario", "weaving-single", "--steps=-3"], "steps"),
    (["--scenario", "synthetic-2agent", "--gamma", "nan"], "--gamma"),
    (["--scenario", "synthetic-2agent", "--gamma", "inf"], "--gamma"),
    (["--scenario", "synthetic-6agent", "--gamma", "nan,0,0,0,0,1"], "--gamma")])
def test_generate_rejects_bad_noise_and_filter_weights(flags, name, tmp_path, capsys):
    out = tmp_path / "d.ndjson"
    assert run(["generate", *flags, "--out", out]) == 2
    assert name in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind,dims,scenario,have,need", [
    ("constant", {"n_agents": 3}, "synthetic-2agent", "3 agents, context size 0",
     "2 agents and context size 2"),
    ("relative", {"context_dim": 4}, "synthetic-6agent", "2 agents, context size 4",
     "6 agents and context size 24"),
    ("symmetric", {"n_agents": 6, "agent_dim": 4}, "weaving-mixed",
     "6 agents, context size 24", "2 agents and context size 4")])
def test_generate_rejects_a_truth_checkpoint_that_does_not_fit(kind, dims, scenario, have,
                                                               need, tmp_path, capsys):
    ckpt, out = tmp_path / "truth.json", tmp_path / "d.ndjson"
    model = init_model(kind, seed=0, **dims)
    save_model(model, ckpt)
    assert run(["generate", "--scenario", scenario, "--gamma-model", ckpt,
                "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"checkpoint {ckpt} holds a {kind} model" in err
    assert str(model.checkpoint_dims()) in err and have in err
    assert f"scenario {scenario!r} needs {need}" in err
    assert not out.exists()


def test_generate_names_a_missing_truth_checkpoint(tmp_path, capsys):
    missing = tmp_path / "none.json"
    assert run(["generate", "--gamma-model", missing, "--out", tmp_path / "d.ndjson"]) == 2
    assert f"checkpoint not found: {missing}" in capsys.readouterr().err


@pytest.mark.parametrize("scenario,flag,value", [
    ("weaving-single", "n", 4), ("weaving-mixed", "n", 128),
    ("synthetic-2agent", "count", 2), ("synthetic-6agent", "steps", 3),
    ("synthetic-2agent", "steps", 150)])
@pytest.mark.parametrize("via_config", [False, True])
def test_generate_rejects_flags_of_the_other_scenario_family(scenario, flag, value,
                                                             via_config, tmp_path, capsys):
    out, cfgfile = tmp_path / "d.ndjson", tmp_path / "cfg.json"
    if via_config:
        cfgfile.write_text(json.dumps({"scenario": scenario, flag: value}))
        argv = ["generate", "--config", cfgfile, "--out", out]
    else:
        argv = ["generate", "--scenario", scenario, f"--{flag}", value, "--out", out]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert f"--{flag} does not apply to scenario {scenario!r}" in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["hidden", "n-hidden"])
@pytest.mark.parametrize("via_config", [False, True])
def test_train_rejects_network_flags_for_the_constant_model(flag, via_config, small_dataset,
                                                            tmp_path, capsys):
    ckpt, cfgfile = tmp_path / "m.json", tmp_path / "cfg.json"
    if via_config:
        cfgfile.write_text(json.dumps({flag.replace("-", "_"): 8}))
        argv = ["train", "--config", cfgfile]
    else:
        argv = ["train", f"--{flag}", 8]
    assert run(argv + ["--dataset", small_dataset, "--epochs", 2, "--checkpoint-out", ckpt]) == 2
    assert f"--{flag} does not apply to model 'constant'" in capsys.readouterr().err
    assert not ckpt.exists()


@pytest.mark.parametrize("flag", ["--beta1", "--beta2"])
def test_trace_takes_no_filter_gains(flag, relative_checkpoint, weaving_dataset,
                                     tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert run(["trace", "--checkpoint", relative_checkpoint, "--dataset", weaving_dataset,
                flag, 1.0, "--out", out]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def test_generate_echoes_the_scenario_flags_it_used(weaving_dataset, tmp_path):
    echo = read_header(weaving_dataset)["config"]
    assert (echo["n"], echo["count"], echo["steps"]) == (None, 2, 40)
    path = tmp_path / "defaults.ndjson"
    assert run(["generate", "--scenario", "weaving-single", "--noise", 0,
                "--out", path]) == 0
    echo = read_header(path)["config"]
    assert (echo["n"], echo["count"], echo["steps"]) == (None, 8, 150)
    assert len(load_trajectories(path)) == 8 * 150
    # An echoed configuration reads back as a --config file.
    cfgfile, again = tmp_path / "cfg.json", tmp_path / "again.ndjson"
    cfgfile.write_text(json.dumps({**echo, "out": str(again)}))
    assert run(["generate", "--config", cfgfile]) == 0
    assert load_trajectories(again)[-1].u.tolist() == load_trajectories(path)[-1].u.tolist()


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


@pytest.mark.parametrize("command,doc,key", [
    ("train", {"epochs": 2.5}, "epochs"),
    ("landscape", {"res": 2.5}, "res"),
    ("landscape", {"range1": [0]}, "range1"),
    ("landscape", {"range2": [1, 2, 3]}, "range2"),
    ("train", {"model": "foo"}, "model"),
    ("train", {"huber-delta": 1}, "huber-delta"),
    ("train", {"epochs": {"n": 3}}, "epochs"),
    ("train", {"batch": [8, 16]}, "batch"),
    ("train", {"lr": True}, "lr"),
])
def test_bad_config_values_exit_2_naming_key_and_file(command, doc, key, tmp_path,
                                                      capsys, monkeypatch):
    monkeypatch.setitem(cli.COMMANDS, command, lambda cfg: pytest.fail("command ran"))
    cfgfile = tmp_path / "bad.json"
    cfgfile.write_text(json.dumps(doc))
    assert run([command, "--config", cfgfile]) == 2
    err = capsys.readouterr().err
    assert key in err and str(cfgfile) in err
    assert "Traceback" not in err


def test_config_file_values_are_read_as_flags(monkeypatch, tmp_path):
    seen = []
    monkeypatch.setitem(cli.COMMANDS, "train", lambda cfg: seen.append(cfg) or 0)
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"epochs": "3", "lr": 1, "trace_csv": None,
                                   "report_out": "-r.json"}))
    assert run(["train", "--config", cfgfile]) == 0
    assert run(["train", "--epochs", "3", "--lr", "1", "--report-out=-r.json"]) == 0
    from_file, from_flags = seen
    assert from_file == from_flags
    assert from_file["epochs"] == 3 and from_file["lr"] == 1.0
    assert from_file["trace_csv"] is None


def test_usage_errors_return_2_and_help_exits_0(small_dataset, capsys):
    assert run(["train", "--dataset", small_dataset, "--epoch", 3]) == 2
    assert "--epoch" in capsys.readouterr().err
    assert run(["train", "--epochs", "x"]) == 2
    assert run(["fit"]) == 2
    assert run([]) == 2
    with pytest.raises(SystemExit) as exc:
        run(["train", "--help"])
    assert exc.value.code == 0


# The command-line examples of README.md and the configuration each one
# echoes into its artifact.
README_ECHOES = [
    ("generate --scenario synthetic-2agent --n 128 --gamma 0.3 --seed 1 --out data.ndjson",
     {"scenario": "synthetic-2agent", "n": 128, "count": None, "gamma": "0.3",
      "gamma_model": None, "noise": 0.1, "seed": 1, "beta1": 0.1, "beta2": 600.0,
      "steps": None, "out": "data.ndjson"}),
    ("train --dataset data.ndjson --model constant --epochs 200 --batch 8 --lr 0.005 "
     "--optimizer sgd --checkpoint-out model.json --report-out report.json",
     {"dataset": "data.ndjson", "model": "constant", "scene": None, "epochs": 200,
      "batch": 8, "lr": 0.005, "optimizer": "sgd", "loss": "huber", "huber_delta": 1.0,
      "beta1": 0.1, "beta2": 600.0, "seed": 0, "checkpoint_out": "model.json",
      "report_out": "report.json", "trace_csv": None, "hidden": None, "n_hidden": None}),
    ("generate --scenario weaving-rear-overtake --count 6 --noise 0.05 --seed 5 "
     "--out weave.ndjson",
     {"scenario": "weaving-rear-overtake", "n": None, "count": 6, "gamma": None,
      "gamma_model": None, "noise": 0.05, "seed": 5, "beta1": 0.1, "beta2": 600.0,
      "steps": 150, "out": "weave.ndjson"}),
    ("train --dataset weave.ndjson --model relative --epochs 80 --batch 256 --lr 3e-3 "
     "--checkpoint-out sym.json",
     {"dataset": "weave.ndjson", "model": "relative", "scene": None, "epochs": 80,
      "batch": 256, "lr": 0.003, "optimizer": "adam", "loss": "huber",
      "huber_delta": 1.0, "beta1": 0.1, "beta2": 600.0, "seed": 0,
      "checkpoint_out": "sym.json", "report_out": None, "trace_csv": None,
      "hidden": 16, "n_hidden": 3}),
    ("landscape --checkpoint sym.json --axes r_lon,vr_lon --range1 -15 15 --range2 -4 4 "
     "--res 41 --fixed r_lat=3.7,vr_lat=0 --out landscape.csv",
     {"checkpoint": "sym.json", "out": "landscape.csv", "axes": "r_lon,vr_lon",
      "range1": [-15.0, 15.0], "range2": [-4.0, 4.0], "res": 41,
      "fixed": "r_lat=3.7,vr_lat=0", "beta1": 0.1, "beta2": 600.0, "ref_lon": 0.0,
      "ref_lat": -1.85, "ref_speed": 10.0}),
    ("trace --checkpoint sym.json --dataset weave.ndjson --traj-id 0 --out trace.csv",
     {"checkpoint": "sym.json", "dataset": "weave.ndjson", "traj_id": 0,
      "out": "trace.csv"}),
    ("bench --sizes 8,16,32,64,128,256,512 --out bench.csv",
     {"sizes": "8,16,32,64,128,256,512", "repeats": 5, "seed": 0, "out": "bench.csv",
      "beta1": 0.1, "beta2": 600.0}),
]


@pytest.mark.parametrize("argv,echo", README_ECHOES)
def test_readme_commands_echo_their_configuration(argv, echo, monkeypatch):
    seen = []
    command = argv.split()[0]
    monkeypatch.setitem(cli.COMMANDS, command, lambda cfg: seen.append(cfg) or 0)
    assert run(argv.split()) == 0
    # The text compare also pins the key order of the CSV "# config:" line.
    assert json.dumps(seen[0]) == json.dumps(echo)


@pytest.fixture(scope="module")
def relative_checkpoint(weaving_dataset, tmp_path_factory):
    ckpt = tmp_path_factory.mktemp("cli") / "rel.json"
    assert run(["train", "--dataset", weaving_dataset, "--model", "relative",
                "--epochs", 15, "--batch", 32, "--lr", 1e-3, "--seed", 0,
                "--checkpoint-out", ckpt]) == 0
    return ckpt


def test_network_report_holds_the_probe_trace(weaving_dataset, tmp_path):
    report, ckpt = tmp_path / "report.json", tmp_path / "m.json"
    assert run(["train", "--dataset", weaving_dataset, "--model", "relative", "--epochs", 3,
                "--batch", 32, "--report-out", report, "--checkpoint-out", ckpt]) == 0
    doc = json.loads(report.read_text())
    probes, trace = np.array(doc["probe_contexts"]), np.array(doc["probe_trace"])
    assert probes.shape == (16, 4) and trace.shape == (3, 16, 2)
    assert "gamma_trace" not in doc and "probe_count" not in doc["config"]
    # The last epoch's row is the fitted model's allocation at the probes.
    np.testing.assert_array_equal(trace[-1], load_model(ckpt).gamma_batch(probes))


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


def test_parser_is_built_once_and_shared_without_leaks(relative_checkpoint, tmp_path):
    assert cli.build_parser() is cli.build_parser()
    out = tmp_path / "land.csv"
    assert run(["landscape", "--checkpoint", relative_checkpoint, "--out", out,
                "--res", 7, "--range1", -1, 1]) == 0
    assert len(out.read_text().splitlines()) == 2 + 49
    assert run(["landscape", "--checkpoint", relative_checkpoint, "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2 + 625
    echo = json.loads(lines[0][len("# config: "):])
    assert echo["res"] == 25 and echo["range1"] == [-15.0, 15.0]


def test_negative_values_with_exponents_are_values(relative_checkpoint, tmp_path):
    out, cfgfile = tmp_path / "land.csv", tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"range1": [-1e-05, 3]}))
    for flags, key, want in ((["--range1", "-1e-3", "1"], "range1", [-1e-3, 1.0]),
                             (["--range1", "-1", "-.5"], "range1", [-1.0, -0.5]),
                             (["--ref-lat", "-1e-3"], "ref_lat", -1e-3),
                             (["--range2", "-2.5E+1", "-1e0"], "range2", [-25.0, -1.0]),
                             (["--config", cfgfile], "range1", [-1e-05, 3.0])):
        assert run(["landscape", "--checkpoint", relative_checkpoint, "--out", out,
                    "--res", 3] + flags) == 0
        echo = json.loads(out.read_text().splitlines()[0][len("# config: "):])
        assert echo[key] == want


def test_malformed_checkpoint_exits_2(weaving_dataset, tmp_path, capsys):
    ckpt = tmp_path / "bad.json"
    save_model(ConstantGamma(2), ckpt)
    doc = json.loads(ckpt.read_text())
    doc["dims"] = {}
    ckpt.write_text(json.dumps(doc))
    for argv in (["landscape", "--checkpoint", ckpt, "--out", tmp_path / "l.csv"],
                 ["trace", "--checkpoint", ckpt, "--dataset", weaving_dataset,
                  "--out", tmp_path / "t.csv"],
                 ["generate", "--gamma-model", ckpt, "--n", 4,
                  "--out", tmp_path / "d.ndjson"]):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and "n_agents" in err


def test_non_finite_checkpoint_exits_2_and_writes_nothing(relative_checkpoint,
                                                          weaving_dataset, tmp_path, capsys):
    ckpt = tmp_path / "nan.json"
    doc = json.loads(relative_checkpoint.read_text())
    doc["params"][3] = float("nan")
    ckpt.write_text(json.dumps(doc))
    out = tmp_path / "out.csv"
    for argv in (["landscape", "--checkpoint", ckpt, "--out", out],
                 ["trace", "--checkpoint", ckpt, "--dataset", weaving_dataset, "--out", out]):
        assert run(argv) == 2
        assert f"{ckpt}: parameter 3 is nan" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("model", [ConstantGamma(6),
                                   init_model("mlp", seed=0, n_agents=3, context_dim=4)],
                         ids=["constant6", "mlp3"])
def test_exports_refuse_a_checkpoint_that_does_not_allocate_over_two_agents(
        model, weaving_dataset, tmp_path, capsys):
    # landscape and trace plot gamma1 of two cars; a share of more agents is not that.
    ckpt = tmp_path / "many.json"
    save_model(model, ckpt)
    out = tmp_path / "out.csv"
    for argv in (["landscape", "--checkpoint", ckpt, "--out", out, "--res", 3],
                 ["trace", "--checkpoint", ckpt, "--dataset", weaving_dataset, "--out", out]):
        assert run(argv) == 2
        assert f"allocates over {model.n_agents} agents" in capsys.readouterr().err
        assert not out.exists()


def test_landscape_rejects_bad_axes(relative_checkpoint, tmp_path, capsys):
    assert run(["landscape", "--checkpoint", relative_checkpoint,
                "--out", tmp_path / "x.csv", "--axes", "r_lon,theta"]) == 2
    assert run(["landscape", "--checkpoint", relative_checkpoint,
                "--out", tmp_path / "x.csv", "--fixed", "vr_lon=fast"]) == 2
    assert "bad --fixed value 'vr_lon=fast'" in capsys.readouterr().err
    # Non-finite values name their flag, not the dynamics that would reject them.
    for flags, name in ((["--fixed", "vr_lon=nan"], "bad --fixed value 'vr_lon=nan'"),
                        (["--range1", "nan", "1"], "--range1 must be finite"),
                        (["--ref-speed", "nan"], "--ref-speed must be finite")):
        assert run(["landscape", "--checkpoint", relative_checkpoint,
                    "--out", tmp_path / "x.csv", *flags]) == 2
        err = capsys.readouterr().err
        assert name in err and "non-finite state" not in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("flags,name", [
    (["--axes", "r_lon,r_lon"], "--axes must name two different axes"),
    (["--axes", "r_lon,vr_lon", "--fixed", "r_lat=1,vr_lon=2"],
     "--fixed sets 'vr_lon', an axis that --axes plots")])
def test_landscape_rejects_axes_it_would_not_plot(flags, name, relative_checkpoint,
                                                  tmp_path, capsys):
    # Either would write grid columns that differ from the states evaluated.
    out = tmp_path / "x.csv"
    assert run(["landscape", "--checkpoint", relative_checkpoint, "--out", out,
                "--res", 3, *flags]) == 2
    assert name in capsys.readouterr().err
    assert not out.exists()


def test_landscape_rejects_an_axis_fixed_twice(relative_checkpoint, tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert run(["landscape", "--checkpoint", relative_checkpoint, "--out", out,
                "--res", 3, "--fixed", "vr_lon=1,vr_lat=0,vr_lon=5"]) == 2
    assert "--fixed sets 'vr_lon' twice" in capsys.readouterr().err
    assert not out.exists()


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


def test_trace_rejects_a_dataset_without_two_controls_per_agent(
        relative_checkpoint, weaving_dataset, tmp_path, capsys):
    # Two agents and 8-entry states, but one control each: the trace's four
    # control columns would mix the samples' controls.
    samples = load_trajectories(weaving_dataset)
    path = tmp_path / "one-control.ndjson"
    save_trajectories(replace(samples, u=samples.u[:, :, :1], u_des=samples.u_des[:, :, :1]),
                      path, scenario="weaving-single")
    out = tmp_path / "x.csv"
    assert run(["trace", "--checkpoint", relative_checkpoint, "--dataset", path,
                "--out", out]) == 2
    assert "controls of shape (2, 1)" in capsys.readouterr().err
    assert not out.exists()


def test_bench_outputs_rows_and_exponent(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert run(["bench", "--sizes", "8,16,32", "--repeats", 2,
                "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "batch_size,loss_grad_ms"
    assert len(lines) == 2 + 3
    captured = capsys.readouterr().out
    assert "fitted scaling exponent" in captured


@pytest.mark.parametrize("flags,name", [(["--sizes", "8"], "--sizes"),
                                        (["--sizes", "8,8"], "--sizes"),
                                        (["--repeats", "0"], "--repeats")])
def test_bench_rejects_one_size_and_no_repeats(flags, name, capsys):
    assert run(["bench", *flags]) == 2
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err

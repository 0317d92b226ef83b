import os
import subprocess
import sys

from respalloc.data import load_trajectories, read_header

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WEAVING_OUTPUTS = ["landscape_symmetric.csv", "landscape_unconstrained.csv",
                   "rear_overtake.ndjson", "symmetric.json", "symmetric_report.json",
                   "trace_traj0.csv", "unconstrained.json", "unconstrained_report.json"]


def test_weaving_experiments_script_writes_every_output(tmp_path):
    out = tmp_path / "weaving"
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "weaving_experiments.py"),
         "--count", "1", "--epochs", "1", "--out-dir", str(out)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert sorted(os.listdir(out)) == WEAVING_OUTPUTS
    dataset = out / "rear_overtake.ndjson"
    assert read_header(dataset)["scenario"] == "weaving-rear-overtake"
    samples = load_trajectories(dataset)
    assert len(samples) == 150 and samples.has_u_des.all()

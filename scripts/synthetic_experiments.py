#!/usr/bin/env python3
"""Synthetic recovery studies: constant, many-agent, and time-varying truths.

Writes loss/estimate traces and a batch-size timing sweep as CSV files so the
figures can be plotted externally.

    python3 scripts/synthetic_experiments.py --out-dir results/synthetic
"""

import argparse
import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from respalloc import cli  # noqa: E402
from respalloc.data import (atomic_write,  # noqa: E402
                            default_planar_group_config, default_two_agent_config,
                            generate_synthetic, planar_group_scene,
                            two_agent_line_scene)
from respalloc.models import ConstantGamma  # noqa: E402
from respalloc.training import TrainConfig, fit, fit_windows  # noqa: E402


def two_agent_study(out_dir, seed=0):
    scene = two_agent_line_scene()
    cfg = default_two_agent_config(n_samples=128, noise_variance=0.1, seed=seed)
    samples = generate_synthetic(cfg, scene, np.array([0.3, 0.7]))
    model = ConstantGamma(2)
    tc = TrainConfig(epochs=200, batch_size=8, learning_rate=0.005,
                     optimizer="sgd", seed=seed)
    report = fit(samples, model, scene, tc)
    report.save_trace_csv(os.path.join(out_dir, "two_agent_trace.csv"))
    print(f"two-agent truth 0.30 -> estimate {model.gamma()[0]:.4f}")


def six_agent_study(out_dir, seed=0):
    scene = planar_group_scene(6)
    truth = np.random.default_rng(seed).dirichlet(np.ones(6))
    cfg = default_planar_group_config(6, n_samples=128, noise_variance=0.1,
                                      seed=seed)
    samples = generate_synthetic(cfg, scene, truth)
    model = ConstantGamma(6)
    tc = TrainConfig(epochs=200, batch_size=8, learning_rate=0.05,
                     optimizer="sgd", seed=seed)
    report = fit(samples, model, scene, tc)
    report.save_trace_csv(os.path.join(out_dir, "six_agent_trace.csv"))
    err = np.max(np.abs(model.gamma() - truth))
    atomic_write(os.path.join(out_dir, "six_agent_truth.json"),
                 json.dumps({"truth": truth.tolist(), "estimate": model.gamma().tolist()}))
    print(f"six-agent max per-agent error {err:.4f}")


def time_varying_study(out_dir, seed=0):
    scene = two_agent_line_scene()
    cfg = default_two_agent_config(n_samples=192, noise_variance=0.1, seed=seed)
    levels = [0.2, 0.5, 0.8]

    def schedule(k, x):
        g1 = levels[min(k // 64, 2)]
        return np.array([g1, 1.0 - g1])

    samples = generate_synthetic(cfg, scene, schedule)
    tc = TrainConfig(epochs=120, batch_size=8, learning_rate=0.005,
                     optimizer="sgd", seed=seed)
    estimates = fit_windows(samples, scene, tc, n_windows=3)
    rows = ["window,truth,estimate"]
    for w, level in enumerate(levels):
        rows.append(f"{w},{level},{float(estimates[w][0])!r}")
        print(f"window {w}: truth {level:.2f} estimate {estimates[w][0]:.3f}")
    atomic_write(os.path.join(out_dir, "time_varying.csv"), "\n".join(rows) + "\n")


def timing_sweep(out_dir, seed=0):
    """Loss+gradient time over batch sizes, via ``respalloc bench``."""
    cli.main(["bench", "--seed", str(seed), "--out", os.path.join(out_dir, "timing.csv")])


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results/synthetic")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)
    two_agent_study(args.out_dir, args.seed)
    six_agent_study(args.out_dir, args.seed)
    time_varying_study(args.out_dir, args.seed)
    timing_sweep(args.out_dir, args.seed)


if __name__ == "__main__":
    main()

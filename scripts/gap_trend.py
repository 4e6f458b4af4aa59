#!/usr/bin/env python3
"""Relaxation-gap trend over grid size for the binary-matrix pipeline.

For each size, solves a batch of seeded grids, measures the relaxation gap
against the best labeling found (exhaustive where the state space allows,
otherwise greedy refinements of the rounded labeling), and reports the
median per size plus a Mann-Kendall trend test.  Gaps are percentages of
|best energy| as mrfsdp.compute_metrics takes them; a seed whose best
energy is 0 has none.

    python scripts/gap_trend.py --sizes 4x4,8x8,16x16 --seeds 10
"""

import argparse
import sys

import numpy as np

from mrfsdp import (
    brute_force,
    compute_metrics,
    fuses_solve,
    generate_grid_instance,
    icm,
    mann_kendall_positive_p,
    unary_argmax_labeling,
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="4x4,8x8,16x16")
    parser.add_argument("--labels", type=int, default=3)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--noise", type=float, default=0.3)
    parser.add_argument("--budget", type=int, default=20_000_000)
    args = parser.parse_args(argv)

    medians = []
    print("num_nodes\tmedian_relax_gap_pct\tn_exact_reference")
    for token in args.sizes.split(","):
        rows, _, cols = token.strip().partition("x")
        gaps, n_exact = [], 0
        for seed in range(args.seeds):
            inst = generate_grid_instance(int(rows), int(cols), args.labels,
                                          unary_noise=args.noise, seed=seed)
            res = fuses_solve(inst, seed=seed)
            candidates = [res.f_rounded,
                          icm(inst, unary_argmax_labeling(inst))[1],
                          icm(inst, res.labeling)[1]]
            if inst.num_labels ** inst.num_nodes <= args.budget:
                candidates.append(brute_force(inst, budget=args.budget).f_opt)
                n_exact += 1
            gap = compute_metrics(res.labeling, res.f_rounded,
                                  f_relaxed=res.f_relaxed,
                                  f_opt=min(candidates)).relaxation_gap_pct
            if gap is not None:
                gaps.append(gap)
        med = float(np.median(gaps))
        medians.append(med)
        print(f"{int(rows) * int(cols)}\t{med:.4f}\t{n_exact}")
    s_stat, p = mann_kendall_positive_p(medians)
    print(f"# Mann-Kendall S={s_stat}, one-sided p(positive trend)={p:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

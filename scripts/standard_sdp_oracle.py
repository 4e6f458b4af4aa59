#!/usr/bin/env python3
"""Reference solver for both SDP relaxations, for independent cross-checks.

Douglas-Rachford splitting with exact closed-form projections for the two
prox steps (affine constraint set, PSD cone).  Dense and slow, but
methodically unrelated to the low-rank staircase pipeline.

Supported relaxations:
  pm: min trace(L Y), diag(Y) = 1, per-node block sums of the last
      column equal 2 - K, Y PSD  (the dual-ascent pipeline's target);
  zo: min trace(Q Z), unit diagonal on the node block, identity on the
      label block, Z PSD  (the binary-matrix pipeline's target).

The frozen constants in tests/test_dars.py were produced by this script
(tests/test_scripts.py re-derives them).

Usage:
    python scripts/standard_sdp_oracle.py --instance inst.json --encoding pm
    python scripts/standard_sdp_oracle.py --frozen-case --encoding zo
"""

import argparse
import sys

import numpy as np


def project_affine_pm(Y, num_nodes, num_labels, rhs):
    Y = 0.5 * (Y + Y.T)
    np.fill_diagonal(Y, 1.0)
    last = num_nodes * num_labels
    for i in range(num_nodes):
        blk = slice(i * num_labels, (i + 1) * num_labels)
        r = (Y[blk, last].sum() - rhs) / num_labels
        Y[blk, last] -= r
        Y[last, blk] -= r
    return Y


def project_affine_zo(Z, num_nodes, num_labels):
    Z = 0.5 * (Z + Z.T)
    d = np.diag(Z).copy()
    d[:num_nodes] = 1.0
    np.fill_diagonal(Z, d)
    Z[num_nodes:, num_nodes:] = np.eye(num_labels)
    return Z


def project_psd(Y):
    w, V = np.linalg.eigh(0.5 * (Y + Y.T))
    return (V * np.clip(w, 0.0, None)) @ V.T


def solve_relaxation(M, project_affine, iters=200_000, step=0.5, tol=1e-14):
    """Douglas-Rachford: prox_f(V) = Pi_affine(V - step * M), prox_g = Pi_psd.
    Returns (objective, Y, residuals)."""
    Md = M.toarray() if hasattr(M, "toarray") else np.asarray(M)
    Z = np.eye(Md.shape[0])
    Y = W = Z
    prev = np.inf
    for k in range(iters):
        Y = project_affine(Z - step * Md)
        W = project_psd(2.0 * Y - Z)
        Z = Z + W - Y
        if k % 200 == 199:
            val = float(np.sum(Md * Y))
            if (abs(val - prev) < tol * max(1.0, abs(val))
                    and np.max(np.abs(Y - W)) < 1e-10):
                break
            prev = val
    value = float(np.sum(Md * Y))
    eigs = np.linalg.eigvalsh(Y)
    residuals = {
        "psd": float(-min(eigs.min(), 0.0)),
        "split": float(np.max(np.abs(Y - W))),
    }
    return value, Y, residuals


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instance", help="instance file to solve")
    parser.add_argument("--encoding", choices=("pm", "zo"), default="pm")
    parser.add_argument("--frozen-case", action="store_true",
                        help="re-derive the constants frozen in the tests")
    parser.add_argument("--iters", type=int, default=200_000)
    args = parser.parse_args(argv)

    from mrfsdp.encode_pm import encode_pm
    from mrfsdp.encode_zo import encode_zo
    from mrfsdp.formats import load_instance

    if args.frozen_case:
        from test_dars import TEST_INSTANCE  # run from tests/ on sys.path
        inst = TEST_INSTANCE
    elif args.instance:
        inst = load_instance(args.instance)
    else:
        parser.error("need --instance or --frozen-case")
    n, k = inst.num_nodes, inst.num_labels
    if args.encoding == "pm":
        enc = encode_pm(inst)
        M = enc.L
        project = lambda V: project_affine_pm(V, n, k, float(2 - k))
    else:
        enc = encode_zo(inst)
        M = enc.Q
        project = lambda V: project_affine_zo(V, n, k)
    value, _, residuals = solve_relaxation(M, project, iters=args.iters)
    print(f"relaxation objective (matrix scale) = {value!r}")
    print(f"relaxation objective + offset       = {value + enc.offset!r}")
    print(f"residuals: {residuals}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, "tests")
    sys.exit(main())

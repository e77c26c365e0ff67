#!/usr/bin/env python3
"""Walkthrough: exact inference in a linear-chain log-linear model.

Builds a toy two-label model over a three-token sentence, then shows that
the lattice dynamic programs (partition function, feature expectations,
sampling, MAP decoding) agree with brute-force enumeration of all 8
labelings.
"""

import numpy as np

import banditchain as bc


def main():
    alphabet = bc.LabelAlphabet(("A", "B"))
    model = bc.ChainModel(alphabet)
    x = bc.ChainInstance(tokens=("moss", "fern", "moss"), gold=("A", "B", "A"))

    rng = np.random.default_rng(7)
    fids = model.instance_feature_ids(x)
    w = bc.SparseVector({f: float(v) for f, v in zip(fids, rng.normal(0, 1, len(fids)))})
    print(f"model: {len(fids)} features for {len(x)} tokens x {len(alphabet)} labels\n")

    # every quantity below is computed twice: fast lattice DP vs enumeration
    dist = bc.distribution(model, w, x)
    post = bc.posterior(model, w, x)
    print(f"log Z      dp={post.log_z:.12f}  enum={dist.log_z:.12f}")

    ef_dp = post.to_sparse(post.expected()[0])
    ef_enum = dist.expected_features()
    gap = max(abs(ef_dp[f] - ef_enum[f]) for f in ef_dp.support() | ef_enum.support())
    print(f"E[phi]     max coordinate gap dp vs enum: {gap:.2e}")

    paths, _ = bc.map_decode_paths(model, w, [x])  # Viterbi over a batch of one
    best = tuple(alphabet.label(i) for i in paths[0])
    print("\nall 8 labelings with their exact probabilities:")
    for y, p in zip(dist.labelings, dist.probs):
        marker = " <- MAP" if y == best else ""
        print(f"  {''.join(y)}  p={p:.6f}{marker}")
    print(f"  sum of probabilities: {dist.probs.sum():.12f}")

    # exact sampling: empirical frequencies approach the true distribution
    (draws,) = post.sample_many(50_000, np.random.default_rng(1))
    counts = {}
    for row in map(tuple, draws.tolist()):
        counts[row] = counts.get(row, 0) + 1
    print("\n50k exact samples vs true probabilities:")
    for y, p in zip(dist.labelings, dist.probs):
        key = tuple(alphabet.index(lab) for lab in y)
        print(f"  {''.join(y)}  empirical={counts.get(key, 0) / 50_000:.4f}  true={p:.4f}")


if __name__ == "__main__":
    main()

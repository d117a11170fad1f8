#!/usr/bin/env python3
"""Reduce a batch of random symmetric matrices and summarize the move costs.

Usage: random_reduction_demo.py [count] [max_size] [seed]
"""

import random
import sys

from kinkeq import NEG_SEMIDEFINITE, inertia, reduce, trace_stats
from kinkeq.exact import SymMatrix


def main():
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 100
    max_size = int(sys.argv[2]) if len(sys.argv) > 2 else 5
    seed = int(sys.argv[3]) if len(sys.argv) > 3 else 0
    rng = random.Random(seed)

    total_kinks = total_unkinks = slack = 0
    for _ in range(count):
        n = rng.randint(1, max_size)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(-4, 4)
        G = SymMatrix.from_rows(rows)
        n_plus = inertia(G).n_plus
        stats = trace_stats(reduce(G, NEG_SEMIDEFINITE))  # raises unless it verifies
        total_kinks += stats.neg_kinks
        total_unkinks += stats.pos_unkinks
        slack += 4 * n_plus - stats.neg_kinks

    print(f"{count} matrices reduced to negative-semidefinite form")
    print(f"total negative kinks: {total_kinks} (unused budget: {slack})")
    print(f"total positive unkinks: {total_unkinks}")


if __name__ == "__main__":
    main()

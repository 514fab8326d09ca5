#!/usr/bin/env python3
"""The cost of iWMM's HMC transitions by fit size.

For each size n, n distinct chips of a seeded random grid, standardized
by `iwmm.standardized` as `iwmm_fit` does, start a `LatentState` in two
clusters, the chips left and right of the mean (a fit's Gibbs sweeps
leave a few).  Every repeat then runs `--transitions` HMC transitions at
each size in turn (the sizes interleaved, so drift of a shared machine
reaches them alike), with the default kernel, `LEAPFROG_STEPS` and the
initial step size, and OpenBLAS on one thread.  The table gives, per
size, the median over repeats of the milliseconds per transition and
per call of the GPLVM field and of the exact energy (`_gplvm_ll`: the
n x n covariance, its factorization and the solve), and the calls of
each per transition.  It times `_nystrom_field` and `_gplvm_ll` through
their module attributes, in trees whose `LatentState(S, Z, A, kernel, h)`
holds the prior and whose `hmc_latent_step(state, eps, rng)` takes only
the state, its step size and the generator.

Usage:
    python scripts/hmc_cost.py [--sizes 32,64,106,160,240,377] [--repeats 7]
"""

import argparse
import math
import statistics
import time
from collections import Counter

import numpy as np

from waferspr import iwmm
from waferspr.iwmm import INITIAL_STEP_SIZE, GwHyper, KernelParams, LatentState, standardized
from waferspr.iwmm import _one_blas_thread

SIZES = (32, 64, 106, 160, 240, 377)
TIMED = ("_nystrom_field", "_gplvm_ll")


def grid_chips(n, rng):
    """n distinct chips of a random side x side grid, side = ceil(sqrt(3 n)),
    standardized as `iwmm_fit` standardizes its points."""
    side = math.ceil(math.sqrt(3 * n))
    cells = rng.choice(side * side, size=n, replace=False)
    return standardized(np.stack([cells // side, cells % side], axis=1).astype(float))


def _timed(name, seconds, calls):
    """iwmm.<name>, adding its wall time and calls under `name`."""
    inner = getattr(iwmm, name)

    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            seconds[name] += time.perf_counter() - t0
            calls[name] += 1

    return inner, wrapper


def measure(sizes=SIZES, repeats=7, transitions=20, seed=0):
    """{n: {"transition_ms", "<name>_ms", "<name>_calls" per TIMED name}},
    the medians over `repeats` interleaved rounds of `transitions` HMC
    transitions at each size."""
    _one_blas_thread()  # as iwmm_fit does; these transitions run outside a fit
    rng = np.random.default_rng(seed)
    h, kern = GwHyper(), KernelParams()
    runs = {}
    for n in sizes:
        S = grid_chips(n, rng)
        state = LatentState(S, S, 1 + (S[:, 0] > 0), kern, h)
        state.gplvm_ll_field()  # every transition starts from a cached field
        runs[n] = (state, np.random.default_rng(seed + n))
    samples = {n: [] for n in sizes}
    originals = {}
    seconds, calls = Counter(), Counter()
    for name in TIMED:
        originals[name], wrapper = _timed(name, seconds, calls)
        setattr(iwmm, name, wrapper)
    try:
        for _ in range(repeats):
            for n in sizes:
                state, step_rng = runs[n]
                seconds.clear()
                calls.clear()
                t0 = time.perf_counter()
                for _ in range(transitions):
                    iwmm.hmc_latent_step(state, INITIAL_STEP_SIZE, step_rng)
                row = {"transition_ms": 1e3 * (time.perf_counter() - t0) / transitions}
                for name in TIMED:
                    row[f"{name}_ms"] = 1e3 * seconds[name] / calls[name] if calls[name] else 0.0
                    row[f"{name}_calls"] = calls[name] / transitions
                samples[n].append(row)
    finally:
        for name, inner in originals.items():
            setattr(iwmm, name, inner)
    return {n: {key: statistics.median(row[key] for row in rows) for key in rows[0]}
            for n, rows in samples.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", default=",".join(map(str, SIZES)))
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--transitions", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    sizes = [int(tok) for tok in args.sizes.split(",") if tok]
    table = measure(sizes, args.repeats, args.transitions, args.seed)
    print("| n | ms per transition | ms per field call | field calls | "
          "ms per exact energy | exact energies |")
    print("|---|---|---|---|---|---|")
    for n, row in table.items():
        print(f"| {n} | {row['transition_ms']:.3f} | {row['_nystrom_field_ms']:.3f} | "
              f"{row['_nystrom_field_calls']:g} | {row['_gplvm_ll_ms']:.3f} | "
              f"{row['_gplvm_ll_calls']:g} |")


if __name__ == "__main__":
    main()

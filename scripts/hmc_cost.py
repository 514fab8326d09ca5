#!/usr/bin/env python3
"""The cost of iWMM's HMC transitions by fit size.

For each size n, n distinct chips of a seeded random grid, standardized
as `iwmm_fit` does, start a `LatentState` in two clusters, the chips left
and right of the mean (a fit's Gibbs sweeps leave a few).  Every repeat
then runs `--transitions` HMC transitions at each size in turn (the
sizes interleaved, so drift of a shared machine reaches them alike),
with the default kernel, leapfrog count and initial step size, and
OpenBLAS on one thread.  The table gives, per size, the
median over repeats of the milliseconds per transition and per call of
the GPLVM field and of the exact energy (`_gplvm_ll`: the n x n
covariance, its factorization and the solve), and the calls of each per
transition.  It reads only `hmc_latent_step`, `_nystrom_field` and
`_gplvm_ll`, so it times any tree that has them; in trees where
`_gplvm_ll` takes the covariance K as an argument, its time excludes
forming K.

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
from waferspr.cli import _one_blas_thread
from waferspr.iwmm import INITIAL_STEP_SIZE, GwHyper, KernelParams, LatentState, McmcConfig

SIZES = (32, 64, 106, 160, 240, 377)
TIMED = ("_nystrom_field", "_gplvm_ll")


def grid_chips(n, rng):
    """n distinct chips of a random side x side grid, side = ceil(sqrt(3 n)),
    standardized per axis."""
    side = math.ceil(math.sqrt(3 * n))
    cells = rng.choice(side * side, size=n, replace=False)
    coords = np.stack([cells // side, cells % side], axis=1).astype(float)
    sd = coords.std(axis=0)
    return (coords - coords.mean(axis=0)) / np.where(sd == 0, 1.0, sd)


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
    _one_blas_thread()
    rng = np.random.default_rng(seed)
    h, kern, steps = GwHyper(), KernelParams(), McmcConfig().leapfrog_steps
    runs = {}
    for n in sizes:
        S = grid_chips(n, rng)
        state = LatentState(S.copy(), 1 + (S[:, 0] > 0), kern)
        state.gplvm_ll_field(S)  # every transition starts from a cached field
        runs[n] = (state, S, np.random.default_rng(seed + n))
    samples = {n: [] for n in sizes}
    originals = {}
    seconds, calls = Counter(), Counter()
    for name in TIMED:
        originals[name], wrapper = _timed(name, seconds, calls)
        setattr(iwmm, name, wrapper)
    try:
        for _ in range(repeats):
            for n in sizes:
                state, S, step_rng = runs[n]
                seconds.clear()
                calls.clear()
                t0 = time.perf_counter()
                for _ in range(transitions):
                    iwmm.hmc_latent_step(state, S, h, INITIAL_STEP_SIZE, steps, step_rng)
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

#!/usr/bin/env python3
"""Monte Carlo check of the rank-bound probability on a large prime field.

Exhaustive counting over GF(101)^9 is hopeless, but the counting law
predicts that a uniformly random 9-tuple gives a 5x5 Hankel matrix of
rank <= 4 with probability exactly 1/101.  The sampler draws suffixes
from a counter-based seeded generator, so rerunning with the same seed
reproduces the estimate bit for bit.
"""

import time

from hankelcensus import CountQuery, FieldSpec, monte_carlo_rank_le
from hankelcensus.census import rank_le_probability, target_stderr

field = FieldSpec(101)
query = CountQuery(field, 4, 4, 4)
target = rank_le_probability(query)
print(f"field {field}, shape H_(4,4), bound rank <= 4")
print(f"predicted probability: {target} = {float(target):.6f}")

for trials in (10_000, 100_000):
    t0 = time.perf_counter()
    est = monte_carlo_rank_le(query, trials, rng_seed=7)
    dt = time.perf_counter() - t0
    # the spread under the predicted probability, as `sample` uses: the
    # estimate's own stderr is 0 when no trial succeeds
    z = float(est.estimate - target) / target_stderr(target, trials)
    print(
        f"{trials:>7} trials: {est.successes:>5} hits, "
        f"estimate {float(est.estimate):.6f} +- {est.stderr:.6f}, "
        f"z = {z:+.2f}  ({dt:.1f}s)"
    )

again = monte_carlo_rank_le(query, 10_000, rng_seed=7)
print("same seed reproduces the estimate:", again.estimate)

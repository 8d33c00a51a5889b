"""The one sampler behind the seeded draws of S_n in the tests and in CI."""

import random

from pipedual.permutations import Permutation


def sampled(n, count):
    """``count`` uniform draws from S_n, seeded with n."""
    rng = random.Random(n)
    return [Permutation(tuple(rng.sample(range(1, n + 1), n))) for _ in range(count)]

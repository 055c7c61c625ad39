"""Deterministic RNG plumbing.

Every random draw in the package comes from a counter-based Philox4x64
generator built by ``spawn_rng``, the one stream constructor, keyed through
``numpy.random.SeedSequence``; so a run is fully determined by the
user-facing integer seeds regardless of execution order.  A single seed
keys ``spawn_rng(seed)``: ``SeedSequence((seed,))`` has the same state as
``SeedSequence(seed)``.  Multi-trial harnesses derive one independent
stream per trial from ``(master_seed, trial_index)``, so a trial's draws do
not depend on which trials ran before it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["derive_seed", "spawn_rng"]


def spawn_rng(master_seed: int, *path: int) -> np.random.Generator:
    """Philox generator for a seed, ``spawn_rng(seed)``, or a stream derived
    from it, e.g. ``spawn_rng(seed, trial)``."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence((master_seed, *path)))
    )


def derive_seed(master_seed: int, *path: int) -> int:
    """Collapse ``(master_seed, *path)`` into a fresh 64-bit seed."""
    ss = np.random.SeedSequence((master_seed, *path))
    return int(ss.generate_state(1, np.uint64)[0])

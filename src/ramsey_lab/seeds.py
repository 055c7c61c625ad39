"""Deterministic RNG plumbing.

Every random draw in the package comes from a counter-based Philox4x64
generator keyed through ``numpy.random.SeedSequence``, so a run is fully
determined by the user-facing integer seeds regardless of execution order.
Multi-trial harnesses derive one independent stream per trial from
``(master_seed, trial_index)``, so a trial's draws do not depend on which
trials ran before it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["make_rng", "derive_seed", "spawn_rng"]


def make_rng(seed: int) -> np.random.Generator:
    """Philox generator for a single user-facing seed."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def spawn_rng(master_seed: int, *path: int) -> np.random.Generator:
    """Philox generator for a derived stream, e.g. ``spawn_rng(seed, trial)``."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence((master_seed, *path)))
    )


def derive_seed(master_seed: int, *path: int) -> int:
    """Collapse ``(master_seed, *path)`` into a fresh 64-bit seed."""
    ss = np.random.SeedSequence((master_seed, *path))
    return int(ss.generate_state(1, np.uint64)[0])

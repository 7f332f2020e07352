"""Named random substreams derived from the single top-level run seed.

Every stochastic feature draws from its own substream, so enabling or
re-ordering one feature never perturbs another's draws.
"""

import numpy as np

STREAMS = {
    "load-gen": 1,
    "solver": 2,
    "peaky-load": 4,
}


def substream_seed(seed: int, stream: str) -> int:
    """Deterministic integer seed for a named substream of ``seed``."""
    if stream not in STREAMS:
        raise KeyError(f"unknown random stream {stream!r}; pick from {sorted(STREAMS)}")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(STREAMS[stream],))
    return int(ss.generate_state(1, dtype=np.uint64)[0])

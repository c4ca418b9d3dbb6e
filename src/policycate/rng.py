"""The one random-stream layout behind every seeded draw in the package.

A seed keys a counter-based Philox generator; stream ``i`` is that
generator jumped ``i`` times (2^128 draws each), so the streams never
overlap.  Each consumer gives a fixed index to each purpose and unpacks
the list: adding a purpose at a new index never perturbs the others, and
stream 0 is the unjumped generator itself.
"""

from __future__ import annotations

import numpy as np


def streams(seed, count):
    """``count`` independent generators for ``seed``, stream ``i`` at index ``i``."""
    root = np.random.Philox(key=int(seed))
    return [np.random.Generator(root.jumped(i)) for i in range(count)]

"""The one random-stream layout behind every seeded draw in the package.

A seed keys a counter-based Philox generator; stream ``i`` is that
generator jumped ``i`` times (2^128 draws each), so the streams never
overlap.  Each consumer gives a fixed index to each purpose and unpacks
the list: adding a purpose at a new index never perturbs the others, and
stream 0 is the unjumped generator itself.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError


def streams(seed, count):
    """``count`` independent generators for ``seed``, stream ``i`` at index ``i``.

    A seed is a Philox key, an integer in [0, 2^128); any other raises
    :class:`ValidationError`.
    """
    seed = int(seed)
    if not 0 <= seed < 2**128:
        raise ValidationError(f"seed must lie in [0, 2^128), got {seed}")
    root = np.random.Philox(key=seed)
    return [np.random.Generator(root.jumped(i)) for i in range(count)]

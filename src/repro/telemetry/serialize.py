"""NumPy-to-native conversion so every report is guaranteed JSON-safe.

``json.dumps`` chokes on ``np.int64``/``np.float64`` scalars and on
arrays, and the reports in this package (``RuntimeReport``,
``SetupReport``, chaos verdicts, verification reports) are assembled from NumPy
results.  :func:`to_native` is the single choke point: every
``to_dict()`` serializer routes through it, and a round-trip test pins
the guarantee.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["to_native"]


def to_native(obj):
    """Recursively convert NumPy scalars/arrays (and containers holding
    them) into plain Python types.

    * NumPy integer/floating/bool scalars -> ``int``/``float``/``bool``
      (non-finite floats become ``None``: JSON has no NaN/Inf and the
      strict parsers downstream reject the ``json`` module's
      non-standard rendering);
    * ``np.ndarray`` -> (nested) ``list`` of native values;
    * dict/list/tuple/set -> rebuilt containers with native leaves
      (tuples and sets become lists, as JSON would render them);
    * objects with a ``to_dict()`` method -> that dict, converted.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        f = float(obj)
        return f if math.isfinite(f) else None
    if isinstance(obj, np.ndarray):
        return [to_native(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): to_native(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set)):
        return [to_native(v) for v in obj]
    to_dict = getattr(obj, "to_dict", None)
    if callable(to_dict):
        return to_native(to_dict())
    return str(obj)

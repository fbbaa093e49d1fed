"""The streaming selection subsystem: ingest-then-query workloads.

Three pieces, layered over the batch core:

* :mod:`repro.stream.sketch` — :class:`QuantileSketch`, a mergeable
  deterministic ε-approximate rank summary with *guaranteed* bracketing
  bounds (``update`` / ``merge`` / ``rank_bounds``);
* :mod:`repro.stream.stream` — :class:`StreamingArray`, an appendable
  :class:`~repro.core.array.DistributedArray`: round-robin batch
  placement, an incremental append-aware fingerprint (precise Session
  cache invalidation), sliding/tumbling windows with batch retirement,
  and ingest-time per-rank sketches;
* :mod:`repro.stream.refine` — sketch-accelerated **exact** selection:
  pre-filter every shard to the candidate key interval the sketch proves
  must hold the target ranks, then run the existing contraction engine on
  the survivors. Opt in per plan with
  ``SelectionPlan(prefilter="sketch")``; answers are bit-identical to the
  plain path.
"""

from .refine import execute_sketch_multi_select
from .sketch import QuantileSketch, merge_all
from .stream import WINDOW_MODES, StreamingArray

__all__ = [
    "QuantileSketch",
    "StreamingArray",
    "WINDOW_MODES",
    "execute_sketch_multi_select",
    "merge_all",
]

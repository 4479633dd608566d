"""Profile-guided layout search (the tentpole of ``python -m repro search``).

The paper hand-designs its layouts: the bipartite split and the
micro-positioned trace-driven placement.  This package treats layout as a
search problem over the same space — candidate generators propose
placements (a greedy conflict-graph placer seeded from the observed
:class:`repro.obs.conflicts.ConflictMatrix`, a Pettis–Hansen-style
call-affinity ordering derived from walked event streams, and a seeded
local-search mutator), a batched evaluator scores them by replaying the
cell's trace digest on the fast engine's kernel, and a driver loops
generate → prefilter → score → select,
reporting the best layout found against the paper's baselines.

Layers:

* :mod:`repro.search.artifact` — the genome representation
  (:class:`Gene` / genome tuples), the monotone-cursor packer that turns
  genomes into non-overlapping aligned placements, and the replayable
  :class:`LayoutArtifact` JSON artifact;
* :mod:`repro.search.generators` — candidate genome generators and the
  mutation kernel;
* :mod:`repro.search.evaluate` — the per-cell evaluator (static
  prefilter cost + digest-replay scoring), serial and pool-parallel;
* :mod:`repro.search.driver` — the search loop, baselines and the
  :class:`~repro.search.driver.SearchResult` report.
"""

from repro.search.artifact import Gene, Genome, LayoutArtifact, pack_genome
from repro.search.driver import DEFAULT_BUDGET, SearchResult, search_cell
from repro.search.evaluate import CellEvaluator, Score

__all__ = [
    "CellEvaluator",
    "DEFAULT_BUDGET",
    "Gene",
    "Genome",
    "LayoutArtifact",
    "Score",
    "SearchResult",
    "pack_genome",
    "search_cell",
]

"""Relational-algebra IR and compiled executors for fixpoint evaluation.

The package splits into:

* :mod:`repro.ir.nodes` — the plan node vocabulary (scan / const /
  rename / widen / join / union / diff / complement / project / guard /
  simplify);
* :mod:`repro.ir.kernels` — memoised decision procedures and bulk
  relation operations (byte-identical to the interpreted algebra by
  construction, see the module docstring);
* :mod:`repro.ir.executor` — plan evaluation with optional per-node
  cost profiling;
* :mod:`repro.ir.ground` — compilation of ground (finite, region-sort)
  RegLFP stage formulas to finite relational plans.

The executor is selected via ``EngineConfig(executor=...)`` /
``REPRO_EXECUTOR``; the interpreted path remains the oracle the
equivalence suite checks against.
"""

from repro.ir import nodes
from repro.ir.executor import ExecutionContext, execute
from repro.ir.kernels import KernelCache

__all__ = ["nodes", "ExecutionContext", "execute", "KernelCache"]

"""The WEBDIS core: distributed query-shipping execution.

This package implements the paper's system proper:

* :mod:`repro.core.webquery` — the Web-Query object (query id, node-query
  sequence) and its travelling clones;
* :mod:`repro.core.cht` — the Current Hosts Table completion protocol
  (Section 2.7);
* :mod:`repro.core.logtable` — the node-query log table with ``A*m·B``
  equivalence and the multi-rewrite (Section 3.1);
* :mod:`repro.core.processing` — per-node ServerRouter/PureRouter logic
  (Figures 3 and 4);
* :mod:`repro.core.server` — the per-site query-server daemon;
* :mod:`repro.core.client` — the user-site client (Figure 2) with passive
  termination (Section 2.8);
* :mod:`repro.core.engine` — the façade wiring web + network + servers +
  client into one runnable simulation.
"""

from .config import EngineConfig
from .client import QueryHandle, UserSiteClient
from .engine import WebDisEngine
from .messages import CloneReport, ResultMessage
from .plancache import PlanCache
from .resultmemo import ResultMemo
from .state import QueryState
from .trace import TraceEvent, Tracer
from .webquery import QueryClone, QueryId, WebQuery, WebQueryStep

__all__ = [
    "CloneReport",
    "EngineConfig",
    "PlanCache",
    "QueryClone",
    "QueryHandle",
    "QueryId",
    "QueryState",
    "ResultMemo",
    "ResultMessage",
    "TraceEvent",
    "Tracer",
    "UserSiteClient",
    "WebDisEngine",
    "WebQuery",
    "WebQueryStep",
]

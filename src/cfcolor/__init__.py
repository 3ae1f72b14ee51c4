"""Conflict-free coloring of intervals with respect to points.

Engines maintain colorings under insertions and deletions (and, in the
kinetic module, under continuous endpoint motion); adversary drivers probe
the color/recoloring trade-off of any engine; the core module supplies the
shared types and the brute-force conflict-freeness oracle.
"""

from .adversary import (
    AdversaryReport,
    check_tradeoff,
    run_general_adversary,
    run_local_adversary,
)
from .baseline import ComponentFirstFitEngine, TrivialEngine, UniqueColorEngine
from .chain import build_chain, connected_components, static_color
from .core import (
    Color,
    ColoringState,
    Delete,
    DUMMY,
    EngineError,
    EngineProtocol,
    Insert,
    Interval,
    InvariantError,
    Op,
    RecolorLedger,
    TraceError,
    UpdateRecord,
    Verdict,
    elementary_regions,
    is_conflict_free,
    is_conflict_free_fast,
    parse_trace,
    format_trace,
    replay,
    stabbing_set,
)
from .engine_dynamic import DynamicEngine, EpsilonEngine
from .engine_fixed import FixedChainEngine, FixedDistinctEngine
from .grid import GridEngine
from .kinetic import (
    KineticMaintainer,
    Trajectory,
    compute_events,
    format_scenario,
    lowerbound_scenario,
    parse_scenario,
    verify_gadget_lemma,
)
from .methods import METHOD_NAMES, build_engine, method_label, parse_method_spec
from .online import OnlineNestedEngine, nested_lowerbound_instance

__version__ = "0.1.0"

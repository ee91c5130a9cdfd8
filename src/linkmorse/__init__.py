"""Critical points and Bott-Morse indices of the oriented area on planar
linkage configuration spaces, with an independent numerical oracle."""

from .config import DEFAULT_TOLS, RunConfig, Tolerances
from .enumeration import (
    Classification,
    CriticalRecord,
    classify_configuration,
    enumerate_critical_pnd,
    enumerate_critical_three_chain,
    euler_sum,
    match_record,
)
from .geometry import (
    Configuration,
    CyclicPolygon,
    CyclicSolutions,
    ReachInterval,
    chain_reach,
    enumerate_cyclic,
    wall_check,
)
from .graphs import (
    DistinguishedCycle,
    LinkageGraph,
    elementary_cycles,
    is_partial_two_tree,
    load_linkage,
    make_polygon,
    make_three_chain,
    relative_decomposition,
    sp_decompose,
)
from .indices import (
    IndexReport,
    OpenChainCritical,
    aligned_nu,
    cyclic_index,
    open_chain_index,
    ptt_index,
)
from .oracle import (
    AngleChart,
    BranchDiagram,
    InertiaTriple,
    build_chart,
    constrained_inertia,
    continue_family,
    find_critical_numeric,
)

__version__ = "0.1.0"

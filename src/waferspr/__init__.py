"""Mixed-type spatial pattern recognition for wafer bin maps.

Two-stage pipeline: exact graph-cut spatial filtering (adjacency
clustering, with a connected-path-filtering baseline) followed by
nonparametric warped mixture clustering, plus the internal/external
validation suite used to compare the two filters head to head.
"""

__version__ = "0.1.0"

from .acfilter import AcConfig, FilterResult, ac_filter, ac_objective
from .cpf import CpfConfig, cpf_filter
from .flow import CutResult, FlowNetwork, max_flow_min_cut
from .iwmm import (
    GwHyper,
    IwmmResult,
    KernelParams,
    McmcConfig,
    PointSet,
    iwmm_fit,
)
from .synthgen import PatternKind, PatternSpec, SynthWafer, generate
from .validation import (
    EvaluationReport,
    adjusted_rand_index,
    ch_index,
    evaluation_report,
    gdi_index,
    nmi_index,
    rand_index,
    reconstruct_ground_truth,
    wilcoxon_signed_rank,
)
from .wafer import (
    AdjacencyGraph,
    CellState,
    Neighborhood,
    WaferMap,
    build_graph,
    parse_wafer,
    write_wafer,
)

__all__ = [
    "AcConfig", "AdjacencyGraph", "CellState", "CutResult", "EvaluationReport",
    "FilterResult", "FlowNetwork", "GwHyper", "IwmmResult",
    "KernelParams", "McmcConfig", "Neighborhood", "PatternKind", "PatternSpec",
    "PointSet", "SynthWafer", "WaferMap", "ac_filter", "ac_objective",
    "adjusted_rand_index", "build_graph", "ch_index", "cpf_filter",
    "evaluation_report", "gdi_index", "generate",
    "iwmm_fit", "max_flow_min_cut", "nmi_index", "parse_wafer", "rand_index",
    "reconstruct_ground_truth", "wilcoxon_signed_rank", "write_wafer",
]

"""Bridge-number bounds and coloring invariants of virtual links.

Diagrams come in as Gauss codes; the library decomposes them into strands,
searches for minimal coloring seed sets (the Wirtinger number), and derives
bridge-number lower bounds from Fox-calculus ideals, Gaussian parity and
quandle colorings, plus welded-unknotting certificates for one-overbridge
diagrams.
"""

from .errors import (
    CutSplitError,
    EmptyInputError,
    GaussCodeError,
    GaussSyntaxError,
    InvariantError,
    NotAKnotError,
    NotDistributiveError,
    NotIdempotentError,
    NotOneOverbridgeError,
    NotRightInvertibleError,
    QuandleAxiomError,
    SearchExhaustedError,
    SearchTimeoutError,
    SignMismatchError,
    UnbalancedChordError,
    VbridgeError,
)
from .gauss import (
    CutSplitWitness,
    GaussDiagram,
    HeadIncidence,
    Strand,
    StrandTable,
    bridge_count,
    cut_split_witness,
    ensure_tail_per_component,
    is_cut_split,
    parse_gauss_code,
    strand_table,
    to_gauss_code,
)
from .linkgroup import (
    AlexanderMatrix,
    IdealBoundResult,
    alexander_matrix,
    ideal_lower_bound,
)
from .parity import gaussian_parity, parity_lower_bound, parity_projection
from .quandle import (
    FiniteQuandle,
    count_colorings,
    dihedral_quandle,
    load_quandle_table,
    trivial_quandle,
    validate_quandle,
)
from .search import (
    ColoringSequence,
    LowTailReport,
    SequenceEntry,
    VerifyResult,
    WirtingerResult,
    apply_coloring_moves,
    low_tail_chords,
    saturated_strands,
    verify_coloring_sequence,
    verify_height_certificate,
    wirtinger_number,
)
from .welded import (
    UnknottingCertificate,
    WeldedMove,
    is_one_overbridge,
    replay_certificate,
    welded_unknot_certificate,
)
from .batch import (
    PipelineConfig,
    ResultRecord,
    TableEntry,
    TableProblem,
    ingest_table,
    run_pipeline,
    write_results,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # gauss
    "CutSplitWitness",
    "GaussDiagram",
    "HeadIncidence",
    "Strand",
    "StrandTable",
    "bridge_count",
    "cut_split_witness",
    "ensure_tail_per_component",
    "is_cut_split",
    "parse_gauss_code",
    "strand_table",
    "to_gauss_code",
    # search
    "ColoringSequence",
    "LowTailReport",
    "SequenceEntry",
    "VerifyResult",
    "WirtingerResult",
    "apply_coloring_moves",
    "low_tail_chords",
    "saturated_strands",
    "verify_coloring_sequence",
    "verify_height_certificate",
    "wirtinger_number",
    # link group
    "AlexanderMatrix",
    "IdealBoundResult",
    "alexander_matrix",
    "ideal_lower_bound",
    # parity
    "gaussian_parity",
    "parity_lower_bound",
    "parity_projection",
    # quandle
    "FiniteQuandle",
    "count_colorings",
    "dihedral_quandle",
    "load_quandle_table",
    "trivial_quandle",
    "validate_quandle",
    # welded
    "UnknottingCertificate",
    "WeldedMove",
    "is_one_overbridge",
    "replay_certificate",
    "welded_unknot_certificate",
    # batch
    "PipelineConfig",
    "ResultRecord",
    "TableEntry",
    "TableProblem",
    "ingest_table",
    "run_pipeline",
    "write_results",
    # errors
    "VbridgeError",
    "GaussCodeError",
    "EmptyInputError",
    "GaussSyntaxError",
    "UnbalancedChordError",
    "SignMismatchError",
    "NotAKnotError",
    "CutSplitError",
    "SearchExhaustedError",
    "SearchTimeoutError",
    "InvariantError",
    "QuandleAxiomError",
    "NotIdempotentError",
    "NotRightInvertibleError",
    "NotDistributiveError",
    "NotOneOverbridgeError",
]

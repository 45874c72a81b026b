"""Exact root data, painted (Vogan) diagrams, and real-form classification
for the basic classical Lie superalgebras.

The pieces fit together in one pipeline: ``build_diagram`` turns a
``FamilyId`` into the distinguished simple-root diagram, ``enumerate_vogan``
lists its painted diagrams, ``reduce`` normalizes a painting by flips,
``classify`` names the corresponding real form, and ``table_report`` checks a
whole family against the reference classification.  Arithmetic is exact:
weights carry ``fractions.Fraction`` coordinates, while the pipeline itself
runs on ``int``, read off one integer Gram record per diagram, with
paintings as bitmasks; no floating point is involved anywhere.
"""

from .algebra import (
    EVEN,
    ODD_ISO,
    ODD_NONISO,
    CartanData,
    Diagram,
    FamilyId,
    Node,
    RootSystem,
    WeightVector,
    build_diagram,
    cartan_matrix,
    dual_basis,
    even_blocks,
    block_sign,
    generate_roots,
    node_count,
    noncompact_parity,
    root_expansion,
    validate_family,
    weight,
)
from .classify import (
    RealFormDescriptor,
    TableReport,
    classify,
    enumerate_real_forms,
    table_report,
)
from .errors import (
    BadIndex,
    FamilyMismatch,
    FlipAtOddNode,
    FlipAtUnpainted,
    InvalidFamily,
    InvariantViolation,
    NotAnEvenRoot,
    ParseError,
    RankGuardExceeded,
    SingularBlock,
    SingularNormalization,
    SupervoganError,
)
from .render import (
    SCHEMA_VERSION,
    document_json,
    emit_document,
    parse_document,
    render_ascii,
    render_dot,
)
from .vogan import (
    DiagramInvolution,
    FlipMove,
    VoganDiagram,
    automorphisms,
    canonical_block_painting,
    enumerate_vogan,
    equivalent,
    flip,
    flip_orbit,
    identity_involution,
    reduce,
    reduce_with_trail,
)

__version__ = "0.1.0"

__all__ = [
    "EVEN",
    "ODD_ISO",
    "ODD_NONISO",
    "CartanData",
    "Diagram",
    "FamilyId",
    "Node",
    "RootSystem",
    "WeightVector",
    "build_diagram",
    "cartan_matrix",
    "dual_basis",
    "even_blocks",
    "block_sign",
    "generate_roots",
    "node_count",
    "noncompact_parity",
    "root_expansion",
    "validate_family",
    "weight",
    "RealFormDescriptor",
    "TableReport",
    "classify",
    "enumerate_real_forms",
    "table_report",
    "BadIndex",
    "FamilyMismatch",
    "FlipAtOddNode",
    "FlipAtUnpainted",
    "InvalidFamily",
    "InvariantViolation",
    "NotAnEvenRoot",
    "ParseError",
    "RankGuardExceeded",
    "SingularBlock",
    "SingularNormalization",
    "SupervoganError",
    "SCHEMA_VERSION",
    "document_json",
    "emit_document",
    "parse_document",
    "render_ascii",
    "render_dot",
    "DiagramInvolution",
    "FlipMove",
    "VoganDiagram",
    "automorphisms",
    "canonical_block_painting",
    "enumerate_vogan",
    "equivalent",
    "flip",
    "flip_orbit",
    "identity_involution",
    "reduce",
    "reduce_with_trail",
    "__version__",
]

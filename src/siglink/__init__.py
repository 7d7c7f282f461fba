"""Signature-based entity resolution.

Identifies probable entity signatures (short, rarely-recurring
subrecords) in unlabelled data, blocks and links record pairs that
share one, and labels transitive clusters with a relational
connected-components pass. See the README for the pipeline overview
and the CLI reference.
"""

from .cc import connected_components, flatten, oracle_components, to_forest
from .errors import ConfigError, DataError, InternalInvariantError, SiglinkError
from .evaluation import GroundTruth, Metrics, evaluate, grid_search, load_truth
from .indexer import InvertedIndex, build_index, dump_index, subrecord_of
from .linker import (
    JaccardVerifier,
    eliminate,
    finalize,
    group_pairs,
    make_verifier,
)
from .records import (
    DedupResult,
    RecordTable,
    deduplicate,
    load_csv_with_keys,
    tokenize,
)
from .sigprob import ProbabilityModel, max_recurrence, signature_probability
from .synth import generate_dataset, write_dataset
from .templates import (
    ConsecutiveWords,
    FullAttribute,
    LastDigits,
    RandomWords,
    SignatureTemplate,
    validate_config,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DataError", "InternalInvariantError", "SiglinkError",
    "RecordTable", "DedupResult", "tokenize", "load_csv_with_keys",
    "deduplicate",
    "ConsecutiveWords", "RandomWords", "FullAttribute", "LastDigits",
    "SignatureTemplate", "validate_config",
    "ProbabilityModel", "signature_probability", "max_recurrence",
    "InvertedIndex", "build_index", "dump_index", "subrecord_of",
    "group_pairs", "eliminate", "finalize",
    "JaccardVerifier", "make_verifier",
    "to_forest", "flatten", "connected_components",
    "oracle_components",
    "Metrics", "GroundTruth", "evaluate", "grid_search", "load_truth",
    "generate_dataset", "write_dataset",
    "__version__",
]

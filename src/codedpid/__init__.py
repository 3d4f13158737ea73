"""Private information delivery over coded server storage.

A library, simulator and CLI for a delivery protocol in which N servers hold
MDS-coded fragments of K messages plus correlated random masks, and a user
retrieves message D by collecting one masked symbol per relevant server while
the transmission pattern reveals nothing about D.
"""

from codedpid.field import (
    FieldMatrix,
    RankDeficientError,
    SingularMatrixError,
)
from codedpid.codes import CodePair, build_vandermonde_pair, override_generator
from codedpid.protocol import (
    DeliveryTranscript,
    Message,
    PidConfig,
    ServerState,
    SharedRandomness,
    answer_vector,
    attach_shares,
    decode_answers,
    draw_randomness,
    encode_storage,
    make_association,
    random_messages,
    run_delivery,
    run_subset_scheme,
)

__version__ = "0.1.0"

__all__ = [
    "FieldMatrix",
    "SingularMatrixError",
    "RankDeficientError",
    "CodePair",
    "build_vandermonde_pair",
    "override_generator",
    "PidConfig",
    "Message",
    "ServerState",
    "SharedRandomness",
    "DeliveryTranscript",
    "make_association",
    "random_messages",
    "encode_storage",
    "draw_randomness",
    "attach_shares",
    "answer_vector",
    "decode_answers",
    "run_delivery",
    "run_subset_scheme",
    "__version__",
]

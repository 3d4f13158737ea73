"""Two fully worked reference instances used across tests, demos and presets.

Both use hand-picked generators whose entries are part of the instance
definition (they are checked against the canonical structural invariants at
construction, like any other generator).
"""

from __future__ import annotations

from codedpid.codes import CodePair, _override_pair
from codedpid.protocol import EXPLICIT, PidConfig, make_association

__all__ = [
    "q5_instance",
    "q11_instance",
    "Q5_ASSOCIATION",
    "Q5_GENERATOR",
    "Q11_ASSOCIATION",
    "Q11_GENERATOR",
]

# Three messages of two symbols over F_5 on three servers: the smallest
# instance where every server hosts two messages and masks one symbol.
Q5_ASSOCIATION = ((1, 2), (2, 3), (1, 3))
Q5_GENERATOR = ((1, 3, 1),)

# Eight messages of three symbols over F_11 on six servers, split into two
# host groups of three servers, four messages each.
Q11_ASSOCIATION = (
    (1, 2, 3),
    (1, 2, 3),
    (1, 2, 3),
    (1, 2, 3),
    (4, 5, 6),
    (4, 5, 6),
    (4, 5, 6),
    (4, 5, 6),
)
Q11_GENERATOR = (
    (3, 8, 1, 7, 2, 1),
    (3, 4, 4, 0, 1, 10),
    (6, 10, 6, 5, 1, 5),
)


def q5_instance() -> tuple[PidConfig, CodePair]:
    """q=5, K=3, N=3, L=2, evaluation points 1,2,3."""
    config = make_association(
        q=5, k_messages=3, n_servers=3, msg_len=2,
        mode=EXPLICIT, association=Q5_ASSOCIATION,
    )
    return config, _override_pair(5, 3, 2, (1, 2, 3), Q5_GENERATOR)


def q11_instance() -> tuple[PidConfig, CodePair]:
    """q=11, K=8, N=6, L=3, evaluation points 1..6."""
    config = make_association(
        q=11, k_messages=8, n_servers=6, msg_len=3,
        mode=EXPLICIT, association=Q11_ASSOCIATION,
    )
    return config, _override_pair(11, 6, 3, (1, 2, 3, 4, 5, 6), Q11_GENERATOR)

"""
A delivery round on the wire: actors, frames, and byte costs
============================================================

The simulator runs a round as message-passing between a coordinator, N
server actors and a user actor, with every frame serialized in a fixed
binary format (1-byte kind, 2-byte sender, 4-byte length, 4-byte symbols).
Phases always run in the same order, so a round's frame log is a
deterministic byte string: replays are byte-identical.
"""

from codedpid.instances import q5_instance
from codedpid.protocol import Message, random_messages, run_delivery
from codedpid.sim import (
    byte_accounting,
    frames_to_bytes,
    simulate_round,
    simulate_subset_round,
)

KIND_NAMES = {1: "SETUP_STORAGE", 2: "SETUP_SHARE", 3: "DELIVER_CMD",
              4: "ANSWER", 5: "DECODE_RESULT"}

config, code = q5_instance()
messages = random_messages(config, seed=11)

# -- one round, frame by frame ----------------------------------------------

result = simulate_round(config, code, messages, d=2, seed=4)
print("frames of one round (request d=2):")
for frame in result.frames:
    print("  %-13s from %d  payload %-22s %2d bytes  %s" % (
        KIND_NAMES[frame.kind], frame.sender, frame.payload,
        frame.wire_size, frame.encode().hex()))

print("\ndecoded: %s (message 2 is %s)" % (
    result.transcript.decoded, messages[1].symbols))

# -- the same transcript as the pure-library run ------------------------------

lib = run_delivery(config, code, messages, 2, seed=4)
print("library and simulated transcripts identical: %s" %
      (lib == result.transcript))

# -- byte accounting ----------------------------------------------------------
# Rate is measured on answer payloads only; headers are protocol overhead
# and tallied separately.

acct = byte_accounting(result.frames, config.n_servers)
print("\nwire: %d bytes total = %d header + %d other payload + %d answer" % (
    acct.total_bytes,
    acct.header_bytes,
    acct.total_bytes - acct.header_bytes - sum(acct.answer_payload_bytes),
    sum(acct.answer_payload_bytes)))
print("empirical rate from the log: %d delivered / %d downloaded = %s" % (
    acct.delivered_symbols, sum(acct.answer_symbols), acct.empirical_rate))

# -- determinism --------------------------------------------------------------

again = simulate_round(config, code, messages, d=2, seed=4)
print("\nreplay log byte-identical: %s" %
      (frames_to_bytes(again.frames) == frames_to_bytes(result.frames)))

# -- an idle server still speaks ----------------------------------------------
# In the subset variant the inactive servers answer every request with an
# empty payload, so even frame sizes are request-independent.

rows = [(1, 2), (3, 4), (0, 1), (2, 0)]
sub_messages = tuple(
    Message(index=i + 1, symbols=s, modulus=5) for i, s in enumerate(rows)
)
sub = simulate_subset_round(4, 5, 2, 2, sub_messages, d=1)
print("\nsubset round (K=4, N=5, M=2): answers per server %s" %
      (sub.transcript.transmission_counts,))
sizes = [f.wire_size for f in sub.frames]
for d in range(2, 5):
    other = simulate_subset_round(4, 5, 2, 2, sub_messages, d=d)
    assert [f.wire_size for f in other.frames] == sizes
print("frame-size profile identical for every request: True")

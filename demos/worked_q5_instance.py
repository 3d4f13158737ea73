"""
A complete walk through the 3-server instance over F_5
=======================================================

Three messages of two symbols each live on three servers.  Every message is
spread over two servers as coded fragments, every server ends up with two
fragments (one message's worth of storage), and a request downloads one
symbol from each server -- so the requester pays 3 symbols for a 2-symbol
message, and no server can tell which message was wanted.
"""

from codedpid.instances import q5_instance
from codedpid.protocol import (
    Message,
    answer_vector,
    attach_shares,
    decode_answers,
    draw_randomness,
    encode_storage,
)

# -- the instance ---------------------------------------------------------
# q=5, K=3 messages, N=3 servers, L=2 symbols per message.

config, code = q5_instance()
print("parameters: q=%d K=%d N=%d L=%d" % (
    config.modulus, config.k_messages, config.n_servers, config.msg_len))
print("hosts per message:")
for k in range(1, 4):
    print("  message %d lives on servers %s" % (k, config.servers_for(k)))
print("storage per server: %s messages" % config.storage_per_server)

# The decoder is the parity-check matrix of an MDS code: any two of its
# three columns are independent, which is what lets two fragments rebuild a
# message.  The generator row is orthogonal to it and will carry the mask.
print("\ndecode matrix (parity check):", code.parity_check.to_lists())
print("mask spreading row (generator):", code.generator.to_lists())

# -- encoding the storage -------------------------------------------------
# Fix three concrete messages and encode them.  Each host stores one
# fragment; the two fragments of message k are chosen so the parity rows
# map them back to the message symbols.

messages = tuple(
    Message(index=i + 1, symbols=s, modulus=5)
    for i, s in enumerate([(1, 2), (3, 4), (0, 1)])
)
print("\nmessages:", [m.symbols for m in messages])
storage = encode_storage(config, code, messages)
for st in storage:
    print("  server %d stores %s" % (st.server_id, dict(st.fragments)))

# -- the shared mask ------------------------------------------------------
# A dealer draws one uniform symbol u and hands each server a fixed multiple
# of it: the generator row (1, 3, 1) says server 2 gets 3u while 1 and 3 get
# u.  Because that row is orthogonal to the decode matrix, the mask will
# cancel out of every decode.

randomness = draw_randomness(code, mask=(2,))
print("\nmask u = %s  ->  server shares %s" % (
    randomness.mask_vector, randomness.shares))
masked = attach_shares(storage, randomness)

# -- answering every request ----------------------------------------------
# A host adds its share to its fragment; a non-host sends the bare share.
# Either way every server sends exactly one symbol, so the traffic pattern
# is identical for all three requests.

for d in range(1, 4):
    answers = answer_vector(masked, d)
    decoded = decode_answers(code, answers)
    status = "ok" if decoded == messages[d - 1].symbols else "WRONG"
    print("request %d: answers %s -> decoded %s (%s)" % (
        d, answers, decoded, status))

# Each single answer symbol is fragment+share or share alone; with u uniform
# each is uniform on F_5 no matter what was asked, which is exactly what the
# audit in demos/privacy_audit.py certifies for every case.
print("\ndownload: 3 symbols for a 2-symbol message -> rate 2/3 (the best "
      "possible at this storage)")

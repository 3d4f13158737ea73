"""
The 6-server instance over F_11: two host groups, fractional storage
====================================================================

Eight messages of three symbols each on six servers.  Messages 1..4 live on
servers {1,2,3} and messages 5..8 on servers {4,5,6}, so each server holds
four fragments -- 4/3 messages of storage, less than half of the 8/3 a
replicated layout of the same rate would need.  The mask now has three
symbols, and each server's share is a different linear mix of them.
"""

from codedpid.analysis import download_floor_check, rate_report
from codedpid.instances import q11_instance
from codedpid.protocol import random_messages, run_delivery

# -- the instance ---------------------------------------------------------

config, code = q11_instance()
print("parameters: q=%d K=%d N=%d L=%d" % (
    config.modulus, config.k_messages, config.n_servers, config.msg_len))
print("association:")
for k in range(1, 9):
    print("  message %d -> servers %s" % (k, config.servers_for(k)))
print("storage per server: %s messages (%d symbols)" % (
    config.storage_per_server,
    config.server_load(1)))

print("\ndecode matrix (3 parity rows on points 1..6):")
for row in code.parity_check.to_lists():
    print("  %s" % row)
print("mask spreading matrix (3 generator rows, orthogonal to the above):")
for row in code.generator.to_lists():
    print("  %s" % row)
print("server j's share is column j of the generator, dotted with the mask:")
for j, column in enumerate(code.generator.array.T.tolist()):
    print("  server %d share coefficients %s" % (j + 1, tuple(column)))

# -- one delivery from each host group --------------------------------------

messages = random_messages(config, seed=7)
print("\nmessages (seed 7):")
for m in messages:
    print("  %d: %s" % (m.index, m.symbols))

for d in (2, 7):
    t = run_delivery(config, code, messages, d, seed=d)
    report = rate_report(config, t)
    floor_check = download_floor_check(config, t)
    print("\nrequest %d (hosted by %s):" % (d, config.servers_for(d)))
    print("  mask %s" % (t.mask_vector,))
    print("  answers %s" % (t.answers,))
    print("  decoded %s -> %s" % (
        t.decoded, "ok" if t.decoded == messages[d - 1].symbols else "WRONG"))
    print("  rate %s of capacity %s; mask overhead %s total" % (
        report.achieved, report.capacity, report.randomness.total))
    print("  per-host-set download sums %s (floor %d)" % (
        floor_check.sums, floor_check.floor))

# Six symbols buy a three-symbol message: rate 1/2, which is the ceiling for
# ANY private scheme at 4/3 messages of storage per server.  The full input
# space here is 11^27-ish cases, far past exhaustive reach -- see
# demos/privacy_audit.py for the rank certificate that covers instances this
# size.

"""
Certifying privacy by counting, not by argument
===============================================

On a small instance we can simply enumerate every possible world -- every
message tuple, every mask value, every request -- and count how often each
complete answer vector appears for each request.  Privacy is owed to the
user, who receives all N answers: the servers pick the message to convey
and must not reveal which one it is.  If the K count maps are identical,
the user (or a wiretapper seeing all answers) learns nothing about the
request: that is privacy as an exact, finite, checkable statement.

The same machinery audits broken schemes: strip the mask and the census
splits; corrupt one stored symbol and the correctness sweep finds it.
"""

from codedpid.instances import q5_instance, q11_instance
from codedpid.verify import (
    BudgetExceededError,
    case_count,
    exhaustive_correctness,
    exhaustive_privacy,
    masked_scheme,
    randomized_privacy_probe,
    scheme_correctness,
    scheme_privacy,
    split_scheme,
    verdict_line,
)

config, code = q5_instance()

# -- correctness: every case decodes ----------------------------------------

report = exhaustive_correctness(config, code)
print(verdict_line("correctness", "q5-k3", report.passed, report.cases))
print("  (3 messages x 2 symbols + 1 mask symbol over F_5, times 3 requests:"
      " 5^7 * 3 = %d cases)" % report.cases)

# -- privacy: the answer census ----------------------------------------------

report = exhaustive_privacy(config, code)
print(verdict_line("privacy", "q5-k3", report.passed, report.cases))
print("  distinct answer vectors: %d (all of 5^3)" % report.distinct_answers)
print("  every vector appears exactly %d times per request -> the answer"
      % report.uniform_count)
print("  distribution is uniform and identical for d=1,2,3: zero leakage")

# -- negative control: drop the mask ------------------------------------------
# Same storage cost, still correct, but hosts answer raw fragments and
# non-hosts stay silent.  The silence pattern IS the request.

control = split_scheme(config)
print("\nnegative control (%s):" % control.name)
c = scheme_correctness(control)
print(verdict_line("correctness", "q5-k3", c.passed, c.cases))
p = scheme_privacy(control)
print(verdict_line("privacy", "q5-k3", p.passed, p.cases))
leak = p.mismatch
print("  leak: answer %s occurs %dx for d=%d but %dx for d=%d" % (
    leak.answer, leak.count_a, leak.request_a, leak.count_b, leak.request_b))

# -- fault injection: the audit catches a single flipped symbol ---------------

bad = masked_scheme(config, code, corrupt=(2, 1, 1, 3))
report = scheme_correctness(bad)
print("\nafter corrupting server 2's fragment of message 1:")
print(verdict_line("correctness", "q5-k3", report.passed, report.cases))
ce = report.counterexample
print("  first failure: request %d decoded %s, expected %s" % (
    ce.requested, ce.decoded, ce.expected))

# -- instances beyond enumeration ---------------------------------------------
# The 6-server instance has 11^27 * 8 cases; the exhaustive auditor refuses
# (raise PID_BUDGET to override) and the sampled probe takes over.  The probe
# checks the two observable fingerprints of a leak: request-dependent
# traffic patterns, and per-server symbol frequencies far from uniform.

config11, code11 = q11_instance()
needed = case_count(masked_scheme(config11, code11))
try:
    exhaustive_privacy(config11, code11)
except BudgetExceededError as exc:
    print("\n6-server instance: %s" % exc)

probe = randomized_privacy_probe(config11, code11, trials=300, seed=0)
print("probe over %d random inputs x 8 requests:" % probe.trials)
print("  transmission patterns by request: all %s" %
      (probe.patterns_by_request[0],))
print("  pattern anomaly: %s" % ("YES" if probe.pattern_anomaly else "no"))
print("  max per-server chi-square %.2f vs bound %.2f -> %s" % (
    probe.max_marginal_stat, probe.stat_bound,
    "SUSPICIOUS" if probe.suspicious else "clean"))

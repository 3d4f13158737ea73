"""
Certifying privacy by counting, not by argument
===============================================

On a small instance we could simply enumerate every possible world -- every
message tuple, every mask value, every request -- and count how often each
complete answer vector appears for each request.  Privacy is owed to the
user, who receives all N answers: the servers pick the message to convey
and must not reveal which one it is.  If the K count maps are identical,
the user (or a wiretapper seeing all answers) learns nothing about the
request: that is privacy as an exact, finite, checkable statement.

The same machinery audits broken schemes: strip the mask and the census
splits; corrupt one stored symbol and the correctness sweep finds it.

The auditor gets every count below exactly from ranks, without visiting
the cases; the tests count the small instances case by case and check that
the two agree.
"""

from codedpid.instances import q5_instance, q11_instance
from codedpid.cli import DECIMAL_CASES
from codedpid.verify import (
    case_count,
    case_text,
    masked_scheme,
    power_text,
    scheme_audit,
    scheme_correctness,
    scheme_privacy,
    split_scheme,
    verdict_line,
)

config, code = q5_instance()

# -- correctness: every case decodes ----------------------------------------

report = scheme_correctness(masked_scheme(config, code))
print(verdict_line("correctness", "q5-k3", report.passed, report.cases))
print("  (3 messages x 2 symbols + 1 mask symbol over F_5, times 3 requests:"
      " 5^7 * 3 = %d cases)" % report.cases)

# -- privacy: the answer census ----------------------------------------------

report = scheme_privacy(masked_scheme(config, code))
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
# The 6-server instance has 11^27 * 8 cases, far too many to visit, and past
# the 10^7 cases whose counts ``pid verify`` writes in decimal.  The scheme is
# linear, so the rank certificate decides it as it decides q5-k3: request d's
# answers are an affine map A_d [w_d; mask] of its inputs, uniform over the
# image of A_d.  Privacy holds exactly when every request has the same image,
# correctness exactly when the parity check takes each A_d back to w_d.

config11, code11 = q11_instance()
scheme11 = masked_scheme(config11, code11)
c, p = scheme_audit(scheme11)
print("\n6-server instance, %d cases > budget %d: certified by rank" % (
    case_count(scheme11), DECIMAL_CASES))
print(verdict_line("correctness", "q11-k8", c.passed, case_text(scheme11)))
print(verdict_line("privacy", "q11-k8", p.passed, case_text(scheme11)))
print("  every request's answers cover all %s vectors, each %s times" % (
    power_text(p.distinct_answers, 11), power_text(p.uniform_count, 11)))

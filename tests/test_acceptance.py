"""Acceptance gate: one test per criterion, exact expectations, timed budgets.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Every check is exact (integer/Fraction equality); the only
tolerances are wall-clock budgets, stated inline.
"""

import time
from fractions import Fraction

import numpy as np

from codedpid.analysis import (
    achievable_coded_rate,
    coded_capacity,
    download_floor_check,
    randomness_overheads,
    subset_scheme_rate,
    uncoded_bounds,
    uncoded_randomness_overhead,
    valid_msg_lens,
)
from codedpid.codes import build_vandermonde_pair
from codedpid.field import FieldMatrix, mod_matmul
from codedpid.instances import q5_instance, q11_instance
from codedpid.protocol import (
    Message,
    make_association,
    random_messages,
    run_delivery,
    run_subset_scheme,
)
from codedpid.sim import frames_to_bytes, simulate_round
from codedpid.verify import (
    masked_scheme,
    scheme_correctness,
    scheme_privacy,
    split_scheme,
)


def _pass(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} {name}: PASS")


def test_01_six_server_instance_structure():
    # Budget: must construct and validate in under 1 second.
    start = time.perf_counter()
    config, code = q11_instance()

    assert (config.modulus, config.k_messages, config.n_servers, config.msg_len) == (
        11, 8, 6, 3,
    )
    assert config.association == ((1, 2, 3),) * 4 + ((4, 5, 6),) * 4
    assert config.storage_per_server == Fraction(4, 3)
    assert config.server_load(1) == 4

    # parity check: powers of the points 1..6 mod 11
    assert code.parity_check.to_lists() == [
        [1, 1, 1, 1, 1, 1],
        [1, 2, 3, 4, 5, 6],
        [1, 4, 9, 5, 3, 3],
    ]
    assert code.generator.to_lists() == [
        [3, 8, 1, 7, 2, 1],
        [3, 4, 4, 0, 1, 10],
        [6, 10, 6, 5, 1, 5],
    ]
    # generator rows orthogonal to the parity check
    product = mod_matmul(code.parity_check.array, code.generator.array.T, 11)
    assert FieldMatrix(product, 11) == FieldMatrix(np.zeros((3, 3), dtype=np.int64), 11)
    # every 3-column minor of both matrices is invertible (20 each)
    from itertools import combinations

    for cols in combinations(range(6), 3):
        assert FieldMatrix(code.parity_check.array[:, cols], 11).rank() == 3
        assert FieldMatrix(code.generator.array[:, cols], 11).rank() == 3

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"structure check took {elapsed:.2f}s"
    _pass(1, "six-server instance structure")


def test_02_three_server_instance_structure():
    config, code = q5_instance()
    assert (config.modulus, config.k_messages, config.n_servers, config.msg_len) == (
        5, 3, 3, 2,
    )
    assert config.association == ((1, 2), (2, 3), (1, 3))
    # decode rows are the two parity rows over points 1,2,3
    assert code.parity_check.to_lists() == [[1, 1, 1], [1, 2, 3]]
    # the single generator row (1,3,1) makes server shares (u, 3u, u)
    assert code.generator.to_lists() == [[1, 3, 1]]
    from codedpid.protocol import draw_randomness

    for u in range(5):
        assert draw_randomness(code, mask=(u,)).shares == (
            u % 5, 3 * u % 5, u % 5,
        )
    # every delivery downloads 3 symbols for a 2-symbol message: rate 2/3
    messages = random_messages(config, seed=0)
    t = run_delivery(config, code, messages, 1, seed=0)
    assert t.rate == Fraction(2, 3)
    _pass(2, "three-server instance structure")


def test_03_exhaustive_correctness():
    # Budget: full 234375-case audit in under 60 seconds.
    config, code = q5_instance()
    start = time.perf_counter()
    report = scheme_correctness(masked_scheme(config, code))
    elapsed = time.perf_counter() - start
    assert report.passed
    assert report.cases == 234375
    assert report.counterexample is None
    assert elapsed < 60.0, f"audit took {elapsed:.1f}s"
    _pass(3, "exhaustive correctness (234375 cases)")


def test_04_exhaustive_privacy():
    config, code = q5_instance()
    report = scheme_privacy(masked_scheme(config, code))
    assert report.passed
    assert report.cases == 234375
    # the answer censuses of all three requests are identical, supported on
    # all 5^3 = 125 vectors, each seen exactly 5^7/5^3 = 625 times
    assert report.distinct_answers == 125
    assert report.uniform
    assert report.uniform_count == 625
    assert report.mismatch is None
    _pass(4, "exhaustive privacy (identical answer censuses)")


def test_05_capacity_met_across_instances():
    # at least 20 distinct canonical instances must hit rate L/N exactly,
    # with every host-set download sum exactly L
    checked = []
    for q in (5, 7, 11, 13):
        for n in range(2, 9):
            if n > q:
                continue
            for k in range(2, 7):
                for l in valid_msg_lens(k, n):
                    if l > n:
                        continue
                    config = make_association(q, k, n, l)
                    code = build_vandermonde_pair(q, n, l)
                    messages = random_messages(config, seed=len(checked))
                    for d in range(1, k + 1):
                        t = run_delivery(config, code, messages, d, seed=d)
                        assert t.decoded == messages[d - 1].symbols
                        assert t.rate == Fraction(l, n)
                        assert t.rate == coded_capacity(k, n, l)
                        floor_check = download_floor_check(config, t)
                        assert floor_check.ok
                        assert floor_check.sums == (l,) * k
                    checked.append((q, k, n, l))
                    break  # first valid length per (q, n, k)
    assert len(checked) >= 20, f"only {len(checked)} instances"
    _pass(5, f"capacity met on {len(checked)} instances")


def test_06_storage_rate_tradeoff():
    # more storage, fewer active servers, higher rate; both branches
    q = 13
    rng = np.random.default_rng(0)

    # K=12, N=7, M=2: 6 active servers, rate 4/6 = 2/3
    rows = [tuple(int(x) for x in rng.integers(0, q, size=4)) for _ in range(12)]
    messages = tuple(
        Message(index=i + 1, symbols=r, modulus=q) for i, r in enumerate(rows)
    )
    assert subset_scheme_rate(12, 7, 2, 4) == Fraction(2, 3)
    for d in (1, 6, 12):
        t = run_subset_scheme(12, 7, 2, 4, messages, d, seed=d)
        assert t.decoded == rows[d - 1]
        assert t.rate == Fraction(2, 3)
        assert t.transmission_counts == (1,) * 6 + (0,)

    # K=4, N=5, M=2: 2 active servers, message fits, rate 1
    rows = [tuple(int(x) for x in rng.integers(0, 5, size=2)) for _ in range(4)]
    messages = tuple(
        Message(index=i + 1, symbols=r, modulus=5) for i, r in enumerate(rows)
    )
    assert subset_scheme_rate(4, 5, 2, 2) == Fraction(1)
    for d in range(1, 5):
        t = run_subset_scheme(4, 5, 2, 2, messages, d)
        assert t.decoded == rows[d - 1]
        assert t.rate == Fraction(1)
    _pass(6, "storage/rate tradeoff (2/3 and 1)")


def test_07_valid_message_lengths():
    # brute force: L is usable iff K*L is a multiple of N (balanced loads)
    for k in range(1, 25):
        for n in range(1, 25):
            expected = tuple(l for l in range(1, n + 1) if (k * l) % n == 0)
            assert valid_msg_lens(k, n) == expected, (k, n)
    frozen = {
        (8, 6): (3, 6),
        (12, 4): (1, 2, 3, 4),
        (5, 9): (9,),
        (7, 7): tuple(range(1, 8)),
        (6, 4): (2, 4),
        (9, 6): (2, 4, 6),
        (10, 4): (2, 4),
        (4, 8): (2, 4, 6, 8),
        (24, 24): tuple(range(1, 25)),
        (23, 24): (24,),
        (16, 12): (3, 6, 9, 12),
        (1, 5): (5,),
    }
    assert len(frozen) >= 10
    for (k, n), expected in frozen.items():
        assert valid_msg_lens(k, n) == expected, (k, n)
    _pass(7, "valid message lengths (brute force to K=N=24)")


def test_08_worked_rate_identities():
    # the two worked parameter sets, every quantity exact
    # (a) K=12 messages, M=2 stored per server, L=4, N=6 servers
    assert uncoded_bounds(12, 2) == (Fraction(1, 6), Fraction(1, 6))
    assert achievable_coded_rate(12, 6, 2, 4) == Fraction(2, 3)
    r = randomness_overheads(12, 6, 4)
    assert r.total == Fraction(1, 2)
    assert r.per_server == Fraction(1, 4)

    # (b) K=8, N=6, L=3: capacity 1/2 at M=4/3; uncoded needs M=3 whole
    # messages for bounds [1/3, 3/8]; mask costs 1 total, 1/3 per server,
    # against 5/3 for the whole-message analogue
    assert coded_capacity(8, 6, 3) == Fraction(1, 2)
    assert achievable_coded_rate(8, 6, Fraction(4, 3), 3) == Fraction(1, 2)
    assert uncoded_bounds(8, 3) == (Fraction(1, 3), Fraction(3, 8))
    r = randomness_overheads(8, 6, 3)
    assert r.total == Fraction(1)
    assert r.per_server == Fraction(1, 3)
    assert uncoded_randomness_overhead(8, 3) == Fraction(5, 3)
    _pass(8, "worked rate identities")


def test_09_negative_control():
    # the unmasked raw-slice scheme stores exactly as much, decodes every
    # case, and fails the privacy census -- the mask is what buys privacy
    config, code = q5_instance()
    control = split_scheme(config)

    correct = scheme_correctness(control)
    assert correct.passed
    assert correct.cases == 46875

    privacy = scheme_privacy(control)
    assert not privacy.passed
    assert privacy.mismatch is not None
    assert 0 in (privacy.mismatch.count_a, privacy.mismatch.count_b)

    # while the real scheme passes both at the same storage cost
    assert scheme_correctness(masked_scheme(config, code)).passed
    assert scheme_privacy(masked_scheme(config, code)).passed
    _pass(9, "negative control (unmasked variant leaks)")


def test_10_simulation_equivalence():
    # 1000 simulated rounds reproduce the library transcripts exactly, and
    # replaying all of them yields byte-identical frame logs
    config, code = q5_instance()
    rng = np.random.default_rng(42)

    def run_all():
        logs = []
        for i in range(1000):
            seed = int(rng.integers(0, 2**31))
            messages = random_messages(config, seed=seed)
            d = seed % 3 + 1
            sim = simulate_round(config, code, messages, d, seed=seed + 1)
            lib = run_delivery(config, code, messages, d, seed=seed + 1)
            assert sim.transcript == lib
            assert sim.transcript.decoded == messages[d - 1].symbols
            logs.append(frames_to_bytes(sim.frames))
        return b"".join(logs)

    first = run_all()
    rng = np.random.default_rng(42)  # replay the identical schedule
    assert run_all() == first
    _pass(10, "simulation equivalence over 1000 rounds")

"""Rate/randomness accounting: frozen values computed by hand as fractions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from codedpid.analysis import (
    CSV_HEADER,
    DownloadFloorCheck,
    SweepRow,
    achievable_coded_rate,
    active_server_count,
    coded_capacity,
    format_fraction,
    download_floor_check,
    randomness_overheads,
    rate_report,
    subset_scheme_rate,
    sweep_rate_vs_n,
    sweep_to_csv,
    uncoded_bounds,
    uncoded_randomness_overhead,
    valid_msg_lens,
)
from codedpid.codes import build_vandermonde_pair
from codedpid.instances import q5_instance, q11_instance
from codedpid.protocol import (
    EXPLICIT,
    DeliveryTranscript,
    make_association,
    random_messages,
    run_delivery,
)


class TestCapacity:
    def test_goldens(self):
        assert coded_capacity(3, 3, 2) == Fraction(2, 3)
        assert coded_capacity(8, 6, 3) == Fraction(1, 2)
        assert coded_capacity(12, 6, 4) == Fraction(2, 3)
        assert coded_capacity(5, 5, 5) == Fraction(1)

    def test_rejects_msg_len_over_n(self):
        with pytest.raises(ValueError, match="exceeds"):
            coded_capacity(3, 3, 4)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            coded_capacity(0, 3, 2)


class TestActiveServers:
    def test_goldens(self):
        assert active_server_count(12, 2) == 6
        assert active_server_count(8, Fraction(4, 3)) == 6
        assert active_server_count(4, 2) == 2
        assert active_server_count(5, 2) == 3
        assert active_server_count(3, 5) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            active_server_count(3, 0)


class TestAchievableRate:
    def test_coded_branch(self):
        assert achievable_coded_rate(12, 6, 2, 4) == Fraction(2, 3)
        assert achievable_coded_rate(12, 7, 2, 4) == Fraction(2, 3)
        assert achievable_coded_rate(12, 8, 2, 4) == Fraction(2, 3)
        assert achievable_coded_rate(8, 6, Fraction(4, 3), 3) == Fraction(1, 2)

    def test_saturates_at_one(self):
        assert achievable_coded_rate(4, 5, 2, 2) == Fraction(1)
        assert achievable_coded_rate(4, 5, 2, 4) == Fraction(1)

    def test_not_enough_servers(self):
        with pytest.raises(ValueError, match="servers"):
            achievable_coded_rate(12, 5, 2, 4)

    def test_divisibility_below_active(self):
        # active=3, K*L=10 not a multiple of 3
        with pytest.raises(ValueError, match="balance"):
            achievable_coded_rate(5, 7, 2, 2)

    def test_divisibility_at_or_above_active(self):
        # active=2, L=3 not a multiple of 2
        with pytest.raises(ValueError, match="divisible"):
            achievable_coded_rate(4, 5, 3, 3)

    def test_m_string_accepted(self):
        assert achievable_coded_rate(8, 6, "4/3", 3) == Fraction(1, 2)


class TestSubsetRate:
    def test_requires_spare_servers(self):
        # N == K/M is exactly the no-slack case the strict form excludes
        with pytest.raises(ValueError, match="needs N > K/M"):
            subset_scheme_rate(12, 6, 2, 4)

    def test_goldens(self):
        assert subset_scheme_rate(12, 7, 2, 4) == Fraction(2, 3)
        assert subset_scheme_rate(4, 5, 2, 2) == Fraction(1)


class TestUncodedBounds:
    def test_goldens(self):
        assert uncoded_bounds(12, 2) == (Fraction(1, 6), Fraction(1, 6))
        assert uncoded_bounds(8, 3) == (Fraction(1, 3), Fraction(3, 8))
        assert uncoded_bounds(4, 2) == (Fraction(1, 2), Fraction(1, 2))

    def test_upper_caps_at_one(self):
        assert uncoded_bounds(3, 5) == (Fraction(1), Fraction(1))

    def test_integer_storage_only(self):
        with pytest.raises(ValueError, match="whole number"):
            uncoded_bounds(8, Fraction(4, 3))
        with pytest.raises(ValueError):
            uncoded_bounds(8, 0)


class TestRandomnessOverheads:
    def test_goldens(self):
        r = randomness_overheads(3, 3, 2)
        assert (r.total, r.per_server) == (Fraction(1, 2), Fraction(1, 2))
        r = randomness_overheads(8, 6, 3)
        assert (r.total, r.per_server) == (Fraction(1), Fraction(1, 3))
        r = randomness_overheads(12, 6, 4)
        assert (r.total, r.per_server) == (Fraction(1, 2), Fraction(1, 4))

    def test_no_mask_when_l_equals_n(self):
        # no mask is drawn, so no server holds a share of one
        r = randomness_overheads(2, 2, 2)
        assert (r.total, r.per_server) == (0, 0)

    def test_uncoded_analogue(self):
        assert uncoded_randomness_overhead(8, 3) == Fraction(5, 3)
        assert uncoded_randomness_overhead(12, 2) == Fraction(5)
        assert uncoded_randomness_overhead(3, 3) == Fraction(0)
        with pytest.raises(ValueError):
            uncoded_randomness_overhead(8, Fraction(4, 3))


class TestValidMsgLens:
    def test_brute_force_small(self):
        # L works iff every server can host the same whole number of fragments
        for k in range(1, 25):
            for n in range(1, 25):
                expected = tuple(
                    l for l in range(1, n + 1) if (k * l) % n == 0
                )
                assert valid_msg_lens(k, n) == expected, (k, n)

    @pytest.mark.parametrize(
        "k,n,expected",
        [
            (8, 6, (3, 6)),
            (12, 4, (1, 2, 3, 4)),
            (5, 9, (9,)),
            (7, 7, tuple(range(1, 8))),
            (6, 4, (2, 4)),
            (9, 6, (2, 4, 6)),
            (10, 4, (2, 4)),
            (4, 8, (2, 4, 6, 8)),
            (24, 24, tuple(range(1, 25))),
            (23, 24, (24,)),
            (16, 12, (3, 6, 9, 12)),
            (1, 5, (5,)),
        ],
    )
    def test_frozen_cells(self, k, n, expected):
        assert valid_msg_lens(k, n) == expected


class TestDownloadFloor:
    def test_real_transcripts_pass(self):
        for maker, floor in ((q5_instance, 2), (q11_instance, 3)):
            config, code = maker()
            messages = random_messages(config, seed=6)
            t = run_delivery(config, code, messages, 1, seed=1)
            check = download_floor_check(config, t)
            assert check.ok
            assert check.floor == floor
            assert check.sums == (floor,) * config.k_messages
            assert check.failing_messages == ()

    def test_doctored_transcript_fails(self):
        config, _ = q5_instance()
        t = DeliveryTranscript(
            requested=1,
            answers=((1,), (), (1,)),  # server 2 silent
            decoded=(0, 0),
            modulus=5,
            msg_len=2,
        )
        check = download_floor_check(config, t)
        assert not check.ok
        assert check.sums == (1, 1, 2)
        assert check.failing_messages == (1, 2)

    def test_server_count_mismatch(self):
        config, _ = q5_instance()
        t = DeliveryTranscript(
            requested=1, answers=((1,), (1,)), decoded=(0, 0), modulus=5, msg_len=2
        )
        with pytest.raises(ValueError):
            download_floor_check(config, t)

    def test_is_dataclass(self):
        check = DownloadFloorCheck(ok=True, sums=(2,), floor=2, failing_messages=())
        assert check.ok


class TestRateReport:
    def test_q5(self):
        config, code = q5_instance()
        t = run_delivery(config, code, random_messages(config, seed=0), 2, seed=3)
        report = rate_report(config, t)
        assert report.achieved == Fraction(2, 3)
        assert report.capacity == Fraction(2, 3)
        assert report.meets_capacity
        assert report.randomness.total == Fraction(1, 2)
        assert report.randomness.per_server == Fraction(1, 2)

    def test_q11(self):
        config, code = q11_instance()
        t = run_delivery(config, code, random_messages(config, seed=0), 5, seed=3)
        report = rate_report(config, t)
        assert report.achieved == report.capacity == Fraction(1, 2)
        assert report.randomness.total == Fraction(1)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_capacity_claimed_exactly_when_balanced(self, data):
        n = data.draw(st.integers(1, 5), label="N")
        l = data.draw(st.integers(1, n), label="L")
        k = data.draw(st.integers(1, 5), label="K")
        hosts = st.sets(st.integers(1, n), min_size=l, max_size=l).map(sorted)
        association = data.draw(st.lists(hosts, min_size=k, max_size=k))
        config = make_association(7, k, n, l, EXPLICIT, association)
        code = build_vandermonde_pair(7, n, l)
        t = run_delivery(config, code, random_messages(config, seed=k), k, seed=n)
        loads = [sum(s in h for h in association) for s in range(1, n + 1)]
        report = rate_report(config, t)
        assert report.achieved == Fraction(l, n)
        if len(set(loads)) == 1:
            assert report.capacity == Fraction(l, n) and report.meets_capacity
        else:
            assert report.capacity is None and not report.meets_capacity


class TestSweep:
    def test_header_frozen(self):
        assert CSV_HEADER == "N,c_us_lower,c_us_upper,coded_rate,valid"

    def test_integer_storage_sweep(self):
        rows = sweep_rate_vs_n(12, 2, 4, range(5, 9))
        assert sweep_to_csv(rows) == (
            "N,c_us_lower,c_us_upper,coded_rate,valid\n"
            "5,-,-,-,0\n"
            "6,1/6,1/6,2/3,1\n"
            "7,1/6,1/6,2/3,1\n"
            "8,1/6,1/6,2/3,1\n"
        )

    def test_fractional_storage_sweep(self):
        rows = sweep_rate_vs_n(8, Fraction(4, 3), 3, [5, 6, 7])
        assert sweep_to_csv(rows) == (
            "N,c_us_lower,c_us_upper,coded_rate,valid\n"
            "5,-,-,-,0\n"
            "6,-,-,1/2,1\n"
            "7,-,-,1/2,1\n"
        )

    def test_row_validity_flag(self):
        row = SweepRow(5, None, None, None)
        assert not row.valid
        row = SweepRow(6, None, None, Fraction(1, 2))
        assert row.valid

    def test_format_fraction(self):
        assert format_fraction(Fraction(2, 3)) == "2/3"
        assert format_fraction(Fraction(1)) == "1"
        assert format_fraction(None) == "-"

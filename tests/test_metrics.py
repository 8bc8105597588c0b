import csv
import io
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balancedn.metrics import (CSV_COLUMNS, ProbeStat, RequestRecord,
                               ScenarioReport, bin_by_distance, emit_csv,
                               top5_avg)


def read_rows(text):
    """The rows of emitted CSV ``text``, after checking its header."""
    reader = csv.DictReader(io.StringIO(text))
    assert tuple(reader.fieldnames) == CSV_COLUMNS
    return list(reader)


def record(distance=3, scheme="flooding", interest=30,
           data=4, path=None, latency=5_000_000, consumer=11, producer=44,
           nbytes=2000):
    return RequestRecord(consumer=consumer, producer=producer,
                         distance=distance, scheme=scheme,
                         interest_traversals=interest, data_traversals=data,
                         path_hops=distance if path is None else path,
                         latency_ns=latency, satisfied=True,
                         bytes_moved=nbytes)


class TestTop5Avg:
    def test_hundred_values_top_five(self):
        values = [1] * 95 + [10, 10, 10, 10, 11]
        # top five are 11,10,10,10,10 -> mean 10.2 -> rounded up
        assert top5_avg(values) == 11

    def test_single_value(self):
        assert top5_avg([7]) == 7

    def test_forty_values_top_two(self):
        values = [1] * 38 + [8, 9]
        # ceil(40/20) = 2 -> mean(9, 8) = 8.5 -> 9
        assert top5_avg(values) == 9

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            top5_avg([])

    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1,
                    max_size=300))
    @settings(max_examples=200)
    def test_at_least_mean(self, values):
        assert top5_avg(values) >= sum(values) / len(values)

    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1,
                    max_size=100), st.randoms())
    @settings(max_examples=100)
    def test_permutation_invariant(self, values, rnd):
        shuffled = values[:]
        rnd.shuffle(shuffled)
        assert top5_avg(values) == top5_avg(shuffled)

    def test_subset_size_is_exact_ceiling(self):
        # 21 values: ceil(21/20) = 2, never 1 (float 0.05 * 21 rounds badly)
        values = [0] * 19 + [10, 20]
        assert top5_avg(values) == 15


class TestBinByDistance:
    def test_groups_by_exact_distance(self):
        bins = bin_by_distance([record(distance=1), record(distance=2)])
        assert sorted(bins) == [1, 2]

    def test_empty_input_gives_empty_map(self):
        assert bin_by_distance([]) == {}

    def test_matches_independent_recomputation(self):
        rng = random.Random(9)
        records = [
            record(distance=rng.choice([2, 3]),
                   scheme=rng.choice(["flooding", "balancedn"]),
                   interest=rng.randrange(5, 80),
                   data=rng.randrange(1, 10),
                   latency=rng.randrange(1_000_000, 9_000_000),
                   nbytes=rng.randrange(100, 5_000))
            for _ in range(20)
        ]
        bins = bin_by_distance(records)
        # spreadsheet-style recomputation, straight from the raw rows
        for distance in {r.distance for r in records}:
            for scheme in {r.scheme for r in records if r.distance == distance}:
                rows = [r for r in records
                        if r.distance == distance and r.scheme == scheme]
                stats = bins[distance][scheme]
                interests = sorted((r.interest_traversals for r in rows),
                                   reverse=True)
                k = math.ceil(len(interests) / 20)
                assert stats.requests == len(rows)
                assert stats.interest_mean == pytest.approx(
                    sum(interests) / len(rows))
                assert stats.interest_top5 == math.ceil(sum(interests[:k]) / k)
                assert stats.bytes_total == sum(r.bytes_moved for r in rows)
                assert stats.latency_mean_us == pytest.approx(
                    sum(r.latency_ns for r in rows) / len(rows) / 1000)


class TestRequestRecordInvariants:
    def test_satisfied_path_cannot_beat_distance(self):
        with pytest.raises(ValueError):
            record(distance=5, path=3, interest=30)

    def test_interest_cannot_undercut_path(self):
        with pytest.raises(ValueError):
            record(interest=2, path=3)

    def test_unsatisfied_records_skip_path_checks(self):
        rec = RequestRecord(consumer=1, producer=2, distance=5,
                            scheme="flooding", interest_traversals=0,
                            data_traversals=0, path_hops=0, latency_ns=0,
                            satisfied=False)
        assert not rec.satisfied


class TestEmitCsv:
    def test_empty_report_is_header_only(self):
        text = emit_csv(ScenarioReport("s2"))
        assert text == ",".join(CSV_COLUMNS) + "\n"

    def test_two_records_make_three_lines(self):
        report = ScenarioReport("s2")
        report.add(record(scheme="flooding"))
        report.add(record(scheme="balancedn", interest=10))
        text = emit_csv(report)
        assert len(text.strip().split("\n")) == 3

    def test_rows_ordered_by_distance_then_scheme(self):
        report = ScenarioReport("s2")
        report.add(record(distance=4, scheme="flooding"))
        report.add(record(distance=2, scheme="flooding"))
        report.add(record(distance=2, scheme="balancedn", interest=9))
        rows = read_rows(emit_csv(report))
        assert [(r["distance"], r["scheme"]) for r in rows] == [
            ("2", "balancedn"), ("2", "flooding"), ("4", "flooding")]
        assert [r["case"] for r in rows] == ["1", "1", "2"]

    def test_round_trip_recovers_aggregates_exactly(self):
        report = ScenarioReport("s2")
        for i in range(7):
            report.add(record(distance=2 + (i % 2), interest=20 + i))
        rows = read_rows(emit_csv(report))
        bins = report.bins()
        for row in rows:
            stats = bins[int(row["distance"])][row["scheme"]]
            assert float(row["interest_traversals_mean"]) == stats.interest_mean
            assert int(row["interest_traversals_top5"]) == stats.interest_top5
            assert int(row["bytes_total"]) == stats.bytes_total

    def test_probe_rows_follow_schema(self):
        report = ScenarioReport("s4")
        report.probes.append(ProbeStat(0, 20_000, 0.00017))
        report.probes.append(ProbeStat(1, 20_000, 0.00013))
        rows = read_rows(emit_csv(report))
        assert [r["case"] for r in rows] == ["1", "2"]
        assert float(rows[0]["latency_mean_us"]) == pytest.approx(0.17)

    def test_fields_never_contain_commas(self):
        report = ScenarioReport("s2")
        report.add(record())
        for line in emit_csv(report).strip().split("\n"):
            assert len(line.split(",")) == len(CSV_COLUMNS)


class TestSelfConsistency:
    def test_aggregates_recomputable_from_records(self):
        report = ScenarioReport("s3")
        rng = random.Random(3)
        for _ in range(25):
            report.add(record(distance=rng.randrange(2, 6),
                              interest=rng.randrange(10, 90)))
        first = report.bins()
        again = bin_by_distance(list(report.records))
        assert first == again

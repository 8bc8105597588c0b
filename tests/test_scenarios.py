import hashlib
import random

import pytest

from balancedn import scenarios
from balancedn import topology as topology_module
from balancedn.core import parse_name
from balancedn.engine import EventBudgetError, Simulation
from balancedn.metrics import emit_csv
from balancedn.resolution import Deployment
from balancedn.scenarios import (ScenarioConfig, ScenarioError,
                                 _cross_subnet_pairs, _flooding_record,
                                 _with_extra_consumer, default_topology,
                                 run_scenario, synthetic_corpus)
from balancedn.topology import load_preset, load_topology
from varied_delay import ROLE_SEED, role_complete_graph, topology_text


class TestScenarioConfig:
    def test_defaults(self):
        config = ScenarioConfig(scenario="s2")
        assert config.topology == "nsfnet"
        assert config.resolver_count == 8
        assert config.seed == 42
        assert config.schemes == ("flooding", "balancedn")
        assert config.content_count == 1_000_000

    def test_s3_defaults_to_oteglobe(self):
        assert default_topology("s3") == "oteglobe"
        assert ScenarioConfig(scenario="s3").topology == "oteglobe"

    def test_unknown_scenario(self):
        with pytest.raises(ScenarioError):
            ScenarioConfig(scenario="s9")

    def test_skew_outside_s4_rejected(self):
        with pytest.raises(ScenarioError, match="only applies"):
            ScenarioConfig(scenario="s2", skew={0: 10})

    def test_s4_requires_skew(self):
        with pytest.raises(ScenarioError, match="skew"):
            ScenarioConfig(scenario="s4")

    def test_skew_sum_must_match_explicit_content(self):
        with pytest.raises(ScenarioError, match="sum"):
            ScenarioConfig(scenario="s4", skew={0: 10, 1: 20}, content_count=40)
        config = ScenarioConfig(scenario="s4", skew={0: 10, 1: 20})
        assert config.content_count == 30

    def test_skew_indices_bounded_by_resolver_count(self):
        with pytest.raises(ScenarioError, match="out of range"):
            ScenarioConfig(scenario="s4", resolver_count=3, skew={5: 10})

    def test_bad_scheme_rejected(self):
        with pytest.raises(ScenarioError):
            ScenarioConfig(scenario="s2", schemes=("multicast",))

    def test_preset_mismatch_rejected(self):
        with pytest.raises(ScenarioError, match="pairs with"):
            run_scenario(ScenarioConfig(scenario="s3", topology="nsfnet",
                                        content_count=100))

    def test_content_too_small_rejected(self):
        with pytest.raises(ScenarioError, match="too small"):
            run_scenario(ScenarioConfig(scenario="s2", content_count=10))


class TestSyntheticCorpus:
    def test_deterministic_per_seed(self):
        assert synthetic_corpus(100, 42) == synthetic_corpus(100, 42)
        assert synthetic_corpus(100, 42) != synthetic_corpus(100, 43)

    @pytest.mark.parametrize("seed", [0, 7, 42, 2024])
    def test_names_equal_plain_format(self, seed):
        for count in (0, 1, 17, 5000):
            rng = random.Random(seed)
            expected = [f"/cat{i % 16}/obj{i}-{rng.getrandbits(16):04x}"
                        for i in range(count)]
            assert synthetic_corpus(count, seed) == expected

    def test_names_are_distinct_and_parse(self):
        names = synthetic_corpus(1000, 7)
        assert len(set(names)) == 1000
        for key in names[:50]:
            assert parse_name(key).canonical_text == key

    @pytest.mark.parametrize("m, n, seed", [
        (1, 1, 0), (1, 50, 42), (17, 17, 7), (183, 20_000, 42), (366, 20_000, 3001),
        (5_000, 65_537, 2024)])
    def test_a_shorter_corpus_is_a_prefix(self, m, n, seed):
        # the sweep builds only the prefix it reads; it must name the same items
        assert synthetic_corpus(m, seed) == synthetic_corpus(n, seed)[:m]


class TestCorpusSizedToUse:
    # s2's last requested slot is 182: 167 requests, 23 consumers x 8 producers
    LAST_SLOT = 182

    def test_flooding_alone_builds_the_requested_prefix_and_the_same_rows(self, monkeypatch):
        counts = []
        real = scenarios.synthetic_corpus

        def recorded(count, seed):
            counts.append(count)
            return real(count, seed)

        monkeypatch.setattr(scenarios, "synthetic_corpus", recorded)
        alone = run_scenario(ScenarioConfig(scenario="s2", content_count=20_000,
                                            schemes=("flooding",)))
        both = run_scenario(ScenarioConfig(scenario="s2", content_count=20_000))
        balancedn = run_scenario(ScenarioConfig(scenario="s2", content_count=20_000,
                                                schemes=("balancedn",)))
        assert counts == [self.LAST_SLOT + 1, 20_000, 20_000]
        assert len(alone.records) == 167
        assert alone.records == [r for r in both.records if r.scheme == "flooding"]
        assert balancedn.records == [r for r in both.records if r.scheme == "balancedn"]

    def test_too_small_content_fails_alike_for_every_scheme_set(self):
        messages = set()
        for schemes in (("flooding",), ("balancedn",), ("flooding", "balancedn")):
            with pytest.raises(ScenarioError, match="too small") as err:
                run_scenario(ScenarioConfig(scenario="s2", content_count=self.LAST_SLOT,
                                            schemes=schemes))
            messages.add(str(err.value))
            report = run_scenario(ScenarioConfig(scenario="s2",
                                                 content_count=self.LAST_SLOT + 1,
                                                 schemes=schemes))
            assert len(report.records) == 167 * len(schemes)
        assert messages == {f"content_count {self.LAST_SLOT} is too small for "
                            "167 unique cross-subnet requests"}


class TestRoundRobinOwnership:
    def test_corpus_name_i_is_owned_by_producer_i_mod_n(self, monkeypatch):
        made = []

        class Recorded(Deployment):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(scenarios, "Deployment", Recorded)
        config = ScenarioConfig(scenario="s2", content_count=3000,
                                schemes=("balancedn",))
        run_scenario(config)
        (deployment,) = made
        producers = deployment.topology.nodes_with_role("producer")
        corpus = synthetic_corpus(3000, config.seed)
        assert len(deployment.zone) == len(corpus)
        for i, key in enumerate(corpus):
            assert deployment.zone[key] == producers[i % len(producers)]


class TestSingleRequestScenarios:
    @pytest.mark.parametrize("scenario,expected", [
        ("s1_near", 1), ("s1_mid", 2)])
    def test_distance_cases(self, scenario, expected):
        report = run_scenario(ScenarioConfig(scenario=scenario))
        assert {r.distance for r in report.records} == {expected}
        assert {r.scheme for r in report.records} == {"flooding", "balancedn"}

    @pytest.mark.parametrize("scenario", ["s1_near", "s1_mid", "s1_long"])
    def test_registers_only_the_requested_name(self, scenario):
        report = run_scenario(ScenarioConfig(scenario=scenario,
                                             schemes=("balancedn",)))
        assert sum(report.shard_loads.values()) == 1

    @pytest.mark.parametrize("scenario, producer_link, wanted", [
        ("s1_near", "0 2", "1"), ("s1_mid", "1 2", "2"), ("s1_long", "0 2", ">= 4")])
    def test_missing_distance_is_named(self, tmp_path, scenario, producer_link, wanted):
        path = tmp_path / "small.topo"
        path.write_text("node 0 r0 router\nnode 1 c0 consumer\nnode 2 p0 producer\n"
                        "node 3 s0 resolver\nlink 0 1 1 1000\n"
                        f"link {producer_link} 1 1000\nlink 0 3 1 1000\n")
        with pytest.raises(ScenarioError) as err:
            run_scenario(ScenarioConfig(scenario=scenario, topology=str(path),
                                        resolver_count=1))
        assert str(err.value) == f"no producer at distance {wanted} from the first consumer"

    def test_long_case_is_at_least_four_hops(self):
        report = run_scenario(ScenarioConfig(scenario="s1_long"))
        assert all(r.distance >= 4 for r in report.records)

    def test_near_case_resolver_needs_fewer_interest_hops(self):
        report = run_scenario(ScenarioConfig(scenario="s1_near"))
        by_scheme = {r.scheme: r for r in report.records}
        assert (by_scheme["balancedn"].interest_traversals
                < by_scheme["flooding"].interest_traversals)

    def test_single_scheme_selection(self):
        report = run_scenario(ScenarioConfig(scenario="s1_mid",
                                             schemes=("balancedn",)))
        assert {r.scheme for r in report.records} == {"balancedn"}


class TestPairSweep:
    def test_s2_requests_all_satisfied_and_cross_subnet(self):
        report = run_scenario(ScenarioConfig(scenario="s2", content_count=3000))
        assert report.records and all(r.satisfied for r in report.records)
        floods = [r for r in report.records if r.scheme == "flooding"]
        resolved = [r for r in report.records if r.scheme == "balancedn"]
        assert len(floods) == len(resolved)
        # cross-subnet requests on this preset are at least 3 hops long
        assert min(r.distance for r in report.records) >= 3

    def test_s2_adds_the_extra_consumer(self):
        report = run_scenario(ScenarioConfig(scenario="s2", content_count=3000,
                                             schemes=("balancedn",)))
        consumers = {r.consumer for r in report.records}
        assert 54 in consumers  # the populated variant's added consumer
        assert len(consumers) == 23

    def test_s2_shard_loads_sum_to_content(self):
        report = run_scenario(ScenarioConfig(scenario="s2", content_count=4000,
                                             schemes=("balancedn",)))
        assert sum(report.shard_loads.values()) == 4000

    def test_s3_balancedn_runs_at_most_one_bfs_per_node(self, monkeypatch):
        calls = []
        real = topology_module.shortest_paths

        def counted(topology, source):
            calls.append(topology)
            return real(topology, source)

        monkeypatch.setattr(topology_module, "shortest_paths", counted)
        run_scenario(ScenarioConfig(scenario="s3", content_count=20_000,
                                    schemes=("balancedn",)))
        assert calls and len({id(t) for t in calls}) == 1
        assert len(calls) <= len(calls[0].nodes)

    def test_resolver_bound_checked_against_topology(self):
        with pytest.raises(ScenarioError, match="exceeds"):
            run_scenario(ScenarioConfig(scenario="s2", resolver_count=12,
                                        content_count=3000))


def flooded_alone(topology, consumer, producer, key, seed):
    """The flooding row of one request run alone in a fresh simulation."""
    sim = Simulation(topology, seed=seed)
    name = parse_name(key)
    sim.publish(producer, name)
    state = sim.inject_request(consumer, name, at=0)
    sim.run_until(None)
    return _flooding_record(sim, producer,
                            topology.paths.distance(consumer, producer), state)


class TestSweepRowsStandAlone:
    # A flooding row is a function of its (consumer, producer) pair alone:
    # neither the requests before it in the sweep nor the nonce stream
    # moves it.  This is what lets the engine change a flood's event
    # stream and keep every CSV byte.
    def sweep(self, scenario, topology, content_count, digest=None):
        config = ScenarioConfig(scenario=scenario, content_count=content_count,
                                schemes=("flooding",))
        report = run_scenario(config)
        if digest is not None:
            # the CSV `balancedn run` writes from this report
            assert hashlib.sha256(emit_csv(report).encode()).hexdigest() == digest
        corpus = synthetic_corpus(content_count, config.seed)
        rows = [(record, (consumer, producer, corpus[slot]))
                for record, (consumer, producer, slot)
                in zip(report.records, _cross_subnet_pairs(topology))]
        assert len(rows) == len(report.records)
        return rows, config.seed + 1

    def test_s2_rows_equal_each_request_run_alone(self):
        topology = _with_extra_consumer(load_preset("nsfnet"))
        rows, seed = self.sweep("s2", topology, 3000)
        assert len(rows) == 167
        for record, request in rows:
            assert record == flooded_alone(topology, *request, seed)

    def test_sampled_s3_rows_equal_each_request_run_alone(self):
        topology = load_preset("oteglobe")
        rows, seed = self.sweep(
            "s3", topology, 20_000,
            "64714060797930b665c713fd1193f8ba8afdb34909277bdfed58761335ba51c8")
        assert len(rows) == 14_520
        for record, request in random.Random(seed).sample(rows, 50):
            assert record == flooded_alone(topology, *request, seed)


class TestRoleCompleteGraphs:
    """s2 with both schemes on random role-complete graphs of unequal delays."""

    GRAPHS = 200

    def run(self, tmp_path, topology, rng):
        path = tmp_path / "graph.topo"
        path.write_text(topology_text(topology))
        resolvers = rng.randint(1, len(topology.nodes_with_role("resolver")))
        return run_scenario(ScenarioConfig("s2", topology=str(path),
                                           resolver_count=resolvers, content_count=100))

    def test_fast_graphs_answer_every_request(self, tmp_path):
        # each flooding row also equals its request run alone with another
        # seed: fan-outs that split over several fire times must not make
        # a row depend on the requests before it
        rng = random.Random(ROLE_SEED)
        corpus = synthetic_corpus(100, 42)
        for _ in range(self.GRAPHS):
            topology = role_complete_graph(rng)
            report = self.run(tmp_path, topology, rng)
            links = len(topology.links) + 1  # s2 adds a consumer's link
            assert report.records and all(r.satisfied for r in report.records)
            for record in report.records:
                if record.scheme == "flooding":
                    assert record.data_traversals == record.path_hops
                    assert record.interest_traversals <= 2 * links
            assert sum(report.shard_loads.values()) == 100
            swept = _with_extra_consumer(load_topology((tmp_path / "graph.topo").read_text()))
            pairs = _cross_subnet_pairs(swept)
            floods = [r for r in report.records if r.scheme == "flooding"]
            assert len(floods) == len(pairs)
            for record, (consumer, producer, slot) in zip(floods, pairs):
                assert record == flooded_alone(swept, consumer, producer, corpus[slot], 43)

    def test_slow_graphs_answer_every_request_or_fail_loudly(self, tmp_path):
        rng = random.Random(ROLE_SEED + 1)
        # how the runs end: answered, a failed request of either scheme, or
        # a flood that outlives the dead-nonce list
        seen = {"answered": 0, "flooding": 0, "balancedn": 0, "budget": 0}
        for _ in range(self.GRAPHS):
            topology = role_complete_graph(rng, slow=True)
            try:
                report = self.run(tmp_path, topology, rng)
            except ScenarioError as exc:
                scheme, _, rest = str(exc).partition(" request of ")
                assert "not answered within" in rest
                seen[scheme] += 1
            except EventBudgetError:
                seen["budget"] += 1
            else:
                assert report.records and all(r.satisfied for r in report.records)
                seen["answered"] += 1
        assert all(seen.values()), seen


class TestSkewScenario:
    def test_probe_rows_per_loaded_shard(self):
        report = run_scenario(ScenarioConfig(
            scenario="s4", resolver_count=3, skew={0: 400, 1: 200, 2: 200}))
        assert [p.shard_index for p in report.probes] == [0, 1, 2]
        assert all(p.mean_lookup_ms > 0 for p in report.probes)
        assert report.shard_loads == {0: 400, 1: 200, 2: 200}

    def test_empty_shards_are_skipped(self):
        report = run_scenario(ScenarioConfig(
            scenario="s4", resolver_count=8, skew={0: 300}))
        assert [p.shard_index for p in report.probes] == [0]
        assert report.shard_loads == {0: 300, **{i: 0 for i in range(1, 8)}}

    def test_sixteen_shards_on_oteglobe(self):
        # two-character finishers reach 14 of the 16 values of crc & 15,
        # so a fixed finisher per shard could not fill every table here
        skew = {0: 3000, **{i: 100 + i for i in range(1, 16) if i != 7}}
        report = run_scenario(ScenarioConfig(
            scenario="s4", topology="oteglobe", resolver_count=16, skew=skew))
        assert report.shard_loads == {**skew, 7: 0}
        assert [p.shard_index for p in report.probes] == sorted(skew)

import csv
import hashlib
import io
import subprocess
import sys
from pathlib import Path

import pytest

import balancedn
from balancedn.cli import main, parse_args
from balancedn.core import assign_resolver, parse_name
from balancedn.metrics import CSV_COLUMNS
from varied_delay import storm_graph, topology_text

NSFNET_TEXT = (Path(balancedn.__file__).parent / "presets" / "nsfnet.topo").read_text("utf-8")
# (delay ms, bandwidth Mb/s): each field is finite, but the transit of one
# packet across the link rounds to infinity
OVERFLOWING_LINKS = [("1e308", "1000"), ("1", "1e-310")]

NSFNET_SNIPPET = """\
node 0 r0 router
node 1 c0 consumer
node 2 p0 producer
link 0 1 1 1000
link 0 2 1 1000
"""

# A consumer and two producers, one on each side of a 2,500-ms link: every
# cross-subnet round trip takes about 5 s, past the 4-s Interest lifetime.
SLOW_LINK_TOPOLOGY = """\
node 0 c consumer
node 1 r router
node 2 r router
node 3 p producer
node 4 s resolver
node 5 t tld
node 6 n nameserver
node 7 p2 producer
link 0 1 1 1000
link 1 2 2500 1000
link 2 3 1 1000
link 1 4 1 1000
link 4 5 1 1000
link 5 6 1 1000
link 1 7 1 1000
"""

# Every role but the router: s2 and s3 draw their subnets from routers.
NO_ROUTER_TOPOLOGY = """\
node 0 c consumer
node 1 p producer
node 2 s resolver
node 3 t tld
node 4 n nameserver
link 0 2 1 1000
link 1 2 1 1000
link 2 3 1 1000
link 3 4 1 1000
"""

# ``python -m`` puts its working directory first on sys.path, so a CLI
# subprocess started there imports the package under test.
SRC = Path(balancedn.__file__).resolve().parents[1]


def read_rows(text):
    """The rows of emitted CSV ``text``, after checking its header."""
    reader = csv.DictReader(io.StringIO(text))
    assert tuple(reader.fieldnames) == CSV_COLUMNS
    return list(reader)


class TestParseArgs:
    def test_run_command_defaults(self):
        args = parse_args(["run", "--scenario", "s2", "--topology", "nsfnet",
                           "--out", "r.csv"])
        assert args.command == "run"
        assert args.resolvers == 8 and args.seed == 42
        assert args.schemes == ("flooding", "balancedn")
        assert args.out == "r.csv"

    def test_hash_command(self):
        args = parse_args(["hash", "--name", "/a/b", "--resolvers", "8"])
        assert args.command == "hash" and args.name == "/a/b"

    def test_s4_without_skew_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            parse_args(["run", "--scenario", "s4", "--out", "r.csv"])
        assert err.value.code == 2

    def test_skew_outside_s4_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            parse_args(["run", "--scenario", "s2", "--skew", "0:5",
                        "--out", "r.csv"])
        assert err.value.code == 2

    def test_repeated_skew_index_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            parse_args(["run", "--scenario", "s4", "--skew", "0:100,0:50,1:10",
                        "--out", "r.csv"])
        assert err.value.code == 2
        assert "shard index 0 repeated" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            parse_args(["run", "--scenario", "s2", "--out", "r.csv", "--what"])
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["--verbose", "run", "--scenario", "s1_near", "--out", "r.csv"],
        ["hash", "--verbose", "--name", "/a"],
        ["validate", "--verbose", "--topology", "t.topo"],
    ])
    def test_verbose_belongs_to_run_alone(self, argv):
        with pytest.raises(SystemExit) as err:
            parse_args(argv)
        assert err.value.code == 2

    def test_bad_scheme_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            parse_args(["run", "--scenario", "s2", "--schemes", "gossip",
                        "--out", "r.csv"])
        assert err.value.code == 2

    @pytest.mark.parametrize("options, message", [
        (["--scenario", "s2", "--resolvers", "0"], "resolver_count must be at least 1"),
        (["--scenario", "s2", "--content", "0"], "content_count must be positive"),
        (["--scenario", "s4", "--skew", "9:5"], "skew indices out of range: [9]"),
        (["--scenario", "s4", "--skew", "0:-3"], "skew counts must be non-negative"),
    ])
    def test_run_option_errors_are_usage_errors(self, capsys, options, message):
        with pytest.raises(SystemExit) as err:
            parse_args(["run", *options, "--out", "r.csv"])
        assert err.value.code == 2
        assert message in capsys.readouterr().err

    def test_hash_resolver_count_below_one_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            parse_args(["hash", "--name", "/a", "--resolvers", "0"])
        assert err.value.code == 2
        assert "resolver_count must be at least 1" in capsys.readouterr().err

    def test_skew_parsing(self):
        args = parse_args(["run", "--scenario", "s4",
                           "--skew", "0:650000,1:50000", "--out", "r.csv"])
        assert args.skew == {0: 650_000, 1: 50_000}


class TestHashCommand:
    def test_prints_assign_resolver_result(self, capsys):
        assert main(["hash", "--name", "/a/b", "--resolvers", "8"]) == 0
        printed = int(capsys.readouterr().out.strip())
        assert printed == assign_resolver(parse_name("/a/b"), 8)

    def test_bad_name_is_runtime_error(self, capsys):
        assert main(["hash", "--name", "no-slash"]) == 1
        assert "error" in capsys.readouterr().err


class TestValidateCommand:
    def test_valid_file(self, tmp_path, capsys):
        path = tmp_path / "t.topo"
        path.write_text(NSFNET_SNIPPET)
        assert main(["validate", "--topology", str(path)]) == 0
        out = capsys.readouterr().out
        assert "3 nodes" in out and "router=1" in out

    def test_invalid_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.topo"
        path.write_text("node 0 a router\nnode 0 b router\n")
        assert main(["validate", "--topology", str(path)]) == 1
        assert "duplicate" in capsys.readouterr().err

    def test_non_finite_link_exits_one(self, tmp_path, capsys):
        # a nan delay used to validate, then fail the run in link_transit_ns
        path = tmp_path / "nan.topo"
        path.write_text(NSFNET_SNIPPET.replace("link 0 2 1 1000", "link 0 2 nan 1000"))
        assert main(["validate", "--topology", str(path)]) == 1
        assert "non-finite delay on link (0, 2)" in capsys.readouterr().err

    def test_missing_file_exits_one(self):
        assert main(["validate", "--topology", "/no/such/file.topo"]) == 1

    @pytest.mark.parametrize("delay, bandwidth", OVERFLOWING_LINKS)
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_overflowing_link_exits_one_naming_it(self, tmp_path, capsys, command,
                                                   delay, bandwidth):
        # finite fields whose transit rounds to infinity used to validate,
        # then fail every s2 run with a message that named no link
        path = tmp_path / "overflow.topo"
        path.write_text(NSFNET_TEXT.replace("link 0 2 1 1000\n",
                                            f"link 0 2 {delay} {bandwidth}\n", 1))
        out = tmp_path / "r.csv"
        argv = (["validate", "--topology", str(path)] if command == "validate" else
                ["run", "--scenario", "s2", "--topology", str(path),
                 "--content", "1000", "--out", str(out)])
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: transit time on link (0, 2) ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert not out.exists()


class TestRunCommand:
    def test_s1_run_writes_parseable_csv(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        assert main(["run", "--scenario", "s1_near", "--topology", "nsfnet",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote 2 report rows to {out}\n"
        rows = read_rows(out.read_text())
        assert len(rows) == 2
        assert {r["scheme"] for r in rows} == {"flooding", "balancedn"}
        for row in rows:
            assert list(row) == list(CSV_COLUMNS)

    def test_same_argv_same_bytes(self, tmp_path):
        payloads = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(["run", "--scenario", "s2", "--content", "3000",
                         "--seed", "42", "--out", str(out)]) == 0
            payloads.append(out.read_bytes())
        assert payloads[0] == payloads[1]

    def test_runtime_error_exits_one(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = main(["run", "--scenario", "s2", "--content", "10",
                     "--out", str(out)])
        assert code == 1
        assert "too small" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario", ["s2", "s3"])
    def test_topology_without_a_router_exits_one(self, tmp_path, capsys, scenario):
        path = tmp_path / "no_router.topo"
        path.write_text(NO_ROUTER_TOPOLOGY)
        out = tmp_path / "r.csv"
        code = main(["run", "--scenario", scenario, "--topology", str(path),
                     "--resolvers", "1", "--content", "100", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: scenario {scenario} needs a node with the router role; "
            "the topology has none\n")
        assert not out.exists()

    def test_scheme_subset_run(self, tmp_path):
        out = tmp_path / "r.csv"
        assert main(["run", "--scenario", "s1_mid", "--schemes", "balancedn",
                     "--out", str(out)]) == 0
        rows = read_rows(out.read_text())
        assert {r["scheme"] for r in rows} == {"balancedn"}

    @pytest.mark.parametrize("scenario, digest", [
        ("s1_near", "87348734282a8fee8c9bd899f2e713c38f0084fe18349fafc0cbf47759191855"),
        ("s1_mid", "35a86530eb0239be3df413b34b7c2c59c1b072ae82505fbee24cac289abdd622"),
        ("s1_long", "7fc947cb1111ce7ab4ad02d6e8c4f33e1db73dd843bcbf9de00c7f708f45091e"),
    ])
    def test_single_request_csv_bytes_are_pinned(self, tmp_path, scenario, digest):
        out = tmp_path / f"{scenario}.csv"
        assert main(["run", "--scenario", scenario, "--seed", "42",
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("scenario, digest", [
        ("s1_near", "07feef37b3eddda6ab7399a434237ffe8a744dc49002e1e81912d49f0cf70ea6"),
        ("s1_mid", "b59010b7e802ea1255c70996a7585c6764bfa1532fe76f19e2fe328b2d02e96b"),
        ("s1_long", "099567b479c4af263c00c4c76efb60715f241e6ee3124d2c0fe6ed7fd45513d3"),
    ])
    def test_verbose_event_log_is_pinned(self, tmp_path, capsys, scenario, digest):
        out = tmp_path / f"{scenario}.csv"
        assert main(["run", "--scenario", scenario, "--seed", "42", "--verbose",
                     "--out", str(out)]) == 0
        log = capsys.readouterr().err
        assert hashlib.sha256(log.encode()).hexdigest() == digest

    def test_s3_balancedn_csv_bytes_are_pinned(self, tmp_path):
        out = tmp_path / "s3.csv"
        assert main(["run", "--scenario", "s3", "--content", "20000",
                     "--schemes", "balancedn", "--seed", "42",
                     "--out", str(out)]) == 0
        assert (hashlib.sha256(out.read_bytes()).hexdigest()
                == "7b97f50d72df01f3cd4eb5d7051c9a2a759c5f0032079937841b95ca3a190d96")

    def test_s2_balancedn_csv_bytes_are_pinned(self, tmp_path):
        out = tmp_path / "s2.csv"
        assert main(["run", "--scenario", "s2", "--content", "20000",
                     "--schemes", "balancedn", "--seed", "42",
                     "--out", str(out)]) == 0
        assert (hashlib.sha256(out.read_bytes()).hexdigest()
                == "67f09d6c9665b37e51229f0373787cf8ebd7f4a8a2d1aeb7ac655c69edd9e877")

    def test_s2_flooding_csv_bytes_are_pinned(self, tmp_path):
        out = tmp_path / "s2.csv"
        assert main(["run", "--scenario", "s2", "--content", "20000",
                     "--schemes", "flooding", "--seed", "42",
                     "--out", str(out)]) == 0
        assert (hashlib.sha256(out.read_bytes()).hexdigest()
                == "85eddbaef23b95667f102061f27407575e1817e3706309a1d93a16f66c56f723")

    def test_flood_storm_exits_one(self, tmp_path):
        topology, _, _ = storm_graph()
        path = tmp_path / "storm.topo"
        path.write_text(topology_text(topology))
        assert main(["validate", "--topology", str(path)]) == 0
        proc = subprocess.run(
            [sys.executable, "-m", "balancedn.cli", "run", "--scenario", "s1_mid",
             "--topology", str(path), "--resolvers", "1", "--schemes", "flooding",
             "--out", str(tmp_path / "storm.csv")],
            capture_output=True, text=True, timeout=60, cwd=SRC)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and "budget" in proc.stderr

    @pytest.mark.parametrize("schemes, scheme", [
        pytest.param((), "flooding", id="both-schemes"),
        pytest.param(("--schemes", "balancedn"), "balancedn", id="balancedn"),
    ])
    def test_request_past_the_interest_lifetime_exits_one(self, tmp_path, capsys,
                                                          schemes, scheme):
        # validate accepts the graph; the run fails at its first request
        # (consumer 0, producer 3), by whichever scheme runs first.  A
        # balancedn request here takes 5,008,006.720 us
        path = tmp_path / "slow.topo"
        path.write_text(SLOW_LINK_TOPOLOGY)
        assert main(["validate", "--topology", str(path)]) == 0
        capsys.readouterr()
        out = tmp_path / "slow.csv"
        code = main(["run", "--scenario", "s2", "--topology", str(path),
                     "--resolvers", "1", "--content", "100", *schemes, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error:")
        assert f"{scheme} request of consumer 0 to producer 3 for /cat0/obj0-" in err
        assert not out.exists()

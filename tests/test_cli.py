"""End-to-end command line behavior: reports, traces, exit codes."""

import json
import sys
from types import SimpleNamespace

import pytest

from onemove import cli, engines, families
from onemove.engines import Strategy, cfms_run
from onemove.exact import czf_exact
from onemove.graphs import parse_edge_list

WORKED = "7 11\n0 1\n1 2\n3 4\n4 5\n0 3\n1 4\n2 5\n1 3\n5 6\n1 6\n0 2\n"
K4 = "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
BOWTIE = "5 6\n0 1\n0 2\n1 2\n2 3\n2 4\n3 4\n"
# K4 with one pendant per vertex: not a cactus, but dismantlable.
SPIKY = "8 10\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n0 4\n1 5\n2 6\n3 7\n"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def count_calls(monkeypatch, fn):
    """Count calls of fn through every onemove module that bound it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("onemove"):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


class TestSolve:
    def test_worked_example(self, capsys, tmp_path):
        path = write(tmp_path, "worked.el", WORKED)
        code, out, _ = run(capsys, "solve", "--input", path)
        report = json.loads(out)
        assert code == 0
        assert report["value"] == 4
        assert report["method"] == "exact"
        assert report["witness"]["kind"] == "forcing-set"
        assert set(report) == {"parameter", "value", "method", "witness", "ms"}

    def test_cycle_routes_to_unicyclic(self, capsys, tmp_path):
        path = write(tmp_path, "c6.el", "6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n")
        code, out, _ = run(capsys, "solve", "--input", path)
        report = json.loads(out)
        assert (code, report["value"], report["method"]) == (0, 3, "unicyclic")

    def test_tree_route(self, capsys, tmp_path):
        path = write(tmp_path, "star.el", "5 4\n0 1\n0 2\n0 3\n0 4\n")
        code, out, _ = run(capsys, "solve", "--input", path)
        report = json.loads(out)
        assert (code, report["value"], report["method"]) == (0, 4, "tree")

    def test_cactus_route(self, capsys, tmp_path):
        path = write(tmp_path, "bowtie.el", BOWTIE)
        code, out, _ = run(capsys, "solve", "--input", path)
        report = json.loads(out)
        assert (code, report["value"], report["method"]) == (0, 3, "cactus")

    def test_dismantle_route(self, capsys, tmp_path):
        path = write(tmp_path, "spiky.el", SPIKY)
        code, out, _ = run(capsys, "solve", "--input", path)
        report = json.loads(out)
        assert (code, report["method"]) == (0, "dismantle")
        assert report["value"] == czf_exact(parse_edge_list(SPIKY)).value

    def test_witness_replays_externally(self, capsys, tmp_path):
        path = write(tmp_path, "bowtie.el", BOWTIE)
        _, out, _ = run(capsys, "solve", "--input", path)
        report = json.loads(out)
        strategy = Strategy(tuple(tuple(a) for a in report["witness"]["actions"]))
        state = cfms_run(parse_edge_list(BOWTIE), strategy)
        assert state.success

    def test_preoccupied_instance(self, capsys, tmp_path):
        path = write(tmp_path, "c4pre.el", "4 4\n0 1\n1 2\n2 3\n0 3\npreoccupied 1 3\n")
        code, out, _ = run(capsys, "solve", "--input", path)
        report = json.loads(out)
        assert (code, report["value"]) == (0, 1)
        assert report["parameter"] == "additional-searchers"
        assert report["witness"]["preoccupied"] == [1, 3]

    def test_trace_goes_to_stderr(self, capsys, tmp_path):
        path = write(tmp_path, "bowtie.el", BOWTIE)
        code, out, err = run(capsys, "solve", "--input", path, "--trace")
        assert code == 0
        assert "auto-detection chose the cactus method" in err
        assert "cactus rule:" in err
        json.loads(out)

    def test_exact_refuses_beyond_ceiling(self, capsys, tmp_path):
        n = 30
        lines = [f"{n} {n - 1}"] + [f"{i} {i + 1}" for i in range(n - 1)]
        path = write(tmp_path, "long.el", "\n".join(lines) + "\n")
        code, _, err = run(capsys, "solve", "--input", path, "--method", "exact")
        assert code == 2
        assert "refused" in err

    def test_clique_method_needs_certificate(self, capsys, tmp_path):
        path = write(tmp_path, "k4.el", K4)
        code, _, err = run(capsys, "solve", "--input", path, "--method", "clique")
        assert code == 1
        assert "certificate" in err

    def test_clique_method_with_certificate(self, capsys, tmp_path):
        graph = write(tmp_path, "chain.el", "4 4\n0 1\n1 2\n1 3\n2 3\n")
        cert = write(
            tmp_path,
            "cert.json",
            json.dumps({"cliques": [[0, 1], [2, 3]], "anchors": [0, 2], "attachments": [[1]]}),
        )
        code, out, _ = run(
            capsys, "solve", "--input", graph, "--method", "clique", "--certificate", cert
        )
        report = json.loads(out)
        assert (code, report["value"], report["method"]) == (0, 2, "clique")
        assert report["witness"]["counts"] == {"1": 1, "3": 1}

    def test_replay_failure_is_internal_error(self, capsys, tmp_path, monkeypatch):
        path = write(tmp_path, "star.el", "5 4\n0 1\n0 2\n0 3\n0 4\n")
        broken = SimpleNamespace(success=False, ever_occupied=frozenset())
        monkeypatch.setattr(engines, "cfms_run", lambda *a, **k: broken)
        code, _, err = run(capsys, "solve", "--input", path)
        assert code == 3
        assert "bug" in err

    @pytest.mark.parametrize(
        "text, method",
        [
            ("5 4\n0 1\n0 2\n0 3\n0 4\n", "tree"),
            ("6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n", "unicyclic"),
            (BOWTIE, "cactus"),
            (SPIKY, "dismantle"),
        ],
        ids=["tree", "unicyclic", "cactus", "dismantle"],
    )
    def test_witness_replayed_once(self, capsys, tmp_path, monkeypatch, text, method):
        path = write(tmp_path, "g.el", text)
        replays = count_calls(monkeypatch, engines.cfms_run)
        searches = count_calls(monkeypatch, families.pendent_dismantle)
        code, out, _ = run(capsys, "solve", "--input", path)
        assert (code, json.loads(out)["method"]) == (0, method)
        assert len(replays) == 1
        if method == "dismantle":
            assert len(searches) == 1


class TestVerify:
    def test_tree_against_oracle(self, capsys, tmp_path):
        path = write(tmp_path, "star.el", "5 4\n0 1\n0 2\n0 3\n0 4\n")
        code, out, _ = run(capsys, "verify", "--input", path)
        report = json.loads(out)
        assert code == 0
        assert report["agree"] is True
        assert report["oracle"]["name"] == "czf_exact"

    def test_exact_uses_deduction_oracle(self, capsys, tmp_path):
        path = write(tmp_path, "worked.el", WORKED)
        code, out, _ = run(capsys, "verify", "--input", path)
        report = json.loads(out)
        assert code == 0
        assert report["method"] == "exact"
        assert report["oracle"] == {"name": "d_exact", "value": 4}

    def test_preoccupied_uses_cfms_oracle(self, capsys, tmp_path):
        path = write(tmp_path, "c4pre.el", "4 4\n0 1\n1 2\n2 3\n0 3\npreoccupied 1 3\n")
        code, out, _ = run(capsys, "verify", "--input", path)
        report = json.loads(out)
        assert code == 0
        assert report["oracle"]["name"] == "cfms_exact"

    def test_disagreement_exits_three(self, capsys, tmp_path, monkeypatch):
        path = write(tmp_path, "worked.el", WORKED)
        monkeypatch.setattr(cli, "d_exact", lambda g: SimpleNamespace(value=99))
        code, out, err = run(capsys, "verify", "--input", path)
        assert code == 3
        assert json.loads(out)["agree"] is False
        assert "disagrees" in err


class TestSimulate:
    def test_czf_trace_ends_colored_all(self, capsys, tmp_path):
        path = write(tmp_path, "worked.el", WORKED)
        code, out, _ = run(
            capsys, "simulate", "--input", path, "--model", "czf", "--layout", "0,2,3,5"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "colored: all"
        assert all(line.startswith("force ") for line in lines[:-1])

    def test_czf_stuck_trace(self, capsys, tmp_path):
        path = write(tmp_path, "p3.el", "3 2\n0 1\n1 2\n")
        code, out, _ = run(capsys, "simulate", "--input", path, "--model", "czf", "--layout", "1")
        assert code == 0
        assert "stuck:" in out

    def test_deduction_single_fire(self, capsys, tmp_path):
        path = write(tmp_path, "worked.el", WORKED)
        code, out, _ = run(
            capsys,
            "simulate",
            "--input",
            path,
            "--model",
            "deduction",
            "--layout",
            "0,2,3,5",
            "--policy",
            "single",
        )
        assert code == 0
        assert out.splitlines()[0].startswith("stage 1:")
        assert "protected: all" in out
        assert "terminal:" in out

    def test_deduction_random_is_seeded(self, capsys, tmp_path):
        path = write(tmp_path, "worked.el", WORKED)
        argv = [
            "simulate", "--input", path, "--model", "deduction",
            "--layout", "0,2,3,5", "--policy", "random", "--seed", "7",
        ]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_cfms_success(self, capsys, tmp_path):
        path = write(tmp_path, "k2.el", "2 1\n0 1\n")
        code, out, _ = run(
            capsys, "simulate", "--input", path, "--model", "cfms",
            "--strategy", "place 0; slide 0 1",
        )
        assert code == 0
        assert out.strip().splitlines()[-1] == "success: true"

    def test_cfms_illegal_strategy(self, capsys, tmp_path):
        path = write(tmp_path, "k2.el", "2 1\n0 1\n")
        code, _, err = run(
            capsys, "simulate", "--input", path, "--model", "cfms", "--strategy", "slide 0 1"
        )
        assert code == 2
        assert "action 0" in err

    def test_invalid_layout_is_parse_error(self, capsys, tmp_path):
        path = write(tmp_path, "k2.el", "2 1\n0 1\n")
        code, _, _ = run(capsys, "simulate", "--input", path, "--model", "czf", "--layout", "0,9")
        assert code == 2

    def test_missing_layout_is_usage_error(self, capsys, tmp_path):
        path = write(tmp_path, "k2.el", "2 1\n0 1\n")
        code, _, err = run(capsys, "simulate", "--input", path, "--model", "czf")
        assert code == 1
        assert "--layout" in err


class TestGenerate:
    def test_star(self, capsys):
        code, out, _ = run(capsys, "generate", "--family", "star", "--n", "6")
        g = parse_edge_list(out)
        assert (code, g.n, g.m) == (0, 6, 5)

    def test_matched_family_uses_m(self, capsys):
        code, out, _ = run(capsys, "generate", "--family", "star_plus_matching", "--m", "3")
        g = parse_edge_list(out)
        assert (code, g.n) == (0, 6)

    def test_bowtie_needs_no_size(self, capsys):
        code, out, _ = run(capsys, "generate", "--family", "bowtie")
        assert (code, parse_edge_list(out).n) == (0, 5)

    def test_missing_size_is_usage_error(self, capsys):
        code, _, err = run(capsys, "generate", "--family", "cycle")
        assert code == 1
        assert "--n" in err

    def test_undersized_family_is_parse_error(self, capsys):
        code, _, _ = run(capsys, "generate", "--family", "cycle", "--n", "2")
        assert code == 2


class TestReduce:
    def test_k4_instance(self, capsys, tmp_path):
        path = write(tmp_path, "k4.el", K4)
        code, out, _ = run(capsys, "reduce", "--vc-instance", path, "--l", "3")
        data = json.loads(out)
        assert code == 0
        assert (data["k"], data["l"], len(data["blocks"])) == (31, 3, 6)
        assert parse_edge_list(data["edge_list"]).n == 56

    def test_noncubic_rejected(self, capsys, tmp_path):
        path = write(tmp_path, "p4.el", "4 3\n0 1\n1 2\n2 3\n")
        code, _, err = run(capsys, "reduce", "--vc-instance", path, "--l", "2")
        assert code == 2
        assert "cubic" in err


class TestProbe:
    def test_contract_grid(self, capsys, tmp_path):
        path = write(tmp_path, "k4.el", K4)
        code, out, _ = run(capsys, "probe", "--input", path)
        report = json.loads(out)
        assert code == 0
        assert report["parameter"] == "probe-contract"
        assert all(r["after"] <= r["before"] + 1 for r in report["results"])
        assert len(report["results"]) == 6

    def test_add_grid(self, capsys, tmp_path):
        path = write(tmp_path, "p4.el", "4 3\n0 1\n1 2\n2 3\n")
        code, out, _ = run(capsys, "probe", "--input", path, "--mode", "add")
        report = json.loads(out)
        assert code == 0
        assert {tuple(r["edge"]) for r in report["results"]} == {(0, 2), (0, 3), (1, 3)}
        assert all(r["delta"] in (-1, 0, 1) for r in report["results"])

    def test_remove_grid(self, capsys, tmp_path):
        path = write(tmp_path, "c4.el", "4 4\n0 1\n1 2\n2 3\n0 3\n")
        code, out, _ = run(capsys, "probe", "--input", path, "--mode", "remove")
        report = json.loads(out)
        assert code == 0
        assert len(report["results"]) == 4

    def test_parallel_matches_serial(self, capsys, tmp_path):
        path = write(tmp_path, "k4.el", K4)
        _, serial, _ = run(capsys, "probe", "--input", path)
        _, parallel, _ = run(capsys, "probe", "--input", path, "--jobs", "2")
        assert json.loads(serial)["results"] == json.loads(parallel)["results"]

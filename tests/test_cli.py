"""End-to-end command line behavior: reports, traces, exit codes."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from onemove import cli, engines, families, graphs, solver
from onemove.engines import Strategy, cfms_run
from onemove.exact import CFMS_EXACT_CEILING, D_EXACT_CEILING, czf_exact
from onemove.graphs import Graph, parse_edge_list
from onemove.solver import solve

WORKED = "7 11\n0 1\n1 2\n3 4\n4 5\n0 3\n1 4\n2 5\n1 3\n5 6\n1 6\n0 2\n"
K4 = "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
BOWTIE = "5 6\n0 1\n0 2\n1 2\n2 3\n2 4\n3 4\n"
# K4 with one pendant per vertex: not a cactus, but dismantlable.
SPIKY = "8 10\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n0 4\n1 5\n2 6\n3 7\n"
C4_PRE = "4 4\n0 1\n1 2\n2 3\n0 3\npreoccupied 1 3\n"
# Two joined cliques {0, 1} and {2, 3}, and a construction that builds them.
CHAIN = "4 4\n0 1\n1 2\n1 3\n2 3\n"
CHAIN_CERT = json.dumps({"cliques": [[0, 1], [2, 3]], "anchors": [0, 2], "attachments": [[1]]})
C6 = "6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n"
C5 = "5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


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
        path = write(tmp_path, "c6.el", C6)
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
        g = parse_edge_list(BOWTIE)
        assert cfms_run(g, strategy).succeeded(g)

    def test_preoccupied_instance(self, capsys, tmp_path):
        path = write(tmp_path, "c4pre.el", C4_PRE)
        code, out, _ = run(capsys, "solve", "--input", path)
        report = json.loads(out)
        assert (code, report["value"]) == (0, 1)
        assert report["parameter"] == "additional-searchers"
        assert report["witness"]["preoccupied"] == [1, 3]

    def test_repeated_preoccupied_vertex_is_parse_error(self, capsys, tmp_path):
        path = write(tmp_path, "c4.el", "4 4\n0 1\n1 2\n2 3\n0 3\npreoccupied 1 3 1\n")
        code, out, err = run(capsys, "solve", "--input", path)
        assert (code, out) == (cli.PARSE_EXIT, "")
        assert "line 6: repeated preoccupied vertex 1" in err

    def test_errors_below_preoccupied_line_cite_their_own_line(self, capsys, tmp_path):
        path = write(tmp_path, "c4.el", C4_PRE + "what is this\n")
        code, out, err = run(capsys, "solve", "--input", path)
        assert (code, out) == (cli.PARSE_EXIT, "")
        assert err == "error: line 7: unrecognized trailing line 'what is this'\n"

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

    def test_exact_ceiling_is_per_component(self, capsys, tmp_path):
        # Two disjoint K13: n = 26 is past the ceiling, each component is not.
        pairs = [f"{u + s} {v + s}" for s in (0, 13) for u in range(13) for v in range(u + 1, 13)]
        path = write(tmp_path, "two-k13.el", "\n".join([f"26 {len(pairs)}", *pairs]) + "\n")
        code, out, _ = run(capsys, "solve", "--input", path)
        assert code == 0
        report = json.loads(out)
        assert (report["method"], report["value"]) == ("exact", 24)

    def test_forced_exact_past_32_vertices(self, capsys, tmp_path):
        n = 33
        pairs = [f"{u} {v}" for u in range(n) for v in range(u + 1, n)]
        path = write(tmp_path, "k33.el", "\n".join([f"{n} {len(pairs)}", *pairs]) + "\n")
        code, _, err = run(capsys, "solve", "--input", path, "--method", "exact")
        assert code == 2
        assert "refused" in err
        code, out, _ = run(capsys, "solve", "--input", path, "--method", "exact", "--force")
        assert code == 0
        assert (json.loads(out)["method"], json.loads(out)["value"]) == ("exact", 32)

    def test_clique_method_needs_certificate(self, capsys, tmp_path):
        path = write(tmp_path, "k4.el", K4)
        code, _, err = run(capsys, "solve", "--input", path, "--method", "clique")
        assert code == 1
        assert "certificate" in err

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_certificate_needs_clique_method(self, capsys, tmp_path, command):
        # A certificate the chosen method would never read is refused
        # before anything is solved.
        graph = write(tmp_path, "chain.el", CHAIN)
        cert = write(tmp_path, "cert.json", CHAIN_CERT)
        code, out, err = run(capsys, command, "--input", graph, "--certificate", cert)
        assert (code, out) == (cli.USAGE_EXIT, "")
        assert "--certificate needs --method clique" in err

    def test_clique_method_with_certificate(self, capsys, tmp_path):
        graph = write(tmp_path, "chain.el", CHAIN)
        cert = write(tmp_path, "cert.json", CHAIN_CERT)
        code, out, _ = run(
            capsys, "solve", "--input", graph, "--method", "clique", "--certificate", cert
        )
        report = json.loads(out)
        assert (code, report["value"], report["method"]) == (0, 2, "clique")
        assert report["witness"]["counts"] == {"1": 1, "3": 1}

    @pytest.mark.parametrize(
        "cert",
        [
            {"cliques": [[0, 1]], "anchors": [[0]], "attachments": []},
            {"cliques": [[0, 1]], "anchors": ["0"], "attachments": []},
            {"cliques": [[0, True]], "anchors": [0], "attachments": []},
        ],
        ids=["anchor-list", "anchor-string", "bool-member"],
    )
    def test_certificate_members_must_be_ints(self, capsys, tmp_path, cert):
        graph = write(tmp_path, "k2.el", "2 1\n0 1\n")
        path = write(tmp_path, "cert.json", json.dumps(cert))
        code, out, err = run(capsys, "solve", "--input", graph, "--method", "clique", "--certificate", path)
        assert (code, out) == (cli.PARSE_EXIT, "")
        assert "not a vertex index" in err

    @pytest.mark.parametrize(
        "cert, message",
        [
            ({"cliques": [[0, 1, True]], "anchors": [0], "attachments": []}, "clique 0 holds True"),
            ({"cliques": [[0, 1, 1]], "anchors": [0], "attachments": []}, "clique 0 repeats a vertex"),
            (
                {"cliques": [[0, 1], [2, 3]], "anchors": [0, 2], "attachments": [[1, True]]},
                "attachment 0 holds True",
            ),
            (
                {"cliques": [[0, 1], [2, 3]], "anchors": [0, 2], "attachments": [[1, 1]]},
                "attachment 0 repeats a vertex",
            ),
        ],
        ids=["bool-beside-its-int", "repeated-member", "bool-attachment", "repeated-attachment"],
    )
    def test_certificate_members_are_not_merged(self, capsys, tmp_path, cert, message):
        # A set would fold True into 1, or a repeat into one member, and
        # the construction would pass the checks that come after.
        graph = write(tmp_path, "g.el", CHAIN if len(cert["cliques"]) == 2 else "2 1\n0 1\n")
        path = write(tmp_path, "cert.json", json.dumps(cert))
        code, out, err = run(capsys, "solve", "--input", graph, "--method", "clique", "--certificate", path)
        assert (code, out) == (cli.PARSE_EXIT, "")
        assert message in err

    def test_replay_failure_is_internal_error(self, capsys, tmp_path, monkeypatch):
        path = write(tmp_path, "star.el", "5 4\n0 1\n0 2\n0 3\n0 4\n")
        broken = SimpleNamespace(succeeded=lambda g: False)
        monkeypatch.setattr(engines, "cfms_run", lambda *a, **k: broken)
        code, _, err = run(capsys, "solve", "--input", path)
        assert code == 3
        assert "bug" in err

    @pytest.mark.parametrize(
        "text, method",
        [
            ("5 4\n0 1\n0 2\n0 3\n0 4\n", "tree"),
            (C6, "unicyclic"),
            (BOWTIE, "cactus"),
            (C4_PRE, "cactus"),
            (SPIKY, "dismantle"),
            (WORKED, "exact"),
            (CHAIN, "clique"),
        ],
        ids=["tree", "unicyclic", "cactus", "cactus-preoccupied", "dismantle", "exact", "clique"],
    )
    def test_witness_replayed_once(self, capsys, tmp_path, count_calls, text, method):
        argv = ["solve", "--input", write(tmp_path, "g.el", text)]
        if method == "clique":
            argv += ["--method", "clique", "--certificate", write(tmp_path, "cert.json", CHAIN_CERT)]
        replays = {
            "strategy": count_calls(engines.cfms_run),
            "forcing-set": count_calls(engines.czf_run),
            "layout": count_calls(engines.is_successful),
        }
        searches = count_calls(families.pendent_dismantle)
        orderings = count_calls(families._replay_ordering)
        validations = count_calls(families._validate_clique_construction)
        code, out, _ = run(capsys, *argv)
        report = json.loads(out)
        assert (code, report["method"]) == (0, method)
        assert {kind: len(calls) for kind, calls in replays.items() if calls} == {report["witness"]["kind"]: 1}
        if method == "dismantle":
            assert len(searches) == 1
            assert len(orderings) == 0
        if method == "clique":
            assert len(validations) == 1

    def test_router_refuses_before_any_search(self):
        # K19 with 14 pendants (n = 33) is over the exact ceiling; an
        # exhaustive dismantling search took about 4 s to reject it first.
        p, k = 14, 19
        edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
        edges += [(i, k + i) for i in range(p)]
        g = Graph(k + p, edges)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="refused"):
            solve(g)
        assert time.perf_counter() - start < 0.5


class TestRepeatedCalls:
    def test_one_parser_serves_every_call(self, capsys, tmp_path):
        # a process that runs several commands (solve, verify, a bad flag)
        # gets the same answers as fresh processes would
        bowtie = write(tmp_path, "bowtie.el", BOWTIE)
        pre = write(tmp_path, "pre.el", BOWTIE + "preoccupied 3\n")
        assert cli._build_parser() is cli._build_parser()

        def answer(*argv):
            code, out, err = run(capsys, *argv)
            report = json.loads(out)
            del report["ms"]
            return code, report, err

        first = answer("solve", "--input", bowtie)
        assert first[0] == 0 and first[1]["method"] == "cactus"
        code, report, err = answer("verify", "--input", pre, "--trace")
        assert code == 0 and report["agree"] and "cactus rule" in err
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", "--input", bowtie, "--bogus"])
        assert exc.value.code == cli.USAGE_EXIT
        assert "--bogus" in capsys.readouterr().err
        assert answer("solve", "--input", bowtie, "--method", "exact")[1]["method"] == "exact"
        assert answer("verify", "--input", pre)[2] == ""
        assert answer("solve", "--input", bowtie) == first


# Run in a fresh interpreter: runs each command line given as JSON and
# prints its exit code and whether numpy was loaded after it.
_NUMPY_PROBE = """
import contextlib, io, json, sys
from onemove import cli
seen = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        seen.append([cli.main(argv), "numpy" in sys.modules])
print(json.dumps(seen))
"""


def test_forcing_search_runs_without_numpy(tmp_path):
    # A 12-cycle with a chord has no pendant edge and two cycles through
    # the chord, so solve takes the exact route; verify on a 12-vertex
    # path runs the czf_exact oracle.  Both sweep a class of C(12, 6)
    # start sets.
    chorded = "\n".join(["12 13", "0 6", *(f"{i} {(i + 1) % 12}" for i in range(12))]) + "\n"
    path_graph = "\n".join(["12 11", *(f"{i} {i + 1}" for i in range(11))]) + "\n"
    runs = [
        ["solve", "--input", write(tmp_path, "chorded.el", chorded)],
        ["verify", "--input", write(tmp_path, "path.el", path_graph)],
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, json.dumps(runs)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert json.loads(done.stdout) == [[0, False], [0, False]]


_CEILING_PROBE = """
import json, resource, sys, time, tracemalloc
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from onemove import cli
tracemalloc.start()
start = time.perf_counter()
code = cli.main(["solve", "--input", sys.argv[1]])
print(json.dumps([code, time.perf_counter() - start, tracemalloc.get_traced_memory()[1]]))
"""


def test_vertex_ceiling_refuses_at_once(tmp_path):
    # 100,000,000 isolated vertices would take about 50 GB to solve; the
    # header is refused before any per-vertex list is built.  The 1 GB
    # address-space limit keeps a missing ceiling from exhausting memory.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", _CEILING_PROBE, write(tmp_path, "huge.el", "100000000 0")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    code, seconds, peak = json.loads(done.stdout)
    assert (code, done.stderr) == (
        cli.PARSE_EXIT,
        f"error: line 1: 100000000 vertices refused: the limit is {graphs.MAX_VERTICES}\n",
    )
    assert seconds < 0.1
    assert peak < 1 << 20


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
        path = write(tmp_path, "c4pre.el", C4_PRE)
        code, out, _ = run(capsys, "verify", "--input", path)
        report = json.loads(out)
        assert code == 0
        assert report["oracle"]["name"] == "cfms_exact"

    def test_preoccupied_ring_of_fifteen_certified(self, capsys, tmp_path):
        # 15 vertices, the sliding oracle's ceiling: certified without --force.
        ring = [f"{i} {(i + 1) % 15}" for i in range(15)]
        path = write(tmp_path, "c15.el", "\n".join(["15 15", *ring, "preoccupied 0 5"]) + "\n")
        code, out, _ = run(capsys, "verify", "--input", path)
        report = json.loads(out)
        assert (code, report["method"], report["agree"]) == (0, "cactus", True)
        assert report["oracle"] == {"name": "cfms_exact", "value": report["value"]}

    def test_oracle_ceilings_refuse(self, capsys, tmp_path):
        n = D_EXACT_CEILING + 1
        pairs = [f"{u} {v}" for u in range(n) for v in range(u + 1, n)]
        path = write(tmp_path, "k.el", "\n".join([f"{n} {len(pairs)}", *pairs]) + "\n")
        code, out, err = run(capsys, "verify", "--input", path)
        assert code == 2
        assert out == ""
        assert "refused" in err and "d_exact" in err
        code, out, _ = run(capsys, "verify", "--input", path, "--force")
        assert code == 0
        assert json.loads(out)["oracle"] == {"name": "d_exact", "value": n - 1}
        n = CFMS_EXACT_CEILING + 1
        ring = [f"{i} {(i + 1) % n}" for i in range(n)]
        path = write(tmp_path, "c.el", "\n".join([f"{n} {n}", *ring, "preoccupied 0"]) + "\n")
        code, _, err = run(capsys, "verify", "--input", path)
        assert code == 2
        assert "refused" in err and "cfms_exact" in err

    def test_disagreement_exits_three(self, capsys, tmp_path, monkeypatch):
        path = write(tmp_path, "worked.el", WORKED)
        monkeypatch.setattr(solver, "d_exact", lambda g, force=False: SimpleNamespace(value=99))
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

    def test_cfms_unvisited_vertex_fails(self, capsys, tmp_path):
        # Every edge clears, but vertex 2 never holds a searcher, which
        # solve and certify treat as a failure too.
        path = write(tmp_path, "k2-and-k1.el", "3 1\n0 1\n")
        code, out, _ = run(
            capsys, "simulate", "--input", path, "--model", "cfms",
            "--strategy", "place 0; place 1",
        )
        assert code == 0
        assert out.strip().splitlines()[-2:] == ["unvisited: 2", "success: false"]

    def test_cfms_illegal_strategy(self, capsys, tmp_path):
        path = write(tmp_path, "k2.el", "2 1\n0 1\n")
        code, _, err = run(
            capsys, "simulate", "--input", path, "--model", "cfms", "--strategy", "slide 0 1"
        )
        assert code == 2
        assert "action 0" in err

    def test_cfms_self_loop_slide(self, capsys, tmp_path):
        path = write(tmp_path, "k2.el", "2 1\n0 1\n")
        code, out, err = run(
            capsys, "simulate", "--input", path, "--model", "cfms", "--strategy", "place 0; slide 0 0"
        )
        assert (code, out) == (2, "place 0: clears nothing\n")
        assert err == "error: action 1: slide along missing edge (0, 0)\n"

    def test_cfms_steps_one_run(self, capsys, tmp_path, count_calls):
        path = write(tmp_path, "p3.el", "3 2\n0 1\n1 2\n")
        replays = count_calls(engines.cfms_run)
        code, out, err = run(
            capsys, "simulate", "--input", path, "--model", "cfms",
            "--strategy", "place 0; place 1; slide 0 1",
        )
        assert out.splitlines() == ["place 0: clears nothing", "place 1: clears (0,1)"]
        assert code == 2
        assert "action 2" in err
        assert len(replays) <= 1

    def test_cfms_replays_solves_preoccupied_witness(self, capsys, tmp_path):
        path = write(tmp_path, "c4pre.el", C4_PRE)
        _, out, _ = run(capsys, "solve", "--input", path)
        actions = json.loads(out)["witness"]["actions"]
        strategy = "; ".join(" ".join(map(str, a)) for a in actions)
        code, out, err = run(capsys, "simulate", "--input", path, "--model", "cfms", "--strategy", strategy)
        assert (code, err) == (0, "")
        assert out == "place 0: clears (0,1) (0,3)\nslide 1 2: clears (1,2) (2,3)\ncleared: all\nsuccess: true\n"

    @pytest.mark.parametrize("model", ["czf", "deduction"])
    def test_preoccupied_line_refused_without_searchers(self, capsys, tmp_path, model):
        path = write(tmp_path, "c4pre.el", C4_PRE)
        code, out, err = run(capsys, "simulate", "--input", path, "--model", model, "--layout", "0")
        assert (code, out) == (2, "")
        assert err == f"error: --model {model} takes no preoccupied line\n"

    @pytest.mark.parametrize(
        "strategy, message",
        [
            ("place 0;;slide 0", "action 1: cannot parse 'slide 0'"),
            ("place x", "action 0: 'x' in 'place x' is not a vertex index"),
            ("place 0; ; slide 0 y", "action 1: 'y' in 'slide 0 y' is not a vertex index"),
        ],
    )
    def test_cfms_parse_error_names_action_and_token(self, capsys, tmp_path, strategy, message):
        # Actions are numbered as the replay numbers them: empty chunks
        # do not count.
        path = write(tmp_path, "k2.el", "2 1\n0 1\n")
        code, out, err = run(capsys, "simulate", "--input", path, "--model", "cfms", "--strategy", strategy)
        assert (code, out, err) == (cli.PARSE_EXIT, "", f"error: {message}\n")

    @pytest.mark.parametrize("model", ["czf", "deduction"])
    def test_layout_parse_error_names_token(self, capsys, tmp_path, model):
        path = write(tmp_path, "k2.el", "2 1\n0 1\n")
        code, out, err = run(capsys, "simulate", "--input", path, "--model", model, "--layout", "0,a")
        assert (code, out, err) == (cli.PARSE_EXIT, "", "error: layout entry 'a' is not a vertex index\n")

    def test_invalid_layout_is_parse_error(self, capsys, tmp_path):
        path = write(tmp_path, "k2.el", "2 1\n0 1\n")
        code, _, _ = run(capsys, "simulate", "--input", path, "--model", "czf", "--layout", "0,9")
        assert code == 2

    def test_missing_layout_is_usage_error(self, capsys, tmp_path):
        path = write(tmp_path, "k2.el", "2 1\n0 1\n")
        code, _, err = run(capsys, "simulate", "--input", path, "--model", "czf")
        assert code == 1
        assert "--layout" in err

    @pytest.mark.parametrize(
        "model, flags, message",
        [
            ("cfms", ["--strategy", "place 0", "--layout", "0"], "--model cfms takes no --layout"),
            ("czf", ["--layout", "0", "--strategy", "place 0"], "--model czf takes no --strategy"),
            ("deduction", ["--layout", "0", "--strategy", "place 0"], "--model deduction takes no --strategy"),
        ],
    )
    def test_flag_the_model_never_reads_is_usage_error(self, capsys, tmp_path, model, flags, message):
        path = write(tmp_path, "k2.el", "2 1\n0 1\n")
        code, out, err = run(capsys, "simulate", "--input", path, "--model", model, *flags)
        assert (code, out) == (cli.USAGE_EXIT, "")
        assert message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--method", "clique"], "--method clique needs --certificate"),
        (["verify", "--certificate", "cert.json"], "--certificate needs --method clique"),
        (["simulate", "--model", "czf"], "--model czf needs --layout"),
        (["simulate", "--model", "cfms"], "--model cfms needs --strategy"),
        (["simulate", "--model", "cfms", "--strategy", "place 0", "--layout", "0"], "takes no --layout"),
    ],
)
def test_flags_checked_before_any_file_is_read(capsys, tmp_path, argv, message):
    # A bad flag combination is a usage error (exit 1) even when the
    # input file is missing, which would otherwise exit 2.
    missing = str(tmp_path / "missing.el")
    code, out, err = run(capsys, argv[0], "--input", missing, *argv[1:])
    assert (code, out) == (cli.USAGE_EXIT, "")
    assert message in err


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


@pytest.mark.parametrize("argv", [["probe", "--input"], ["reduce", "--l", "1", "--vc-instance"]], ids=["probe", "reduce"])
def test_graph_only_commands_refuse_preoccupied_line(capsys, tmp_path, argv):
    code, out, err = run(capsys, *argv, write(tmp_path, "c4.el", C4_PRE))
    assert (code, out) == (cli.PARSE_EXIT, "")
    assert err == "error: line 6: a plain edge list takes no preoccupied line\n"


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

    @pytest.mark.parametrize(
        "mode, results",
        [
            ("add", [{"edge": e, "delta": 0} for e in ([0, 2], [0, 3], [1, 3], [1, 4], [2, 4])]),
            ("remove", [{"edge": e, "delta": 0} for e in ([0, 1], [0, 4], [1, 2], [2, 3], [3, 4])]),
            (
                "contract",
                [{"edge": e, "before": 3, "after": 2} for e in ([0, 1], [0, 4], [1, 2], [2, 3], [3, 4])],
            ),
        ],
    )
    def test_base_value_computed_once_per_grid(self, capsys, tmp_path, count_calls, mode, results):
        # C5 has five edges and five non-edges: one oracle call per edited
        # graph and one for C5 itself, not one more per edit.
        path = write(tmp_path, "c5.el", C5)
        calls = count_calls(czf_exact)
        code, out, _ = run(capsys, "probe", "--input", path, "--mode", mode)
        assert code == 0
        assert len(calls) == 6
        assert json.loads(out)["results"] == results

    def test_parallel_matches_serial(self, capsys, tmp_path):
        path = write(tmp_path, "k4.el", K4)
        _, serial, _ = run(capsys, "probe", "--input", path)
        _, parallel, _ = run(capsys, "probe", "--input", path, "--jobs", "2")
        assert json.loads(serial)["results"] == json.loads(parallel)["results"]

    @pytest.mark.parametrize("cpus, expected", [(64, 6), (4, 4), (None, None)])
    def test_jobs_capped_by_grid_and_cpus(self, capsys, tmp_path, monkeypatch, cpus, expected):
        # A fake pool records its size and maps serially, so a huge --jobs
        # value never starts a process.
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        path = write(tmp_path, "k4.el", K4)
        _, serial, _ = run(capsys, "probe", "--input", path)
        code, out, _ = run(capsys, "probe", "--input", path, "--jobs", "100000")
        assert code == 0
        assert sizes == ([] if expected is None else [expected])
        assert json.loads(out)["results"] == json.loads(serial)["results"]


# The wire format byte for byte: key order, separators, witness forms.
C6_ACTIONS = '[["place", 0], ["place", 1], ["place", 3], ["slide", 0, 5], ["slide", 1, 2], ["slide", 3, 4]]'
BOWTIE_ACTIONS = '[["place", 0], ["place", 2], ["place", 3], ["slide", 0, 1], ["slide", 2, 4]]'
SPIKY_ACTIONS = (
    '[["place", 3], ["place", 4], ["place", 5], ["place", 6], '
    '["slide", 4, 0], ["slide", 5, 1], ["slide", 6, 2], ["slide", 3, 7]]'
)
GOLDEN_REPORTS = [
    (
        C6,
        '{"parameter": "czf", "value": 3, "method": "unicyclic", ',
        '"oracle": {"name": "czf_exact", "value": 3}, "agree": true, ',
        '"witness": {"kind": "strategy", "actions": ' + C6_ACTIONS + "}",
    ),
    (
        BOWTIE,
        '{"parameter": "czf", "value": 3, "method": "cactus", ',
        '"oracle": {"name": "czf_exact", "value": 3}, "agree": true, ',
        '"witness": {"kind": "strategy", "actions": ' + BOWTIE_ACTIONS + "}",
    ),
    (
        C4_PRE,
        '{"parameter": "additional-searchers", "value": 1, "method": "cactus", ',
        '"oracle": {"name": "cfms_exact", "value": 1}, "agree": true, ',
        '"witness": {"kind": "strategy", "actions": [["place", 0], ["slide", 1, 2]], "preoccupied": [1, 3]}',
    ),
    (
        SPIKY,
        '{"parameter": "czf", "value": 4, "method": "dismantle", ',
        '"oracle": {"name": "czf_exact", "value": 4}, "agree": true, ',
        '"witness": {"kind": "strategy", "actions": ' + SPIKY_ACTIONS + "}",
    ),
    (
        WORKED,
        '{"parameter": "czf", "value": 4, "method": "exact", ',
        '"oracle": {"name": "d_exact", "value": 4}, "agree": true, ',
        '"witness": {"kind": "forcing-set", "vertices": [0, 1, 2, 3]}',
    ),
    (
        CHAIN,
        '{"parameter": "czf", "value": 2, "method": "clique", ',
        '"oracle": {"name": "czf_exact", "value": 2}, "agree": true, ',
        '"witness": {"kind": "layout", "counts": {"1": 1, "3": 1}}',
    ),
]
GOLDEN_SIMULATIONS = [
    (
        C6, ["--model", "cfms", "--strategy", "place 0; place 1; place 3; slide 0 5; slide 1 2; slide 3 4"],
        "place 0: clears nothing\nplace 1: clears (0,1)\nplace 3: clears nothing\n"
        "slide 0 5: clears (0,5)\nslide 1 2: clears (1,2) (2,3)\nslide 3 4: clears (3,4) (4,5)\n"
        "cleared: all\nsuccess: true\n",
    ),
    (
        BOWTIE, ["--model", "cfms", "--strategy", "place 0; place 2; place 3; slide 0 1; slide 2 4"],
        "place 0: clears nothing\nplace 2: clears (0,2)\nplace 3: clears (2,3)\n"
        "slide 0 1: clears (0,1) (1,2)\nslide 2 4: clears (2,4) (3,4)\ncleared: all\nsuccess: true\n",
    ),
    (
        SPIKY,
        ["--model", "cfms", "--strategy",
         "place 3; place 4; place 5; place 6; slide 4 0; slide 5 1; slide 6 2; slide 3 7"],
        "place 3: clears nothing\nplace 4: clears nothing\nplace 5: clears nothing\nplace 6: clears nothing\n"
        "slide 4 0: clears (0,3) (0,4)\nslide 5 1: clears (0,1) (1,3) (1,5)\n"
        "slide 6 2: clears (0,2) (1,2) (2,3) (2,6)\nslide 3 7: clears (3,7)\ncleared: all\nsuccess: true\n",
    ),
    (
        BOWTIE, ["--model", "cfms", "--strategy", "place 0; place 2; slide 0 1"],
        "place 0: clears nothing\nplace 2: clears (0,2)\nslide 0 1: clears (0,1) (1,2)\n"
        "cleared: 3/6\nunvisited: 3 4\nsuccess: false\n",
    ),
    (
        C4_PRE, ["--model", "cfms", "--strategy", "place 0; slide 1 2"],
        "place 0: clears (0,1) (0,3)\nslide 1 2: clears (1,2) (2,3)\ncleared: all\nsuccess: true\n",
    ),
    (
        C4_PRE, ["--model", "cfms", "--strategy", "place 0"],
        "place 0: clears (0,1) (0,3)\ncleared: 2/4\nunvisited: 2\nsuccess: false\n",
    ),
    (
        "3 1\n0 1\n", ["--model", "cfms", "--strategy", "place 0; place 1"],
        "place 0: clears nothing\nplace 1: clears (0,1)\ncleared: all\nunvisited: 2\nsuccess: false\n",
    ),
    (
        WORKED, ["--model", "czf", "--layout", "0,1,2,3"],
        "force 2 -> 5\nforce 3 -> 4\nforce 1 -> 6\ncolored: all\n",
    ),
    (
        WORKED, ["--model", "deduction", "--layout", "0,1,2,3"],
        "stage 1: 2->5 3->4\nstage 2: 1->6\nterminal: 0:1 4:1 5:1 6:1\nprotected: all\n",
    ),
    (
        CHAIN, ["--model", "deduction", "--layout", "1,3"],
        "stage 1: 3->2\nstage 2: 1->0\nterminal: 0:1 2:1\nprotected: all\n",
    ),
]


class TestGolden:
    @pytest.mark.parametrize("command", ["solve", "verify"])
    @pytest.mark.parametrize(
        "text, head, oracle, witness", GOLDEN_REPORTS,
        ids=["c6", "bowtie", "c4-preoccupied", "spiky", "worked", "chain"],
    )
    def test_report_bytes(self, capsys, tmp_path, command, text, head, oracle, witness):
        argv = [command, "--input", write(tmp_path, "g.el", text)]
        if text == CHAIN:
            argv += ["--method", "clique", "--certificate", write(tmp_path, "cert.json", CHAIN_CERT)]
        code, out, err = run(capsys, *argv)
        report, sep, ms = out.rpartition(', "ms": ')
        assert (code, err) == (0, "")
        assert report == head + (oracle if command == "verify" else "") + witness
        assert sep and ms.endswith("}\n") and float(ms[:-2]) >= 0

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_trace_bytes(self, capsys, tmp_path, command):
        code, _, err = run(capsys, command, "--input", write(tmp_path, "bowtie.el", BOWTIE), "--trace")
        assert code == 0
        assert err == (
            "auto-detection chose the cactus method\n"
            "cactus rule: step5.3 cycle=(0,1,2) extender=2 path=1 cycle=2\n"
            "cactus rule: isolated-cycle (2,3,4) case=none adds=2\n"
        )

    @pytest.mark.parametrize(
        "text, argv, expected", GOLDEN_SIMULATIONS,
        ids=["c6-cfms", "bowtie-cfms", "spiky-cfms", "bowtie-cfms-fails", "c4-preoccupied-cfms",
             "c4-preoccupied-cfms-fails", "isolated-unvisited-cfms", "worked-czf", "worked-deduction", "chain-deduction"],
    )
    def test_simulate_bytes(self, capsys, tmp_path, text, argv, expected):
        code, out, err = run(capsys, "simulate", "--input", write(tmp_path, "g.el", text), *argv)
        assert (code, out, err) == (0, expected, "")

"""Tests for the differential fuzzing harness (repro.fuzz).

Oracle checks are exercised both ways: honest protocols must pass, and
deliberately broken protocol stubs (monkeypatched onto the protocol
modules the registry looks drivers up on) must be caught by exactly the
oracle that owns the broken property.  The shrinker's acceptance bar: an injected size-accounting bug on a
complete host shrinks to a reproducer of at most 12 vertices.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math

import pytest

from repro.core.theory import skeleton_size_bound
from repro.distributed import (
    additive_protocol,
    baswana_sen_protocol,
    skeleton_protocol,
    survey_protocol,
)
from repro.fuzz import (
    FUZZ_PROTOCOLS,
    FuzzCase,
    ORACLE_NAMES,
    build_case_graph,
    case_stream,
    check_case,
    dumps_cases,
    load_corpus,
    materialize,
    replay_corpus,
    run_battery,
    save_reproducer,
    shrink_case,
)
from repro.fuzz.cli import main as fuzz_main
from repro.spanner import Spanner


def explicit_case(protocol, edges, params=None, fault=None, seed=7):
    """A FuzzCase pinned to an explicit edge list."""
    vertices = tuple(sorted({v for e in edges for v in e}))
    return FuzzCase(
        case_id=0,
        protocol=protocol,
        graph_kind="explicit",
        n=len(vertices),
        density=0.0,
        graph_seed=0,
        protocol_seed=seed,
        params=dict(params or {}),
        fault=fault,
        vertices=vertices,
        edges=tuple(sorted(edges)),
    )


def complete_edges(n):
    return tuple(itertools.combinations(range(n), 2))


def cycle_edges(n):
    return tuple(
        (i, (i + 1) % n) if i + 1 < n else (0, i) for i in range(n)
    )


class TestCaseStream:
    def test_same_seed_byte_identical(self):
        a = dumps_cases(case_stream(0, 40))
        b = dumps_cases(case_stream(0, 40))
        assert a == b

    def test_stream_bytes_are_pinned(self):
        # Ten full rotations of the fuzz protocols: the draws, their
        # order and the serialized param keys are part of the
        # replayability contract, so moving the sampler must not
        # change a byte.
        dump = dumps_cases(case_stream(0, 70)).encode()
        assert len(dump) == 17931
        assert hashlib.sha256(dump).hexdigest() == (
            "3ae2d71f0922ce4788c972ee62ce16c97858a07b651a1c5187c7f492f54ecbab"
        )

    def test_different_seed_differs(self):
        assert dumps_cases(case_stream(0, 20)) != dumps_cases(
            case_stream(1, 20)
        )

    def test_round_robin_covers_all_protocols(self):
        cases = case_stream(3, len(FUZZ_PROTOCOLS))
        assert tuple(c.protocol for c in cases) == FUZZ_PROTOCOLS

    def test_protocol_restriction(self):
        cases = case_stream(0, 6, protocols=["skeleton", "survey"])
        assert {c.protocol for c in cases} == {"skeleton", "survey"}

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            case_stream(0, 2, protocols=["nope"])

    def test_fault_fraction_zero_and_one(self):
        assert all(
            c.fault is None for c in case_stream(0, 20, fault_fraction=0.0)
        )
        # Churn cases are exempt: their stream's own crash/recover
        # events are the fault model, so they never get a FaultPlan.
        assert all(
            (c.fault is None) == (c.protocol == "churn")
            for c in case_stream(0, 20, fault_fraction=1.0)
        )

    def test_json_roundtrip(self):
        for case in case_stream(11, 10):
            frozen = materialize(case)
            for c in (case, frozen):
                assert FuzzCase.from_json(
                    json.loads(json.dumps(c.to_json()))
                ) == c

    def test_materialize_preserves_graph(self):
        for case in case_stream(5, 8):
            g = build_case_graph(case)
            frozen = materialize(case)
            fg = build_case_graph(frozen)
            assert sorted(g.vertices()) == sorted(fg.vertices())
            assert sorted(g.edges()) == sorted(fg.edges())


class TestHonestProtocolsPass:
    @pytest.mark.parametrize("protocol", FUZZ_PROTOCOLS)
    def test_small_case_passes_battery(self, protocol):
        cases = case_stream(41, 10, protocols=[protocol])
        case = min(cases, key=lambda c: c.n)
        assert check_case(case) == []


class TestOraclesCatchBrokenProtocols:
    def test_size_oracle_catches_all_edges_spanner(self, monkeypatch):
        monkeypatch.setattr(
            skeleton_protocol,
            "distributed_skeleton",
            lambda graph, **kw: Spanner(
                graph, graph.edges(), {"algorithm": "buggy"}
            ),
        )
        case = explicit_case("skeleton", complete_edges(16),
                             params={"D": 4, "eps": 0.5})
        failures = check_case(case, oracles=("size",))
        assert [f.oracle for f in failures] == ["size"]
        assert "analytic budget" in failures[0].message

    def test_size_oracle_rounds_budget_up_to_whole_edges(self, monkeypatch):
        # Edge counts are integers: exactly ceil(budget) edges passes,
        # one more fails.  bound(12, D=4) = 62.59, so the threshold
        # sits between 63 and 64.
        bound = math.ceil(skeleton_size_bound(12, 4))
        assert bound == 63
        for size, ok in ((bound, True), (bound + 1, False)):
            edges = complete_edges(12)[:size]
            monkeypatch.setattr(
                skeleton_protocol,
                "distributed_skeleton",
                lambda graph, **kw: Spanner(
                    graph, graph.edges(), {"algorithm": "boundary"}
                ),
            )
            case = explicit_case("skeleton", edges,
                                 params={"D": 4, "eps": 0.5})
            failures = check_case(case, oracles=("size",))
            assert (not failures) == ok, (size, failures)

    def test_size_oracle_exempts_degenerate_zero_center_sampling(
        self, monkeypatch
    ):
        # Lemma 6 bounds the expected size; when the first Expand call
        # samples no centers (cluster_counts == [0]) the honest
        # skeleton keeps every edge and the per-instance budget must
        # not fire.  The same output with healthy clustering is a bug.
        def all_edges(counts):
            return lambda graph, **kw: Spanner(
                graph, graph.edges(), {"cluster_counts": counts}
            )

        case = explicit_case(
            "skeleton", complete_edges(16), params={"D": 4, "eps": 0.5}
        )
        monkeypatch.setattr(
            skeleton_protocol, "distributed_skeleton", all_edges([0])
        )
        assert check_case(case, oracles=("size",)) == []
        monkeypatch.setattr(
            skeleton_protocol, "distributed_skeleton", all_edges([5, 1, 0])
        )
        assert [
            f.oracle for f in check_case(case, oracles=("size",))
        ] == ["size"]

    def test_stretch_oracle_catches_path_spanner_of_cycle(
        self, monkeypatch
    ):
        # A Hamiltonian path of a 12-cycle: connected, tiny, but the
        # deleted edge's endpoints sit at distance 11 > 2k - 1 = 3.
        path_edges = tuple((i, i + 1) for i in range(11))
        monkeypatch.setattr(
            baswana_sen_protocol,
            "distributed_baswana_sen",
            lambda graph, k, **kw: Spanner(
                graph, path_edges, {"algorithm": "buggy"}
            ),
        )
        case = explicit_case(
            "baswana_sen", cycle_edges(12), params={"k": 2}
        )
        failures = check_case(case, oracles=("stretch",))
        assert [f.oracle for f in failures] == ["stretch"]

    def test_connectivity_oracle_catches_empty_spanner(self, monkeypatch):
        monkeypatch.setattr(
            additive_protocol,
            "distributed_additive2",
            lambda graph, **kw: Spanner(graph, (), {"algorithm": "buggy"}),
        )
        case = explicit_case("additive", cycle_edges(8))
        failures = check_case(
            case, oracles=("stretch", "connectivity")
        )
        assert [f.oracle for f in failures] == ["connectivity"]

    def test_determinism_oracle_catches_flaky_protocol(self, monkeypatch):
        calls = itertools.count()
        base = cycle_edges(8)

        def flaky(graph, **kw):
            drop = next(calls) % 7
            return Spanner(
                graph,
                [e for i, e in enumerate(base) if i != drop],
                {"algorithm": "flaky"},
            )

        monkeypatch.setattr(
            additive_protocol, "distributed_additive2", flaky
        )
        case = explicit_case("additive", base)
        failures = check_case(case, oracles=("determinism",))
        assert [f.oracle for f in failures] == ["determinism"]

    def test_fault_equivalence_oracle_catches_lossy_reliability(
        self, monkeypatch
    ):
        base = cycle_edges(8)

        def lossy(graph, **kw):
            edges = base if kw.get("fault_plan") is None else base[:-1]
            return Spanner(graph, edges, {"algorithm": "lossy"})

        monkeypatch.setattr(
            additive_protocol, "distributed_additive2", lossy
        )
        case = explicit_case(
            "additive",
            base,
            fault={"seed": 3.0, "drop_rate": 0.1},
        )
        failures = check_case(case, oracles=("fault_equivalence",))
        assert [f.oracle for f in failures] == ["fault_equivalence"]

    def test_differential_oracle_catches_cluster_divergence(
        self, monkeypatch
    ):
        def wrong_clusters(graph, **kw):
            return Spanner(
                graph,
                graph.edges(),
                {"algorithm": "buggy", "cluster_counts": [999]},
            )

        monkeypatch.setattr(
            skeleton_protocol, "distributed_skeleton", wrong_clusters
        )
        case = explicit_case(
            "skeleton", cycle_edges(10), params={"D": 4, "eps": 0.5}
        )
        failures = check_case(case, oracles=("differential",))
        assert [f.oracle for f in failures] == ["differential"]
        assert "cluster evolution" in failures[0].message

    def test_survey_coverage_oracle_catches_empty_knowledge(
        self, monkeypatch
    ):
        from repro.distributed.simulator import NetworkStats

        monkeypatch.setattr(
            survey_protocol,
            "neighborhood_survey",
            lambda graph, radius, **kw: (
                {v: set() for v in graph.vertices()},
                NetworkStats(),
            ),
        )
        case = explicit_case(
            "survey", cycle_edges(8), params={"radius": 2}
        )
        failures = check_case(case, oracles=("connectivity",))
        assert [f.oracle for f in failures] == ["connectivity"]
        assert "misses edge" in failures[0].message

    def test_crashing_protocol_reported_not_raised(self, monkeypatch):
        def boom(graph, **kw):
            raise RuntimeError("kaboom")

        monkeypatch.setattr(skeleton_protocol, "distributed_skeleton", boom)
        case = explicit_case(
            "skeleton", cycle_edges(8), params={"D": 4, "eps": 0.5}
        )
        failures = check_case(case)
        assert failures and failures[0].oracle == "crash"
        assert "kaboom" in failures[0].message

    def test_crash_finding_carries_full_traceback(self, monkeypatch):
        # A shrunk reproducer whose whole failure message is
        # "KeyError: 5" is undebuggable: the crash pseudo-oracle must
        # keep the traceback, including the raising frame's location.
        def boom(graph, **kw):
            raise KeyError(5)

        monkeypatch.setattr(skeleton_protocol, "distributed_skeleton", boom)
        case = explicit_case(
            "skeleton", cycle_edges(8), params={"D": 4, "eps": 0.5}
        )
        failures = check_case(case)
        assert failures and failures[0].oracle == "crash"
        message = failures[0].message
        assert "KeyError: 5" in message
        assert "Traceback (most recent call last)" in message
        assert "boom" in message  # the raising frame is identified

    def test_churn_crash_finding_carries_full_traceback(self, monkeypatch):
        import repro.fuzz.oracles as fuzz_oracles

        def boom(*args, **kw):
            raise KeyError(7)

        monkeypatch.setattr(fuzz_oracles, "check_churn", boom)
        case = FuzzCase(
            case_id=0,
            protocol="churn",
            graph_kind="cycle",
            n=8,
            density=0.2,
            graph_seed=1,
            protocol_seed=1,
            params={"k": 2},
            churn={"batches": 2, "batch_size": 2, "stream_seed": 0},
        )
        failures = check_case(case)
        assert failures and failures[0].oracle == "crash"
        message = failures[0].message
        assert "KeyError: 7" in message
        assert "Traceback (most recent call last)" in message

    def test_unknown_oracle_rejected(self):
        case = explicit_case("additive", cycle_edges(6))
        with pytest.raises(ValueError):
            check_case(case, oracles=("not_an_oracle",))


class TestShrinker:
    @pytest.fixture()
    def all_edges_skeleton(self, monkeypatch):
        monkeypatch.setattr(
            skeleton_protocol,
            "distributed_skeleton",
            lambda graph, **kw: Spanner(
                graph, graph.edges(), {"algorithm": "buggy"}
            ),
        )

    def test_injected_size_bug_shrinks_to_at_most_12_vertices(
        self, all_edges_skeleton
    ):
        case = explicit_case(
            "skeleton", complete_edges(20), params={"D": 4, "eps": 0.5}
        )
        failure = run_battery(case, oracles=("size",))
        assert failure is not None and failure.oracle == "size"
        result = shrink_case(case, failure)
        n = len(result.case.vertices)
        m = len(result.case.edges)
        assert n <= 12
        # The shrunk host must still fail: more edges than the bound.
        assert m > skeleton_size_bound(n, 4)
        assert result.failure.oracle == "size"
        assert "shrunk from n=20" in result.case.note

    def test_shrink_is_deterministic(self, all_edges_skeleton):
        case = explicit_case(
            "skeleton", complete_edges(14), params={"D": 4, "eps": 0.5}
        )
        failure = run_battery(case, oracles=("size",))
        a = shrink_case(case, failure)
        b = shrink_case(case, failure)
        assert a.case == b.case
        assert a.checks == b.checks

    def test_shrink_respects_check_budget(self, all_edges_skeleton):
        case = explicit_case(
            "skeleton", complete_edges(16), params={"D": 4, "eps": 0.5}
        )
        failure = run_battery(case, oracles=("size",))
        result = shrink_case(case, failure, max_checks=10)
        assert result.checks <= 10

    def test_shrink_drops_irrelevant_fault_spec(self, all_edges_skeleton):
        case = explicit_case(
            "skeleton",
            complete_edges(14),
            params={"D": 4, "eps": 0.5},
            fault={"seed": 5.0, "drop_rate": 0.05},
        )
        failure = run_battery(case, oracles=("size",))
        result = shrink_case(case, failure)
        assert result.case.fault is None


class TestCorpus:
    def test_save_load_replay_roundtrip(self, tmp_path):
        corpus = str(tmp_path / "corpus")
        case = materialize(
            min(
                case_stream(19, 5, protocols=["additive"]),
                key=lambda c: c.n,
            )
        )
        path = save_reproducer(case, None, corpus)
        entries = load_corpus(corpus)
        assert [(p, c) for p, c, _ in entries] == [(path, case)]
        results = replay_corpus(corpus)
        assert results and results[0][1] == []

    def test_replay_restricted_oracles(self, tmp_path):
        corpus = str(tmp_path / "corpus")
        case = explicit_case("additive", cycle_edges(8))
        path = save_reproducer(case, None, corpus)
        with open(path) as fh:
            payload = json.load(fh)
        payload["oracles"] = ["subgraph", "determinism"]
        with open(path, "w") as fh:
            json.dump(payload, fh)
        (_, _, restriction), = load_corpus(corpus)
        assert restriction == ("subgraph", "determinism")
        (_, failures), = replay_corpus(corpus)
        assert failures == []

    def test_unknown_schema_rejected(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "bad.json").write_text('{"schema": 99}')
        with pytest.raises(ValueError):
            load_corpus(str(corpus))

    def test_missing_directory_is_empty(self, tmp_path):
        assert load_corpus(str(tmp_path / "nope")) == []
        assert replay_corpus(str(tmp_path / "nope")) == []


class TestCLI:
    def test_clean_sweep_exits_zero(self, capsys):
        assert fuzz_main(["--cases", "3", "--seed", "1", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "3 cases passed" in out

    def test_failure_exits_one_and_saves_reproducer(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(
            skeleton_protocol,
            "distributed_skeleton",
            lambda graph, **kw: Spanner(
                graph, graph.edges(), {"algorithm": "buggy"}
            ),
        )
        corpus = str(tmp_path / "corpus")
        code = fuzz_main(
            [
                "--cases", "5",
                "--seed", "0",
                "--protocols", "skeleton",
                "--corpus", corpus,
                "--quiet",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "reproducer:" in out
        assert len(load_corpus(corpus)) == 1

    def test_replay_empty_corpus(self, tmp_path, capsys):
        code = fuzz_main(
            ["--replay", "--corpus", str(tmp_path / "corpus")]
        )
        assert code == 0
        assert "no entries" in capsys.readouterr().out

    def test_oracle_names_exported(self):
        assert set(ORACLE_NAMES) == {
            "subgraph",
            "size",
            "stretch",
            "connectivity",
            "determinism",
            "fault_equivalence",
            "differential",
            "rand_vs_det",
        }

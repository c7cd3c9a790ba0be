"""Tests for repro.lint — the protocol-invariant static analyzer.

One positive + one clean/suppressed fixture per rule (written to
``tmp_path`` so scoping falls back to "in scope for every rule"), CLI
exit-code coverage through the in-process entry points, and the
meta-test that the live ``src`` tree is lint-clean.
"""

from __future__ import annotations

import io
import json
import re
import subprocess
import sys
import textwrap
import tokenize
from pathlib import Path

import pytest

from repro.lint import (
    RULES,
    AsyncSafetyRule,
    CongestPayloadRule,
    DeterminismRule,
    Diagnostic,
    LayeringRule,
    TaintRule,
    build_project,
    lint_paths,
    parse_suppressions,
)
from repro.lint import diagnostics
from repro.lint.runner import main as lint_main

SRC = Path(__file__).resolve().parent.parent / "src"


def write(tmp_path: Path, name: str, body: str) -> Path:
    path = tmp_path / name
    path.write_text(textwrap.dedent(body), encoding="utf-8")
    return path


def codes(diags) -> list:
    return [d.code for d in diags]


# ----------------------------------------------------------------------
# REP001 determinism
# ----------------------------------------------------------------------
def test_rep001_flags_random_and_time(tmp_path):
    path = write(
        tmp_path,
        "bad_rng.py",
        """\
        import random
        import time

        def jitter():
            return random.random() + time.time()
        """,
    )
    found = codes(lint_paths([str(path)]))
    assert found == ["REP001", "REP001"]


def test_rep001_flags_from_imports_and_unseeded_numpy(tmp_path):
    path = write(
        tmp_path,
        "bad_np.py",
        """\
        from random import shuffle
        import numpy as np

        def pick():
            return np.random.rand()
        """,
    )
    found = codes(lint_paths([str(path)]))
    assert found == ["REP001", "REP001"]


def test_rep001_allows_util_rng_and_seeded_numpy(tmp_path):
    path = write(
        tmp_path,
        "good_rng.py",
        """\
        import numpy as np
        from repro.util.rng import ensure_rng

        def pick(seed):
            rng = ensure_rng(seed)
            gen = np.random.default_rng(seed)
            return rng.random(), gen.random()
        """,
    )
    assert lint_paths([str(path)]) == []


def test_rep001_suppression_comment(tmp_path):
    path = write(
        tmp_path,
        "suppressed.py",
        """\
        import time

        def stamp():
            return time.time()  # repro-lint: disable=REP001
        """,
    )
    found = codes(lint_paths([str(path)]))
    # the call is suppressed; the bare ``import time`` is fine (only
    # time.time()/time_ns() reads are flagged, not the module import).
    assert "REP001" not in found


def test_rep001_flags_direct_os_entropy_calls(tmp_path):
    # REP001 and REP010 share one source table, so an entropy call
    # REP010 convicts one module away is convicted here too.
    path = write(
        tmp_path,
        "entropy_ids.py",
        """\
        import secrets
        import uuid
        from uuid import uuid1

        def fresh():
            return secrets.token_hex(8), uuid.uuid4(), uuid1()
        """,
    )
    found = lint_paths([str(path)])
    assert codes(found) == ["REP001", "REP001", "REP001"]
    messages = " ".join(d.message for d in found)
    for source in ("secrets.token_hex", "uuid.uuid4", "uuid.uuid1"):
        assert f"{source}() draws OS entropy" in messages


# ----------------------------------------------------------------------
# REP002 simulation honesty
# ----------------------------------------------------------------------
def test_rep002_flags_simulator_internals(tmp_path):
    path = write(
        tmp_path,
        "cheat_protocol.py",
        """\
        class CheatProgram(NodeProgram):
            def on_round(self, api):
                other = api._network._apis[0]
                return other._outbox
        """,
    )
    found = codes(lint_paths([str(path)]))
    assert "REP002" in found


def test_rep002_flags_foreign_private_state(tmp_path):
    path = write(
        tmp_path,
        "peek_protocol.py",
        """\
        class PeekProgram(NodeProgram):
            def on_round(self, api, neighbor):
                return neighbor._dist
        """,
    )
    found = codes(lint_paths([str(path)]))
    assert "REP002" in found


def test_rep002_allows_self_state_and_messages(tmp_path):
    path = write(
        tmp_path,
        "honest_protocol.py",
        """\
        class HonestProgram(NodeProgram):
            def on_round(self, api):
                for src, payload in api.recv():
                    self._dist = min(self._dist, payload + 1)
                api.broadcast(self._dist)
        """,
    )
    assert lint_paths([str(path)]) == []


def test_rep002_only_scopes_protocol_files(tmp_path):
    # same cheating code, but not in a *_protocol.py file and not in a
    # NodeProgram subclass -> driver code, out of scope.
    path = write(
        tmp_path,
        "driver.py",
        """\
        def harvest(network):
            return [api._outbox for api in network._apis.values()]
        """,
    )
    assert "REP002" not in codes(lint_paths([str(path)]))


# ----------------------------------------------------------------------
# REP003 message discipline
# ----------------------------------------------------------------------
def test_rep003_flags_set_and_dict_payloads(tmp_path):
    path = write(
        tmp_path,
        "wire.py",
        """\
        def talk(api, nbrs):
            api.send(1, {2, 3})
            api.broadcast({"d": 4})
            api.send(2, (1, set(nbrs)))
        """,
    )
    found = codes(lint_paths([str(path)]))
    assert found == ["REP003", "REP003", "REP003"]


def test_rep003_flags_generator_and_lambda_payloads(tmp_path):
    path = write(
        tmp_path,
        "wire2.py",
        """\
        def talk(api, nbrs):
            api.broadcast(x + 1 for x in nbrs)
            api.send(1, payload=lambda: 3)
        """,
    )
    assert codes(lint_paths([str(path)])) == ["REP003", "REP003"]


def test_rep003_allows_ordered_payloads(tmp_path):
    path = write(
        tmp_path,
        "wire_ok.py",
        """\
        def talk(api, nbrs):
            api.send(1, (0, "ball", tuple(sorted(nbrs))))
            api.broadcast(None)
        """,
    )
    assert lint_paths([str(path)]) == []


# ----------------------------------------------------------------------
# REP004 obs guard
# ----------------------------------------------------------------------
def test_rep004_flags_unguarded_obs_call(tmp_path):
    path = write(
        tmp_path,
        "unguarded.py",
        """\
        def run(graph, obs=None):
            obs.emit("start", n=graph.n)
        """,
    )
    assert codes(lint_paths([str(path)])) == ["REP004"]


def test_rep004_accepts_guarded_calls(tmp_path):
    path = write(
        tmp_path,
        "guarded.py",
        """\
        def run(graph, obs=None):
            if obs is not None:
                obs.emit("start", n=graph.n)
            if obs is not None and graph.n > 2:
                obs.emit("big")
            if obs is None:
                return
            obs.emit("end")
        """,
    )
    assert lint_paths([str(path)]) == []


# ----------------------------------------------------------------------
# REP005 iteration order
# ----------------------------------------------------------------------
def test_rep005_flags_bare_set_iteration(tmp_path):
    path = write(
        tmp_path,
        "iter_bad.py",
        """\
        def walk(edges):
            live = {v for u, v in edges}
            for v in live:
                yield v
        """,
    )
    assert codes(lint_paths([str(path)])) == ["REP005"]


def test_rep005_accepts_sorted_iteration(tmp_path):
    path = write(
        tmp_path,
        "iter_ok.py",
        """\
        def walk(edges):
            live = {v for u, v in edges}
            for v in sorted(live):
                yield v
        """,
    )
    assert lint_paths([str(path)]) == []


def test_rep005_sorted_reassignment_vetoes(tmp_path):
    # flow-insensitive inference must not flag a name that was visibly
    # rebound to an ordered value before the loop.
    path = write(
        tmp_path,
        "iter_rebound.py",
        """\
        def walk(edges):
            points = {v for u, v in edges}
            points = sorted(points)
            for v in points:
                yield v
        """,
    )
    assert lint_paths([str(path)]) == []


def test_rep005_flags_comprehension_over_set_param(tmp_path):
    path = write(
        tmp_path,
        "iter_param.py",
        """\
        from typing import Set

        def labels(active: Set[int]):
            return [v * 2 for v in active]
        """,
    )
    assert codes(lint_paths([str(path)])) == ["REP005"]


# ----------------------------------------------------------------------
# Suppressions / REP000
# ----------------------------------------------------------------------
def test_file_wide_suppression(tmp_path):
    path = write(
        tmp_path,
        "whole_file.py",
        """\
        # repro-lint: disable-file=REP001
        import time

        def a():
            return time.time()

        def b():
            return time.time()
        """,
    )
    assert lint_paths([str(path)]) == []


def test_rep000_on_syntax_error(tmp_path):
    path = write(tmp_path, "broken.py", "def oops(:\n")
    found = lint_paths([str(path)])
    assert codes(found) == ["REP000"]
    assert "does not parse" in found[0].message


def test_parse_suppressions_tolerates_garbage():
    sup = parse_suppressions("x = (")
    assert not sup.active(1, "REP001")


def test_marker_free_source_is_not_tokenized(monkeypatch):
    def tokenizer_called(*args, **kwargs):
        raise AssertionError("tokenized a source without a directive")

    monkeypatch.setattr(tokenize, "generate_tokens", tokenizer_called)
    sup = parse_suppressions("import time\nt = time.time()  # a note\n")
    assert sup.directives == []
    assert not sup.active(2, "REP001")


@pytest.mark.parametrize("tree", ["fixture", "src"])
def test_json_output_unchanged_when_every_file_is_tokenized(
    tmp_path, monkeypatch, tree
):
    """Skipping marker-free files changes nothing `repro lint --format
    json` prints: on `src` and on a tree with a finding, a suppressed
    finding and a stale directive, output equals tokenizing every file."""
    if tree == "src":
        root = SRC
    else:
        root = tmp_path
        write(tmp_path, "plain.py", "import time\nt = time.time()\n")
        write(
            tmp_path,
            "marked.py",
            """\
            import time

            def a():
                return time.time()

            def b():
                return time.time()  # repro-lint: disable=REP001

            x = 1  # repro-lint: disable=REP005
            """,
        )
    argv = ["--format", "json", "--report-unused-suppressions", str(root)]
    outputs = []
    for marker in (diagnostics._MARKER, ""):
        monkeypatch.setattr(diagnostics, "_MARKER", marker)
        out = io.StringIO()
        lint_main(argv, out=out)
        outputs.append(out.getvalue())
    assert outputs[0] == outputs[1]
    if tree == "fixture":
        assert [d["code"] for d in json.loads(outputs[0])] == [
            "REP001", "REP099", "REP001"
        ]


# ----------------------------------------------------------------------
# Runner / CLI
# ----------------------------------------------------------------------
def test_diagnostic_render_format():
    d = Diagnostic(path="a.py", line=3, col=7, code="REP001", message="m")
    assert d.render() == "a.py:3:7: REP001 m"


def test_lint_paths_missing_path_raises():
    with pytest.raises(FileNotFoundError):
        lint_paths(["/no/such/dir/anywhere"])


def test_cli_exit_codes(tmp_path):
    bad = write(tmp_path, "bad.py", "import time\nt = time.time()\n")
    out = io.StringIO()
    assert lint_main([str(bad)], out=out) == 1
    text = out.getvalue()
    assert "REP001" in text and "finding(s)" in text

    good = write(tmp_path, "good.py", "x = 1\n")
    assert lint_main([str(good)], out=io.StringIO()) == 0

    # unknown --select code and missing path are usage errors (exit 2).
    assert lint_main(["--select", "REP999", str(good)], out=io.StringIO()) == 2
    assert lint_main([str(tmp_path / "missing.py")], out=io.StringIO()) == 2


def test_cli_select_narrows_rules(tmp_path):
    path = write(
        tmp_path,
        "two.py",
        """\
        import time

        def f(s):
            t = time.time()
            return [x for x in {1, 2, 3}]
        """,
    )
    out = io.StringIO()
    assert lint_main(["--select", "REP005", str(path)], out=out) == 1
    assert "REP005" in out.getvalue()
    assert "REP001" not in out.getvalue()


def test_cli_list_rules():
    out = io.StringIO()
    assert lint_main(["--list-rules"], out=out) == 0
    lines = out.getvalue().splitlines()
    assert [line.split()[0] for line in lines] == [r.code for r in RULES]


def test_rules_catalog_matches_registered_codes():
    doc = (SRC.parent / "docs" / "static_analysis.md").read_text("utf-8")
    headings = re.findall(r"^### (REP\d{3})\b", doc, flags=re.M)
    assert headings == [rule.code for rule in RULES]


def test_module_entry_point_lists_lint():
    # -B: the stripped env drops PYTHONDONTWRITEBYTECODE, and .pyc
    # files written into src/ skew timings taken from this checkout.
    result = subprocess.run(
        [sys.executable, "-B", "-m", "repro", "--help"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0
    assert "lint" in result.stdout


# ----------------------------------------------------------------------
# Meta-test: the live tree is lint-clean
# ----------------------------------------------------------------------
def test_live_src_is_lint_clean():
    findings = lint_paths([str(SRC)])
    rendered = "\n".join(d.render() for d in findings)
    assert findings == [], f"src/ has lint findings:\n{rendered}"


# ----------------------------------------------------------------------
# Whole-program rules REP010-REP013
# ----------------------------------------------------------------------
def test_rep010_cross_module_taint_true_positive(tmp_path):
    write(
        tmp_path,
        "helper.py",
        """\
        import time

        def stamp():
            return time.time()
        """,
    )
    algo = write(
        tmp_path,
        "algo.py",
        """\
        from helper import stamp

        def run():
            return stamp()
        """,
    )
    findings = lint_paths([str(tmp_path)], rules=[TaintRule()])
    assert codes(findings) == ["REP010"]
    (diag,) = findings
    assert diag.path == str(algo)
    assert "time.time" in diag.message
    assert "helper.stamp" in diag.message


def test_rep010_transitive_chain_reported(tmp_path):
    write(
        tmp_path,
        "entropy.py",
        """\
        import os

        def raw():
            return os.urandom(8)
        """,
    )
    write(
        tmp_path,
        "middle.py",
        """\
        from entropy import raw

        def wrapped():
            return raw()
        """,
    )
    write(
        tmp_path,
        "consumer.py",
        """\
        from middle import wrapped

        def use():
            return wrapped()
        """,
    )
    findings = lint_paths([str(tmp_path)], rules=[TaintRule()])
    # consumer -> middle (cross-module, tainted) and middle -> entropy
    # (cross-module, tainted) are both flagged.
    assert codes(findings) == ["REP010", "REP010"]
    messages = " ".join(d.message for d in findings)
    assert "os.urandom" in messages
    assert "middle.wrapped -> entropy.raw" in messages


def test_rep010_set_order_escape_source(tmp_path):
    write(
        tmp_path,
        "setops.py",
        """\
        from typing import Set

        def leak_order(items: Set[int]):
            return list(items)
        """,
    )
    consumer = write(
        tmp_path,
        "uses_setops.py",
        """\
        from setops import leak_order

        def pick(xs):
            return leak_order(set(xs))
        """,
    )
    findings = lint_paths([str(tmp_path)], rules=[TaintRule()])
    assert codes(findings) == ["REP010"]
    assert findings[0].path == str(consumer)
    assert "unsorted set iteration" in findings[0].message


def test_rep010_clean_helpers_not_flagged(tmp_path):
    write(
        tmp_path,
        "mathy.py",
        """\
        from typing import Set

        def double(x):
            return 2 * x

        def ordered(items: Set[int]):
            return sorted(items)
        """,
    )
    write(
        tmp_path,
        "clean_user.py",
        """\
        from mathy import double, ordered

        def run(xs):
            return double(len(ordered(set(xs))))
        """,
    )
    findings = lint_paths([str(tmp_path)], rules=[TaintRule()])
    assert findings == []


def test_rep010_rng_module_is_sanctioned(tmp_path):
    write(
        tmp_path,
        "rng.py",
        """\
        import random

        def ensure_rng(seed):
            return random.Random(seed)
        """,
    )
    write(
        tmp_path,
        "seeded_user.py",
        """\
        from rng import ensure_rng

        def run(seed):
            return ensure_rng(seed).random()
        """,
    )
    findings = lint_paths([str(tmp_path)], rules=[TaintRule()])
    assert findings == []


@pytest.mark.parametrize("subtrees", [False, True], ids=["src", "subtrees"])
def test_rep010_partial_tree_resolves_absolute_imports(tmp_path, subtrees):
    """Modules are named from their package root, not the CLI path, so
    linting ``repro/core`` and ``repro/analysis`` as two paths still
    resolves the absolute ``repro.`` import between them."""
    src = tmp_path / "src"
    for package in ("repro", "repro/core", "repro/analysis"):
        (src / package).mkdir(parents=True, exist_ok=True)
        (src / package / "__init__.py").write_text("", encoding="utf-8")
    write(
        src / "repro" / "analysis",
        "tables.py",
        """\
        import time

        def stamp():
            return time.time()
        """,
    )
    schedule = write(
        src / "repro" / "core",
        "schedule.py",
        """\
        from repro.analysis.tables import stamp

        def plan():
            return stamp()
        """,
    )
    roots = (
        [src / "repro" / "core", src / "repro" / "analysis"]
        if subtrees
        else [src]
    )
    findings = lint_paths([str(r) for r in roots], rules=[TaintRule()])
    assert codes(findings) == ["REP010"]
    assert findings[0].path == str(schedule)
    assert "repro.analysis.tables.stamp" in findings[0].message


def test_rep011_layer_violation_true_positive(tmp_path):
    pkg = tmp_path / "repro"
    (pkg / "core").mkdir(parents=True)
    (pkg / "serving").mkdir()
    (pkg / "serving" / "svc.py").write_text("X = 1\n", encoding="utf-8")
    bad = pkg / "core" / "bad.py"
    bad.write_text(
        "import repro.serving.svc\nY = repro.serving.svc.X\n",
        encoding="utf-8",
    )
    findings = lint_paths([str(tmp_path)], rules=[LayeringRule()])
    assert codes(findings) == ["REP011"]
    assert findings[0].path == str(bad)
    assert "'core' must not import 'serving'" in findings[0].message


def test_rep011_function_local_import_is_exempt(tmp_path):
    pkg = tmp_path / "repro"
    (pkg / "core").mkdir(parents=True)
    (pkg / "serving").mkdir()
    (pkg / "serving" / "svc.py").write_text("X = 1\n", encoding="utf-8")
    (pkg / "core" / "late.py").write_text(
        "def peek():\n    import repro.serving.svc\n"
        "    return repro.serving.svc.X\n",
        encoding="utf-8",
    )
    findings = lint_paths([str(tmp_path)], rules=[LayeringRule()])
    assert findings == []


def test_rep011_allowed_direction_is_clean(tmp_path):
    pkg = tmp_path / "repro"
    (pkg / "core").mkdir(parents=True)
    (pkg / "serving").mkdir()
    (pkg / "core" / "alg.py").write_text("X = 1\n", encoding="utf-8")
    (pkg / "serving" / "svc.py").write_text(
        "from repro.core.alg import X\nY = X\n", encoding="utf-8"
    )
    findings = lint_paths([str(tmp_path)], rules=[LayeringRule()])
    assert findings == []


def test_rep011_import_cycle_detected(tmp_path):
    write(tmp_path, "alpha.py", "import beta\nA = 1\n")
    write(tmp_path, "beta.py", "import alpha\nB = 2\n")
    findings = lint_paths([str(tmp_path)], rules=[LayeringRule()])
    assert codes(findings) == ["REP011"]
    assert "import-time cycle" in findings[0].message
    assert "alpha -> beta -> alpha" in findings[0].message


def test_rep011_deferred_import_breaks_cycle(tmp_path):
    write(tmp_path, "gamma.py", "import delta\nA = 1\n")
    write(
        tmp_path,
        "delta.py",
        "def late():\n    import gamma\n    return gamma.A\n",
    )
    findings = lint_paths([str(tmp_path)], rules=[LayeringRule()])
    assert findings == []


def test_rep012_unbounded_payload_true_positive(tmp_path):
    proto = write(
        tmp_path,
        "flood_protocol.py",
        """\
        from typing import List

        class _Prog:
            edges: List[int]

            def on_round(self, api, round_index, inbox):
                api.broadcast(tuple(sorted(self.edges)))
        """,
    )
    findings = lint_paths([str(tmp_path)], rules=[CongestPayloadRule()])
    assert codes(findings) == ["REP012"]
    assert findings[0].path == str(proto)
    assert "no constant word bound" in findings[0].message


def test_rep012_cross_module_helper_return_type(tmp_path):
    write(
        tmp_path,
        "batching.py",
        """\
        from typing import List

        def make_batch(xs: List[int]) -> List[int]:
            return sorted(xs)
        """,
    )
    write(
        tmp_path,
        "batch_protocol.py",
        """\
        from batching import make_batch

        class _Prog:
            def setup(self, api):
                api.broadcast(make_batch([1, 2, 3]))
        """,
    )
    findings = lint_paths([str(tmp_path)], rules=[CongestPayloadRule()])
    assert codes(findings) == ["REP012"]


def test_rep012_bounded_payloads_are_clean(tmp_path):
    write(
        tmp_path,
        "tidy_protocol.py",
        """\
        from typing import List, Optional, Tuple

        _JOIN = "join"

        class _Prog:
            center: int
            best: Optional[Tuple[int, int, int]]
            queue: List[int]
            cap: int

            def setup(self, api):
                api.broadcast(self.center)

            def on_round(self, api, round_index, inbox):
                api.broadcast((_JOIN,) + self.best)
                api.broadcast(tuple(self.queue[: self.cap]))
                api.broadcast((_JOIN, len(self.queue), round_index > 0))
        """,
    )
    findings = lint_paths([str(tmp_path)], rules=[CongestPayloadRule()])
    assert findings == []


def test_rep012_type_alias_resolves_across_modules(tmp_path):
    write(
        tmp_path,
        "shapes.py",
        """\
        from typing import Tuple

        Edge = Tuple[int, int]
        """,
    )
    write(
        tmp_path,
        "alias_protocol.py",
        """\
        from shapes import Edge

        class _Prog:
            chosen: Edge

            def setup(self, api):
                api.broadcast(self.chosen)
        """,
    )
    findings = lint_paths([str(tmp_path)], rules=[CongestPayloadRule()])
    assert findings == []


def test_rep012_scoped_to_protocol_files(tmp_path):
    write(
        tmp_path,
        "not_a_proto.py",
        """\
        from typing import List

        class _Helper:
            edges: List[int]

            def run(self, api):
                api.broadcast(tuple(self.edges))
        """,
    )
    findings = lint_paths([str(tmp_path)], rules=[CongestPayloadRule()])
    assert findings == []


def test_rep013_blocking_call_in_coroutine(tmp_path):
    path = write(
        tmp_path,
        "slow_server.py",
        """\
        import time

        async def handle(conn):
            time.sleep(0.1)
            return conn
        """,
    )
    findings = lint_paths([str(tmp_path)], rules=[AsyncSafetyRule()])
    assert codes(findings) == ["REP013"]
    assert findings[0].path == str(path)
    assert "time.sleep" in findings[0].message


def test_rep013_sync_open_in_coroutine(tmp_path):
    write(
        tmp_path,
        "filey_server.py",
        """\
        async def dump(data):
            with open("out.json", "w") as fh:
                fh.write(data)
        """,
    )
    findings = lint_paths([str(tmp_path)], rules=[AsyncSafetyRule()])
    assert codes(findings) == ["REP013"]
    assert "open()" in findings[0].message


def test_rep013_unawaited_coroutine(tmp_path):
    write(
        tmp_path,
        "droppy_server.py",
        """\
        class Server:
            async def _drain(self):
                return 1

            async def close(self):
                self._drain()
        """,
    )
    findings = lint_paths([str(tmp_path)], rules=[AsyncSafetyRule()])
    assert codes(findings) == ["REP013"]
    assert "never awaited" in findings[0].message


def test_rep013_shared_state_race(tmp_path):
    write(
        tmp_path,
        "racy_server.py",
        """\
        class Server:
            async def _drain_loop(self):
                self.served += 1

            async def handle(self, req):
                self.served = self.compute(req)
        """,
    )
    findings = lint_paths([str(tmp_path)], rules=[AsyncSafetyRule()])
    assert codes(findings) == ["REP013"]
    assert "self.served" in findings[0].message
    assert "drain-loop" in findings[0].message


def test_rep013_clean_async_patterns(tmp_path):
    write(
        tmp_path,
        "good_server.py",
        """\
        import asyncio

        class Server:
            async def _drain_loop(self):
                self._served += 1
                await asyncio.sleep(0)

            async def close(self):
                self._shutting_down = True
                await self._drain()

            async def _drain(self):
                self._shutting_down = True
        """,
    )
    findings = lint_paths([str(tmp_path)], rules=[AsyncSafetyRule()])
    assert findings == []


def test_project_mode_inline_suppressions_apply(tmp_path):
    write(
        tmp_path,
        "sup_helper.py",
        """\
        import time

        def stamp():
            return time.time()
        """,
    )
    write(
        tmp_path,
        "sup_user.py",
        """\
        from sup_helper import stamp

        def run():
            return stamp()  # repro-lint: disable=REP010
        """,
    )
    findings = lint_paths([str(tmp_path)], rules=[TaintRule()])
    assert findings == []


# ----------------------------------------------------------------------
# Satellites: unused suppressions, json output, runner hardening
# ----------------------------------------------------------------------
def test_unused_suppression_reported(tmp_path):
    path = write(
        tmp_path,
        "stale.py",
        """\
        x = 1  # repro-lint: disable=REP001
        """,
    )
    findings = lint_paths(
        [str(tmp_path)], report_unused_suppressions=True
    )
    assert codes(findings) == ["REP099"]
    assert findings[0].path == str(path)
    assert "REP001" in findings[0].message

    # without the flag, stale directives stay silent
    assert lint_paths([str(tmp_path)]) == []


def test_used_suppression_not_reported(tmp_path):
    write(
        tmp_path,
        "used.py",
        """\
        import time

        def f():
            return time.time()  # repro-lint: disable=REP001
        """,
    )
    findings = lint_paths(
        [str(tmp_path)], report_unused_suppressions=True
    )
    assert findings == []


def test_unused_suppression_audit_judges_only_rules_that_ran(tmp_path):
    write(tmp_path, "quiet_protocol.py", "x = 1  # repro-lint: disable=REP012")
    write(tmp_path, "quiet_all.py", "y = 2  # repro-lint: disable=all")
    # REP012 did not run, so its directive may still be needed; ``all``
    # names REP012 too.
    assert (
        lint_paths(
            [str(tmp_path)],
            rules=[DeterminismRule()],
            report_unused_suppressions=True,
        )
        == []
    )
    only_rep012 = lint_paths(
        [str(tmp_path)],
        rules=[CongestPayloadRule()],
        report_unused_suppressions=True,
    )
    assert [(Path(d.path).name, d.code) for d in only_rep012] == [
        ("quiet_protocol.py", "REP099")
    ]
    assert "suppression of REP012" in only_rep012[0].message
    every_rule = lint_paths([str(tmp_path)], report_unused_suppressions=True)
    assert sorted(Path(d.path).name for d in every_rule) == [
        "quiet_all.py",
        "quiet_protocol.py",
    ]


def test_cli_report_unused_suppressions(tmp_path):
    write(tmp_path, "stale2.py", "y = 2  # repro-lint: disable=REP005\n")
    out = io.StringIO()
    assert (
        lint_main(
            ["--report-unused-suppressions", str(tmp_path)], out=out
        )
        == 1
    )
    assert "REP099" in out.getvalue()


def test_cli_format_json(tmp_path):
    bad = write(tmp_path, "bad_json.py", "import time\nt = time.time()\n")
    out = io.StringIO()
    assert lint_main(["--format", "json", str(bad)], out=out) == 1
    payload = json.loads(out.getvalue())
    assert isinstance(payload, list) and payload
    first = payload[0]
    assert set(first) == {"path", "line", "col", "code", "message"}
    assert first["code"] == "REP001"
    assert first["path"] == str(bad)

    # clean tree: an empty JSON array, exit 0
    out2 = io.StringIO()
    clean = write(tmp_path, "clean_json.py", "x = 1\n")
    assert lint_main(["--format", "json", str(clean)], out=out2) == 0
    assert json.loads(out2.getvalue()) == []


def test_runner_dedupes_duplicate_paths(tmp_path):
    bad = write(tmp_path, "dup.py", "import time\nt = time.time()\n")
    once = lint_paths([str(bad)])
    twice = lint_paths([str(bad), str(bad)])
    via_dir_and_file = lint_paths([str(tmp_path), str(bad)])
    assert codes(once) == ["REP001"]
    assert twice == once
    assert via_dir_and_file == once


def test_runner_skips_pycache_and_non_py(tmp_path):
    cache = tmp_path / "__pycache__"
    cache.mkdir()
    (cache / "junk.py").write_text(
        "import time\nt = time.time()\n", encoding="utf-8"
    )
    (tmp_path / "notes.txt").write_text("import time\n", encoding="utf-8")
    write(tmp_path, "real.py", "import time\nt = time.time()\n")
    findings = lint_paths([str(tmp_path)])
    assert [d.path for d in findings] == [str(tmp_path / "real.py")]
    # a non-.py file passed explicitly is skipped, not parsed
    assert lint_paths([str(tmp_path / "notes.txt")]) == []


def test_same_module_name_files_are_all_linted(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = write(tmp_path, "a/mod.py", "import random\nx = random.random()\n")
    second = write(tmp_path, "b/mod.py", "import time\nt = time.time()\n")
    as_files = lint_paths([str(first), str(second)])
    as_dirs = lint_paths([str(tmp_path / "a"), str(tmp_path / "b")])
    for found in (as_files, as_dirs):
        assert [(d.path, d.code) for d in found] == [
            (str(first), "REP001"),
            (str(second), "REP001"),
        ]
    # the second ``mod`` gets a key no import resolves to.
    project, _ = build_project([str(first), str(second)])
    assert sorted(project.modules) == ["mod", "mod#2"]


def test_diagnostic_ordering_is_pinned(tmp_path):
    write(
        tmp_path,
        "a_order.py",
        """\
        import time

        def f():
            t = time.time()
            return [x for x in {1, 2}]
        """,
    )
    write(tmp_path, "b_order.py", "import time\nt = time.time()\n")
    findings = lint_paths([str(tmp_path)])
    keys = [(d.path, d.line, d.col, d.code) for d in findings]
    assert keys == sorted(keys)
    assert findings == sorted(findings)


def test_project_diagnostics_byte_identical_across_runs(tmp_path):
    write(
        tmp_path,
        "det_helper.py",
        """\
        import time

        def stamp():
            return time.time()
        """,
    )
    write(
        tmp_path,
        "det_user_protocol.py",
        """\
        from typing import List

        from det_helper import stamp

        class _Prog:
            edges: List[int]

            def setup(self, api):
                self.t = stamp()
                api.broadcast(tuple(self.edges))
        """,
    )
    first = lint_paths([str(tmp_path)])
    second = lint_paths([str(tmp_path)])
    render_a = "\n".join(d.render() for d in first).encode("utf-8")
    render_b = "\n".join(d.render() for d in second).encode("utf-8")
    assert render_a == render_b
    assert {"REP010", "REP012"} <= set(codes(first))


def test_cli_select_runs_whole_program_rules(tmp_path):
    write(tmp_path, "alpha.py", "import beta\nA = 1\n")
    write(tmp_path, "beta.py", "import alpha\nB = 2\n")
    out = io.StringIO()
    assert lint_main(["--select", "REP011", str(tmp_path)], out=out) == 1
    assert "REP011" in out.getvalue()


def test_cli_list_rules_includes_project_rules():
    # the whole-program rules are listed like the others, with name and
    # summary, and no line points at a separate mode flag.
    out = io.StringIO()
    assert lint_main(["--list-rules"], out=out) == 0
    lines = out.getvalue().splitlines()
    whole_program = (
        TaintRule(),
        LayeringRule(),
        CongestPayloadRule(),
        AsyncSafetyRule(),
    )
    for rule in whole_program:
        assert f"{rule.code} {rule.name}: {rule.summary}" in lines
    assert "--project" not in out.getvalue()


# ----------------------------------------------------------------------
# Meta-test: the live tree is clean under the whole-program rules
# ----------------------------------------------------------------------
def test_live_src_is_project_clean():
    # through the CLI, narrowed to REP010-REP013: exit 0, no output.
    out = io.StringIO()
    argv = ["--select", "REP010,REP011,REP012,REP013", str(SRC)]
    assert lint_main(argv, out=out) == 0, out.getvalue()
    assert out.getvalue() == ""


def test_live_src_has_no_unused_suppressions():
    findings = lint_paths([str(SRC)], report_unused_suppressions=True)
    rendered = "\n".join(d.render() for d in findings)
    assert findings == [], f"stale suppressions in src/:\n{rendered}"


def test_live_src_audit_under_select_keeps_other_rules_directives():
    # src/ carries audited REP012 suppressions; a REP001-only audit
    # cannot tell whether they are stale, so it must not report them.
    argv = ["--report-unused-suppressions", "--select", "REP001", str(SRC)]
    assert lint_main(argv, out=io.StringIO()) == 0

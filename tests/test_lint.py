"""The repo-specific AST linter: every REP rule fires on its bad fixture,
stays quiet on the matching clean fixture, and the real tree is clean."""

import os
import subprocess
import sys

import pytest

from repro.devtools.lint import RULES, check_source, lint_file, lint_paths

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
FIXTURES = os.path.join(HERE, "fixtures", "lint")


def codes_in(path):
    return [f.code for f in lint_file(path)]


def fixture(*parts):
    return os.path.join(FIXTURES, *parts)


class TestRuleFixtures:
    """Each rule proves it fires (bad fixture) and doesn't overfire (good)."""

    @pytest.mark.parametrize(
        "rule,bad,expected_count",
        [
            ("REP001", fixture("rep001", "simulate", "bad_rng.py"), 3),
            ("REP002", fixture("rep002", "simulate", "bad_clock.py"), 2),
            ("REP003", fixture("rep003", "pkg", "bad_float_eq.py"), 2),
            ("REP004", fixture("rep004", "core", "bad_unguarded.py"), 2),
            ("REP005", fixture("rep005", "pkg", "bad_mutable_default.py"), 3),
            ("REP006", fixture("rep006", "core", "bad_scalar_loop.py"), 3),
            ("REP007", fixture("rep007", "network", "bad_swallow.py"), 3),
            ("REP008", fixture("rep008", "replication", "bad_race.py"), 2),
            ("REP009", fixture("rep009", "replication", "bad_iteration.py"), 3),
            ("REP010", fixture("rep010", "network", "bad_ambient.py"), 3),
            ("REP011", fixture("rep011", "core", "bad_scalar_queries.py"), 5),
            ("REP012", fixture("rep012", "pkg", "bad_direct_tuning.py"), 4),
        ],
    )
    def test_rule_fires_on_bad_fixture(self, rule, bad, expected_count):
        codes = codes_in(bad)
        assert codes == [rule] * expected_count

    @pytest.mark.parametrize(
        "good",
        [
            fixture("rep001", "simulate", "good_rng.py"),
            fixture("rep002", "simulate", "good_clock.py"),
            fixture("rep003", "pkg", "good_float_eq.py"),
            fixture("rep004", "core", "good_guarded.py"),
            fixture("rep005", "pkg", "good_mutable_default.py"),
            fixture("rep006", "core", "good_batched.py"),
            fixture("rep007", "network", "good_handlers.py"),
            fixture("rep008", "replication", "good_keyed.py"),
            fixture("rep009", "replication", "good_sorted.py"),
            fixture("rep010", "network", "good_seeded.py"),
            fixture("rep011", "core", "good_batched_queries.py"),
            fixture("rep012", "pkg", "good_reconfigure.py"),
        ],
    )
    def test_rule_quiet_on_good_fixture(self, good):
        assert codes_in(good) == []

    def test_findings_carry_locations_and_render(self):
        findings = lint_file(fixture("rep005", "pkg", "bad_mutable_default.py"))
        assert all(f.line > 0 for f in findings)
        rendered = findings[0].render()
        assert "REP005" in rendered and ":" in rendered


class TestScoping:
    """Directory-scoped rules only apply inside their scope directories."""

    def test_rep001_ignores_out_of_scope_paths(self):
        src = "import random\nx = random.random()\n"
        assert check_source(src, "pkg/util/helpers.py") == []
        scoped = check_source(src, "pkg/simulate/helpers.py")
        assert [f.code for f in scoped] == ["REP001"]

    def test_rep002_allows_wall_clock_outside_event_paths(self):
        src = "import time\nt = time.time()\n"
        assert check_source(src, "pkg/experiments/report.py") == []
        assert [f.code for f in check_source(src, "pkg/network/link.py")] == ["REP002"]

    def test_rep003_and_rep005_apply_everywhere(self):
        src = "def f(eps, xs=[]):\n    return eps == 0.1\n"
        codes = sorted(f.code for f in check_source(src, "anything/at/all.py"))
        assert codes == ["REP003", "REP005"]

    def test_rep007_scoped_to_fault_handling_layers(self):
        src = "def f(d, k):\n    try:\n        del d[k]\n    except KeyError:\n        pass\n"
        assert check_source(src, "pkg/experiments/report.py") == []
        scoped = check_source(src, "pkg/replication/proto.py")
        assert [f.code for f in scoped] == ["REP007"]

    def test_select_restricts_rules(self):
        src = "def f(eps, xs=[]):\n    return eps == 0.1\n"
        only = check_source(src, "m.py", select=["REP005"])
        assert [f.code for f in only] == ["REP005"]


class TestRuleSemantics:
    def test_rep001_allows_seeded_constructors(self):
        src = (
            "import numpy as np\nimport random\n"
            "rng = np.random.default_rng(7)\n"
            "r = random.Random(7)\n"
            "ss = np.random.SeedSequence(7)\n"
        )
        assert check_source(src, "pkg/data/gen.py") == []

    def test_rep002_allows_perf_counter(self):
        src = "import time\nt = time.perf_counter()\n"
        assert check_source(src, "pkg/simulate/events.py") == []

    def test_rep003_exempts_zero_literal(self):
        src = "def f(v):\n    return v == 0.0\n"
        assert check_source(src, "m.py") == []

    def test_rep003_flags_int_context_only_for_named_operands(self):
        # integer equality is fine; named precision operands are not
        assert check_source("def f(n):\n    return n == 3\n", "m.py") == []
        bad = check_source("def f(width):\n    return width == 3\n", "m.py")
        assert [f.code for f in bad] == ["REP003"]

    def test_rep006_scoped_to_library_dirs(self):
        src = "def f(tree, vs):\n    for v in vs:\n        tree.update(v)\n"
        # experiments/ measures per-arrival latency on purpose (Figure 6a).
        assert check_source(src, "pkg/experiments/centralized.py") == []
        scoped = check_source(src, "pkg/core/driver.py")
        assert [f.code for f in scoped] == ["REP006"]

    def test_rep006_ignores_self_receiver_and_non_loop_args(self):
        fallback = "def f(self, vs):\n    for v in vs:\n        self.update(v)\n"
        assert check_source(fallback, "pkg/core/swat.py") == []
        const = "def f(tree, vs, c):\n    for v in vs:\n        tree.update(c)\n"
        assert check_source(const, "pkg/core/swat.py") == []

    def test_rep011_scoped_to_library_dirs(self):
        src = "def f(tree, qs):\n    for q in qs:\n        tree.answer(q)\n"
        # experiments/ times per-query latency on purpose (Figure 6b).
        assert check_source(src, "pkg/experiments/latency.py") == []
        scoped = check_source(src, "pkg/core/driver.py")
        assert [f.code for f in scoped] == ["REP011"]

    def test_rep011_ignores_self_receiver_and_non_loop_args(self):
        fallback = "def f(self, qs):\n    for q in qs:\n        self.answer(q)\n"
        assert check_source(fallback, "pkg/core/engine.py") == []
        const = "def f(tree, qs, q0):\n    for q in qs:\n        tree.answer(q0)\n"
        assert check_source(const, "pkg/core/engine.py") == []

    def test_rep011_flags_bare_build_cover_loops(self):
        src = (
            "def f(nodes, sets, now):\n"
            "    for s in sets:\n"
            "        build_cover(nodes, s, now)\n"
        )
        codes = [f.code for f in check_source(src, "pkg/core/driver.py")]
        assert codes == ["REP011"]

    def test_rep012_allows_owner_modules(self):
        src = "def f(tree):\n    tree.k = 2\n"
        # the summary implementation and the control subsystem own tuning
        assert check_source(src, "pkg/core/swat.py") == []
        assert check_source(src, "pkg/core/node.py") == []
        assert check_source(src, "pkg/control/governor.py") == []
        codes = [f.code for f in check_source(src, "pkg/core/engine.py")]
        assert codes == ["REP012"]

    def test_rep012_self_mutation_only_in_summary_classes(self):
        swat_like = (
            "class MiniSwat:\n"
            "    def __init__(self, k):\n"
            "        self.k = k\n"
            "    def degrade(self):\n"
            "        self.k = 1\n"
        )
        codes = [f.code for f in check_source(swat_like, "pkg/core/engine.py")]
        assert codes == ["REP012"]  # only the mutation outside __init__
        unrelated = swat_like.replace("MiniSwat", "Scheduler")
        assert check_source(unrelated, "pkg/core/engine.py") == []

    def test_rep012_flags_augmented_and_tuple_targets(self):
        src = (
            "def f(tree, node):\n"
            "    tree.min_level += 1\n"
            "    node.coeffs, tree.k = None, 1\n"
        )
        codes = [f.code for f in check_source(src, "pkg/replication/asr.py")]
        assert codes == ["REP012", "REP012", "REP012"]

    def test_rep007_allows_broad_catch_that_reraises(self):
        src = (
            "def f(send, env, log):\n"
            "    try:\n"
            "        send(env)\n"
            "    except Exception:\n"
            "        log.append(env)\n"
            "        raise\n"
        )
        assert check_source(src, "pkg/network/link.py") == []

    def test_rep004_accepts_nested_guard(self):
        src = (
            "from repro import obs\n"
            "def f(x):\n"
            "    if obs.ENABLED:\n"
            "        if x:\n"
            "            obs.counter('c').inc()\n"
        )
        assert check_source(src, "pkg/core/swat.py") == []

    def test_rep008_keyed_and_commutative_writes_are_clean(self):
        src = (
            "class P:\n"
            "    def on_data(self, k, v):\n"
            "        self.rows[k] = v\n"
            "        self.count += 1\n"
            "    def on_query(self, k):\n"
            "        return self.rows.get(k), self.count\n"
        )
        assert check_source(src, "pkg/replication/proto.py") == []

    def test_rep008_flags_write_through_helper(self):
        # The plain write sits in a helper; the one-level merge attributes
        # it to both handlers that call the helper.
        src = (
            "class P:\n"
            "    def on_data(self, v):\n"
            "        self._stamp(v)\n"
            "    def on_query(self, v):\n"
            "        self._stamp(v)\n"
            "    def _stamp(self, v):\n"
            "        self.last = v\n"
        )
        codes = [f.code for f in check_source(src, "pkg/replication/proto.py")]
        assert codes == ["REP008"]

    def test_rep008_single_writer_without_reader_is_clean(self):
        src = (
            "class P:\n"
            "    def on_data(self, v):\n"
            "        self.last = v\n"
            "    def on_query(self, k):\n"
            "        return k\n"
        )
        assert check_source(src, "pkg/replication/proto.py") == []

    def test_rep009_requires_annotated_unordered_type(self):
        # Without a dict/set annotation anywhere, the attribute's type is
        # unknown and the rule stays quiet (no false positives on lists).
        src = (
            "class P:\n"
            "    def on_data(self, send):\n"
            "        for c in self.children:\n"
            "            send(c)\n"
        )
        assert check_source(src, "pkg/replication/proto.py") == []

    def test_rep010_allows_injected_generator_and_perf_counter(self):
        src = (
            "import time\n"
            "class P:\n"
            "    def on_data(self, v):\n"
            "        t0 = time.perf_counter()\n"
            "        return self.rng.uniform() + t0\n"
        )
        assert check_source(src, "pkg/network/link.py") == []

    def test_rep010_scoped_outside_handlers(self):
        # Ambient calls in non-handler, non-handler-reachable code are
        # REP001/REP002's business, not REP010's.
        src = (
            "import random\n"
            "class P:\n"
            "    def build_report(self):\n"
            "        return random.random()\n"
        )
        only = check_source(src, "pkg/network/link.py", select=["REP010"])
        assert only == []


class TestSuppression:
    """`# repro: ignore[REPxxx]` silences exactly the named codes, on
    exactly the finding's line."""

    RACY = (
        "class P:\n"
        "    def on_data(self, v):\n"
        "        self.last = v{comment}\n"
        "    def on_query(self, k):\n"
        "        return self.last\n"
    )

    def test_suppression_silences_named_code(self):
        src = self.RACY.format(comment="  # repro: ignore[REP008]")
        assert check_source(src, "pkg/replication/proto.py") == []

    def test_unsuppressed_source_still_fires(self):
        src = self.RACY.format(comment="")
        codes = [f.code for f in check_source(src, "pkg/replication/proto.py")]
        assert codes == ["REP008"]

    def test_suppression_is_code_specific(self):
        src = self.RACY.format(comment="  # repro: ignore[REP009]")
        codes = [f.code for f in check_source(src, "pkg/replication/proto.py")]
        assert codes == ["REP008"]

    def test_suppression_accepts_code_lists(self):
        src = self.RACY.format(comment="  # repro: ignore[REP009, REP008]")
        assert check_source(src, "pkg/replication/proto.py") == []

    def test_suppression_on_other_line_does_not_leak(self):
        src = "# repro: ignore[REP008]\n" + self.RACY.format(comment="")
        codes = [f.code for f in check_source(src, "pkg/replication/proto.py")]
        assert codes == ["REP008"]


class TestDriver:
    def test_lint_paths_walks_directories(self):
        findings = lint_paths([FIXTURES])
        codes = {f.code for f in findings}
        assert codes == {
            "REP001", "REP002", "REP003", "REP004", "REP005", "REP006", "REP007",
            "REP008", "REP009", "REP010", "REP011", "REP012",
        }

    def test_lint_paths_missing_target_raises(self):
        with pytest.raises(FileNotFoundError):
            lint_paths([os.path.join(FIXTURES, "does-not-exist")])

    def test_src_tree_is_clean(self):
        assert lint_paths([os.path.join(REPO, "src")]) == []

    def test_rule_registry_is_complete(self):
        assert [r.code for r in RULES] == [
            "REP001", "REP002", "REP003", "REP004", "REP005", "REP006", "REP007",
            "REP008", "REP009", "REP010", "REP011", "REP012",
        ]


class TestEntryPoints:
    def test_python_m_tools_lint(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tools.lint", "src"],
            cwd=REPO, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_python_m_tools_lint_reports_findings(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tools.lint",
             fixture("rep005", "pkg", "bad_mutable_default.py")],
            cwd=REPO, capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "REP005" in proc.stdout

    def test_repro_check_subcommand(self):
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "check", "src"],
            cwd=REPO, capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_list_rules(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tools.lint", "--list-rules"],
            cwd=REPO, capture_output=True, text=True,
        )
        assert proc.returncode == 0
        codes = (
            "REP001", "REP002", "REP003", "REP004", "REP005", "REP006", "REP007",
            "REP008", "REP009", "REP010", "REP011", "REP012",
        )
        for code in codes:
            assert code in proc.stdout

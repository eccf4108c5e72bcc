"""The whole-project analysis layer: Project graphs and summaries, the
interprocedural rules RL007 and RL009 (fire and no-fire pairs), and the
output formats.

The RL007 fixtures re-enact the PR 3 int64 key-packing incident — the
``.astype(np.int32)`` in a helper, the ``a * n + b`` in its caller —
which the per-file RL004 cannot see.
"""

import importlib
import json
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.lint import (
    Project,
    get_rule,
    lint_modules,
    lint_paths,
    lint_source,
    parse_module,
)
from repro.lint.engine import iter_python_files
from repro.lint.output import render_json, render_text
from repro.lint.project import module_name

REPO = Path(__file__).resolve().parents[1]
PARALLEL = "src/repro/parallel/fixture.py"
ANALYSIS = "src/repro/analysis/fixture.py"

SRC_FILES = sorted(iter_python_files([REPO / "src"]))


def codes(source: str, path: str) -> list[str]:
    return [v.code for v in lint_source(source, path=path)]


# ---------------------------------------------------------------------------
# Project: module naming, import graph, symbol table, call graph
# ---------------------------------------------------------------------------
class TestProject:
    def test_module_name(self):
        assert module_name("repro/parallel/bulk.py") == "repro.parallel.bulk"
        assert module_name("repro/lint/__init__.py") == "repro.lint"
        assert module_name("<string>") == "<string>"

    def test_import_graph_edges(self):
        a = parse_module("import os\nfrom repro.other import thing\n",
                         "src/repro/one.py")
        b = parse_module("def thing():\n    return 1\n", "src/repro/other.py")
        project = Project([a, b])
        assert "repro.other" in project.imports["repro.one"]
        assert "os" in project.imports["repro.one"]

    def test_symbol_table_and_reexport_chain(self):
        core = parse_module("def peel(g):\n    return g\nLIMIT = 3\n",
                            "src/repro/corey.py")
        facade = parse_module("from repro.corey import peel\n",
                              "src/repro/facade.py")
        project = Project([core, facade])
        assert "repro.corey.peel" in project.symbols
        assert "repro.corey.LIMIT" in project.symbols
        defmod, node = project.resolve_symbol("repro.facade", "peel")
        assert defmod == "repro.corey" and node.name == "peel"
        assert project.has_symbol("repro.facade", "peel")
        assert not project.has_symbol("repro.facade", "missing")

    def test_lazy_exports_table_reexports(self):
        """A package whose ``__getattr__`` imports names on first access
        lists them in ``_EXPORTS``: each resolves to its module's def."""
        pkg = parse_module('_EXPORTS = {"peel": "peeling"}\n',
                           "src/repro/pkg/__init__.py")
        sub = parse_module("def peel(g):\n    return g\n",
                           "src/repro/pkg/peeling.py")
        project = Project([pkg, sub])
        defmod, node = project.resolve_symbol("repro.pkg", "peel")
        assert defmod == "repro.pkg.peeling" and node.name == "peel"
        assert not project.has_symbol("repro.pkg", "missing")

    def test_every_lazy_export_resolves_in_the_tree(self):
        project = Project(parse_module(p.read_text(encoding="utf-8"),
                                       str(p)) for p in SRC_FILES)
        unresolved = [
            f"{package}.{name}"
            for package in ("repro", "repro.core", "repro.graph",
                            "repro.analysis", "repro.parallel")
            for name in importlib.import_module(package)._EXPORTS
            if not project.has_symbol(package, name)]
        assert unresolved == []

    def test_submodules_are_importable_symbols(self):
        pkg = parse_module("", "src/repro/pkg/__init__.py")
        sub = parse_module("def f():\n    return 0\n",
                           "src/repro/pkg/sub.py")
        project = Project([pkg, sub])
        assert project.has_symbol("repro.pkg", "sub")

    def test_call_graph_resolves_across_modules(self):
        helper = parse_module("def shard(x):\n    return x\n",
                              "src/repro/helpers.py")
        caller = parse_module(
            "from repro.helpers import shard\n"
            "def run(x):\n    return shard(x)\n",
            "src/repro/caller.py")
        project = Project([helper, caller])
        summary = project.functions["repro.caller.run"]
        assert set(summary.call_targets.values()) == {"repro.helpers.shard"}

    def test_summary_signature_fields(self):
        mod = parse_module(
            "def facade(graph, backend=None, *, workers=None, **rest):\n"
            "    return graph\n",
            "src/repro/sig.py")
        project = Project([mod])
        summary = project.functions["repro.sig.facade"]
        assert summary.params == ("graph", "backend")
        assert summary.kwonly == ("workers",)
        assert summary.has_kwargs
        assert summary.accepts_keyword("anything")

    def test_returns_int32_closes_transitively(self):
        mod = parse_module(
            "import numpy as np\n"
            "def raw(d):\n    return d.astype(np.int32)\n"
            "def wrap(d):\n    return raw(d)\n"
            "def wide(d):\n    return raw(d).astype(np.int64)\n",
            "src/repro/flow.py")
        project = Project([mod])
        assert project.functions["repro.flow.raw"].returns_int32
        assert project.functions["repro.flow.wrap"].returns_int32
        assert not project.functions["repro.flow.wide"].returns_int32


# ---------------------------------------------------------------------------
# hypothesis: the builder is total over every module in src/
# ---------------------------------------------------------------------------
class TestBuilderTotality:
    @given(path=st.sampled_from(SRC_FILES))
    @settings(max_examples=len(SRC_FILES), deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_single_module_projects_build(self, path):
        module = parse_module(path.read_text(encoding="utf-8"), str(path))
        project = Project([module])
        name = module_name(module.relpath)
        assert name in project.modules
        assert name in project.imports
        for summary in project.functions.values():
            assert summary.module == name

    @given(subset=st.sets(st.sampled_from(SRC_FILES), min_size=2,
                          max_size=12))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_arbitrary_subsets_build(self, subset):
        modules = [parse_module(p.read_text(encoding="utf-8"), str(p))
                   for p in sorted(subset)]
        project = Project(modules)
        assert len(project.modules) == len(modules)

    def test_whole_tree_builds_and_lints(self):
        violations, errors = lint_paths([REPO / "src"])
        assert errors == []
        assert violations == [], "\n".join(v.format() for v in violations)


# ---------------------------------------------------------------------------
# RL007 interprocedural-dtype-flow
# ---------------------------------------------------------------------------
class TestInterproceduralDtypeFlow:
    # the PR 3 incident, split across a function boundary: the helper
    # narrows to int32, the caller packs keys by multiplication
    INCIDENT = (
        "import numpy as np\n"
        "def _pack_base(deg):\n"
        "    return deg.astype(np.int32)\n"
        "def pack_keys(a, b, n):\n"
        "    base = _pack_base(a)\n"
        "    return base * n + b\n")

    def test_rediscovers_pr3_incident_across_boundary(self):
        assert codes(self.INCIDENT, PARALLEL) == ["RL007"]

    def test_per_file_rl004_misses_the_same_source(self):
        violations = lint_source(self.INCIDENT, path=PARALLEL,
                                 rules=[get_rule("RL004")])
        assert violations == []

    def test_fires_across_modules(self):
        helper = parse_module(
            "import numpy as np\n"
            "def narrow(d):\n    return d.astype(np.int32)\n",
            "src/repro/helper.py")
        caller = parse_module(
            "from repro.helper import narrow\n"
            "def pack(a, n, b):\n"
            "    ids = narrow(a)\n"
            "    return ids * n + b\n",
            "src/repro/caller.py")
        found = [v.code for v in lint_modules([helper, caller])]
        assert found == ["RL007"]

    def test_fires_on_direct_call_operand(self):
        src = (
            "import numpy as np\n"
            "def narrow(d):\n    return d.astype(np.int32)\n"
            "def pack(a, n):\n    return narrow(a) * n\n")
        assert codes(src, ANALYSIS) == ["RL007"]

    def test_quiet_after_promotion(self):
        src = (
            "import numpy as np\n"
            "def narrow(d):\n    return d.astype(np.int32)\n"
            "def pack(a, n, b):\n"
            "    base = narrow(a).astype(np.int64)\n"
            "    return base * n + b\n")
        assert codes(src, ANALYSIS) == []

    def test_rebinding_clears_interprocedural_taint(self):
        src = (
            "import numpy as np\n"
            "def narrow(d):\n    return d.astype(np.int32)\n"
            "def pack(a, n):\n"
            "    ids = narrow(a)\n"
            "    ids = ids.astype(np.int64)\n"
            "    return ids * n\n")
        assert codes(src, ANALYSIS) == []

    def test_quiet_on_wide_returning_callee(self):
        src = (
            "import numpy as np\n"
            "def widen(d):\n    return d.astype(np.int64)\n"
            "def pack(a, n):\n    return widen(a) * n\n")
        assert codes(src, ANALYSIS) == []

    def test_does_not_duplicate_rl004_local_finding(self):
        src = (
            "import numpy as np\n"
            "def pack(nodes, n):\n"
            "    ids = nodes.astype(np.int32)\n"
            "    return ids * n + 1\n")
        assert codes(src, ANALYSIS) == ["RL004"]


# ---------------------------------------------------------------------------
# RL009 backend-contract
# ---------------------------------------------------------------------------
class TestBackendContract:
    def test_fires_on_unknown_backend_literal(self):
        # a retired backend name is as dead as a typo
        src = (
            "def run(g, peel):\n"
            "    return peel(g, backend=\"csr-parallel\")\n")
        violations = lint_source(src, path=ANALYSIS)
        assert [v.code for v in violations] == ["RL009"]
        assert "csr-parallel" in violations[0].message

    def test_quiet_on_known_backend_literal(self):
        src = (
            "def run(g, peel):\n"
            "    return peel(g, backend=\"disk\")\n")
        assert codes(src, ANALYSIS) == []

    def test_fires_on_dead_backend_comparison(self):
        src = (
            "def pick(backend=None, workers=None):\n"
            "    if backend == \"par\":\n"
            "        return 1\n"
            "    return 0\n")
        assert codes(src, ANALYSIS) == ["RL009"]

    def test_fires_on_dead_membership_literal(self):
        src = (
            "def pick(backend=None, workers=None):\n"
            "    return backend in (\"csr\", \"diskette\")\n")
        assert codes(src, ANALYSIS) == ["RL009"]

    def test_backends_tuple_read_from_project(self):
        backends = parse_module(
            "BACKENDS = (\"object\", \"flat\")\n",
            "src/repro/backends.py")
        user = parse_module(
            "def run(g, peel):\n"
            "    return peel(g, backend=\"flat\")\n",
            "src/repro/user.py")
        assert lint_modules([backends, user]) == []
        bad = parse_module(
            "def run(g, peel):\n"
            "    return peel(g, backend=\"csr\")\n",
            "src/repro/user.py")
        found = [v.code for v in lint_modules([backends, bad])]
        assert found == ["RL009"]

    def test_fires_on_stale_lazy_import(self):
        engine = parse_module("def disk_core_peel(d):\n    return d\n",
                              "src/repro/engine_mod.py")
        dispatch = parse_module(
            "def core_peel(g):\n"
            "    from repro.engine_mod import disk_truss_peel\n"
            "    return disk_truss_peel(g)\n",
            "src/repro/dispatch.py")
        violations = lint_modules([engine, dispatch])
        assert [v.code for v in violations] == ["RL009"]
        assert "disk_truss_peel" in violations[0].message

    def test_quiet_on_resolvable_lazy_import(self):
        engine = parse_module("def disk_core_peel(d):\n    return d\n",
                              "src/repro/engine_mod.py")
        dispatch = parse_module(
            "def core_peel(g):\n"
            "    from repro.engine_mod import disk_core_peel\n"
            "    return disk_core_peel(g)\n",
            "src/repro/dispatch.py")
        assert lint_modules([engine, dispatch]) == []

    def test_try_guarded_lazy_import_is_exempt(self):
        engine = parse_module("def impl(d):\n    return d\n",
                              "src/repro/engine_mod.py")
        dispatch = parse_module(
            "def run(g):\n"
            "    try:\n"
            "        from repro.engine_mod import optional\n"
            "    except ImportError:\n"
            "        optional = None\n"
            "    return optional\n",
            "src/repro/dispatch.py")
        assert lint_modules([engine, dispatch]) == []

    def test_fires_on_unaccepted_keyword(self):
        src = (
            "def facade(graph, backend=None, workers=None):\n"
            "    return graph\n"
            "def caller(g):\n"
            "    return facade(g, backend=\"csr\", worker=2)\n")
        violations = lint_source(src, path=ANALYSIS)
        assert [v.code for v in violations] == ["RL009"]
        assert "'worker'" in violations[0].message

    def test_quiet_on_matching_keywords(self):
        src = (
            "def facade(graph, backend=None, workers=None):\n"
            "    return graph\n"
            "def caller(g):\n"
            "    return facade(g, backend=\"csr\", workers=2)\n")
        assert codes(src, ANALYSIS) == []

    def test_kwargs_facades_are_exempt(self):
        src = (
            "def facade(graph, **options):\n"
            "    return graph\n"
            "def caller(g):\n"
            "    return facade(g, anything=1)\n")
        assert codes(src, ANALYSIS) == []

    def test_star_expansion_calls_are_exempt(self):
        src = (
            "def facade(graph, backend=None, workers=None):\n"
            "    return graph\n"
            "def caller(g, opts):\n"
            "    return facade(g, **opts)\n")
        assert codes(src, ANALYSIS) == []


# ---------------------------------------------------------------------------
# output formats
# ---------------------------------------------------------------------------
class TestOutputFormats:
    VIOLATIONS = lint_source(
        "def facade(graph, backend=None, workers=None):\n"
        "    return graph\n"
        "def caller(g):\n"
        "    return facade(g, worker=2)\n",
        path=ANALYSIS)

    def test_text_round_trip(self):
        text = render_text(self.VIOLATIONS)
        assert "RL009" in text and ANALYSIS in text

    def test_json_is_parseable_and_complete(self):
        rows = json.loads(render_json(self.VIOLATIONS))
        assert len(rows) == len(self.VIOLATIONS) == 1
        row = rows[0]
        assert row["code"] == "RL009"
        assert row["path"] == ANALYSIS
        assert row["line"] == 4

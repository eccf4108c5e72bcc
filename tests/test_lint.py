"""The repro-lint static-analysis pass: every rule fires on its target
pattern, stays quiet on the sanctioned alternative, and the tree under
``src/`` is clean under the full rule set."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import all_rules, get_rule, lint_paths, lint_source
from repro.lint.cli import main as lint_main
from repro.lint.registry import Violation, select_rules

REPO = Path(__file__).resolve().parents[1]

# paths chosen so _relpath scoping matches the real tree
PARALLEL = "src/repro/parallel/fixture.py"
SERVE = "src/repro/serve/fixture.py"
ANALYSIS = "src/repro/analysis/fixture.py"
VARIANT = "src/repro/kcore/temporal.py"


def codes(source: str, path: str) -> list[str]:
    return [v.code for v in lint_source(source, path=path)]


# ---------------------------------------------------------------------------
# RL001 no-silent-mmap-copy
# ---------------------------------------------------------------------------
class TestMmapCopy:
    def test_fires_on_npz_mmap_load(self):
        src = 'import numpy as np\npayload = np.load(path, mmap_mode="r")\n'
        assert codes(src, ANALYSIS) == ["RL001"]

    def test_quiet_on_eager_load(self):
        src = "import numpy as np\npayload = np.load(path)\n"
        assert codes(src, ANALYSIS) == []

    def test_quiet_on_literal_npy(self):
        src = ('import numpy as np\n'
               'arr = np.load("cells.npy", mmap_mode="r")\n')
        assert codes(src, ANALYSIS) == []

    def test_fires_on_serve_path_astype(self):
        src = ("def answer(index, cells):\n"
               "    return index.lam.astype('int64')[cells]\n")
        assert codes(src, SERVE) == ["RL001"]

    def test_fires_inside_loader_function_elsewhere(self):
        src = ("import numpy as np\n"
               "def load_query_index(path):\n"
               "    arrays = read(path)\n"
               "    return arrays['lam'].astype(np.int64)\n")
        assert codes(src, ANALYSIS) == ["RL001"]

    def test_quiet_on_build_side_astype(self):
        src = ("import numpy as np\n"
               "def build(tree):\n"
               "    return np.asarray(tree.ids).astype(np.int32)\n")
        assert codes(src, ANALYSIS) == []


# ---------------------------------------------------------------------------
# RL003 no-blocking-in-async
# ---------------------------------------------------------------------------
class TestAsyncBlocking:
    def test_fires_on_time_sleep(self):
        src = ("import time\n"
               "async def flush(self):\n"
               "    time.sleep(0.1)\n")
        assert codes(src, SERVE) == ["RL003"]

    def test_fires_on_builtin_open(self):
        src = ("async def dump(self, path):\n"
               "    with open(path) as handle:\n"
               "        return handle.read()\n")
        assert codes(src, SERVE) == ["RL003"]

    def test_quiet_on_asyncio_sleep(self):
        src = ("import asyncio\n"
               "async def flush(self):\n"
               "    await asyncio.sleep(0.1)\n")
        assert codes(src, SERVE) == []

    def test_quiet_in_sync_function(self):
        src = "import time\ndef flush(self):\n    time.sleep(0.1)\n"
        assert codes(src, SERVE) == []

    def test_nested_sync_helper_is_skipped(self):
        src = ("async def handler(loop):\n"
               "    def read_blocking(path):\n"
               "        return open(path).read()\n"
               "    return await loop.run_in_executor(None, read_blocking, 'x')\n")
        assert codes(src, SERVE) == []


# ---------------------------------------------------------------------------
# RL004 int32-overflow
# ---------------------------------------------------------------------------
class TestInt32Overflow:
    def test_fires_on_tainted_multiplication(self):
        src = ("import numpy as np\n"
               "def pack(nodes, n):\n"
               "    ids = nodes.astype(np.int32)\n"
               "    return ids * n + 1\n")
        assert codes(src, ANALYSIS) == ["RL004"]

    def test_fires_on_dtype_kwarg_producer(self):
        src = ("import numpy as np\n"
               "def pack(raw, n):\n"
               "    owners = np.frombuffer(raw, dtype=np.int32)\n"
               "    return owners * n\n")
        assert codes(src, ANALYSIS) == ["RL004"]

    def test_quiet_after_promotion(self):
        src = ("import numpy as np\n"
               "def pack(nodes, n):\n"
               "    ids = nodes.astype(np.int32)\n"
               "    return ids.astype(np.int64) * n + 1\n")
        assert codes(src, ANALYSIS) == []

    def test_rebinding_clears_taint(self):
        src = ("import numpy as np\n"
               "def pack(nodes, n):\n"
               "    ids = nodes.astype(np.int32)\n"
               "    ids = ids.astype(np.int64)\n"
               "    return ids * n\n")
        assert codes(src, ANALYSIS) == []

    def test_quiet_on_int64_arrays(self):
        src = ("import numpy as np\n"
               "def pack(nodes, n):\n"
               "    ids = np.asarray(nodes, dtype=np.int64)\n"
               "    return ids * n\n")
        assert codes(src, ANALYSIS) == []


# ---------------------------------------------------------------------------
# RL005 backend-parity
# ---------------------------------------------------------------------------
class TestBackendParity:
    def test_fires_on_direct_engine_call(self):
        src = ("from repro.core.decomposition import nucleus_decomposition\n"
               "def compare(g):\n"
               "    return nucleus_decomposition(g, 1, 2)\n")
        assert codes(src, ANALYSIS) == ["RL005"]

    def test_fires_on_backend_without_workers(self):
        src = ("def summarise(graph, backend=None):\n"
               "    return graph.n\n")
        assert codes(src, ANALYSIS) == ["RL005"]

    def test_quiet_on_paired_signature(self):
        src = ("from repro.backends import decompose\n"
               "def summarise(graph, backend=None, workers=None):\n"
               "    return decompose(graph, 1, 2, backend=backend,\n"
               "                     workers=workers)\n")
        assert codes(src, ANALYSIS) == []

    def test_engine_layers_exempt(self):
        src = ("def parallel_core_peel(csr, workers):\n"
               "    return csr\n")
        assert codes(src, PARALLEL) == []

    def test_fires_on_generic_kernel_call_outside_engines(self):
        src = ("from repro.core.generic_peel import generic_peel\n"
               "def custom(g, degrees):\n"
               "    return generic_peel(degrees)\n")
        assert codes(src, ANALYSIS) == ["RL005"]

    def test_variant_layer_may_call_engines(self):
        src = ("from repro.core.generic_peel import generic_peel\n"
               "def _kernel_engine(csr, rule):\n"
               "    return generic_peel([], unit_rule=rule)\n")
        assert codes(src, VARIANT) == []

    def test_fires_on_variant_entry_point_missing_dispatch(self):
        src = ("def fancy_core_numbers(graph, h=1):\n"
               "    return graph.n\n")
        assert codes(src, VARIANT) == ["RL005"]

    def test_quiet_on_dispatching_variant_entry_point(self):
        src = ("def fancy_core_numbers(graph, h=1, backend=None,\n"
               "                       workers=None):\n"
               "    return graph.n\n")
        assert codes(src, VARIANT) == []

    def test_variant_helpers_and_non_graph_functions_exempt(self):
        src = ("def _object_engine(graph, wlist):\n"
               "    return wlist\n"
               "def interaction_counts(events):\n"
               "    return {}\n")
        assert codes(src, VARIANT) == []


# ---------------------------------------------------------------------------
# RL006 no-swallowed-worker-errors
# ---------------------------------------------------------------------------
class TestSwallowedErrors:
    def test_fires_on_silent_broad_except(self):
        src = ("def drain(queue):\n"
               "    try:\n"
               "        return queue.get()\n"
               "    except Exception:\n"
               "        return None\n")
        assert codes(src, PARALLEL) == ["RL006"]

    def test_fires_on_bare_except(self):
        src = ("def drain(queue):\n"
               "    try:\n"
               "        return queue.get()\n"
               "    except:\n"
               "        pass\n")
        assert "RL006" in codes(src, PARALLEL)

    def test_quiet_on_reraise(self):
        src = ("def drain(queue):\n"
               "    try:\n"
               "        return queue.get()\n"
               "    except Exception:\n"
               "        queue.close()\n"
               "        raise\n")
        assert codes(src, PARALLEL) == []

    def test_quiet_when_recorded(self):
        src = ("def flush(futures, kernel):\n"
               "    try:\n"
               "        return kernel()\n"
               "    except Exception as exc:\n"
               "        for future in futures:\n"
               "            future.set_exception(exc)\n")
        assert codes(src, PARALLEL) == []

    def test_quiet_on_narrow_except(self):
        src = ("def drain(queue):\n"
               "    try:\n"
               "        return queue.get()\n"
               "    except FileNotFoundError:\n"
               "        return None\n")
        assert codes(src, PARALLEL) == []


# ---------------------------------------------------------------------------
# pragmas
# ---------------------------------------------------------------------------
class TestPragmas:
    SRC = ("def drain(queue):\n"
           "    try:\n"
           "        return queue.get()\n"
           "    except Exception:{comment}\n"
           "        return None\n")

    def test_inline_disable_by_name(self):
        src = self.SRC.format(
            comment="  # repro-lint: disable=no-swallowed-worker-errors")
        assert codes(src, PARALLEL) == []

    def test_inline_disable_by_code(self):
        src = self.SRC.format(comment="  # repro-lint: disable=RL006")
        assert codes(src, PARALLEL) == []

    def test_other_rule_does_not_suppress(self):
        src = self.SRC.format(comment="  # repro-lint: disable=RL004")
        assert codes(src, PARALLEL) == ["RL006"]

    def test_disable_file(self):
        src = ("# repro-lint: disable-file=no-swallowed-worker-errors\n"
               + self.SRC.format(comment=""))
        assert codes(src, PARALLEL) == []

    def test_pragma_on_any_line_of_a_multiline_call(self):
        src = ("import numpy as np\n"
               "payload = np.load(\n"
               "    path,\n"
               "    mmap_mode='r')  # repro-lint: disable=RL001\n")
        assert codes(src, ANALYSIS) == []

    def test_pragma_inside_decorated_function(self):
        src = ("import functools\n"
               "@functools.lru_cache\n"
               "def drain(queue):\n"
               "    try:\n"
               "        return queue.get()\n"
               "    except Exception:  # repro-lint: disable=RL006\n"
               "        return None\n")
        assert codes(src, PARALLEL) == []
        # same decorated shape without the pragma still fires
        assert codes(src.replace("  # repro-lint: disable=RL006", ""),
                     PARALLEL) == ["RL006"]

    def test_pragma_inside_nested_function(self):
        src = ("def outer(queue):\n"
               "    def inner():\n"
               "        try:\n"
               "            return queue.get()\n"
               "        except Exception:  # repro-lint: disable=RL006\n"
               "            return None\n"
               "    return inner\n")
        assert codes(src, PARALLEL) == []
        assert codes(src.replace("  # repro-lint: disable=RL006", ""),
                     PARALLEL) == ["RL006"]

    def test_pragma_inside_async_function(self):
        src = ("import time\n"
               "async def flush(self):\n"
               "    time.sleep(0.1)  # repro-lint: disable=RL003\n")
        assert codes(src, SERVE) == []
        assert codes(src.replace("  # repro-lint: disable=RL003", ""),
                     SERVE) == ["RL003"]

    def test_pragma_suppresses_project_rule_finding(self):
        src = ("import numpy as np\n"
               "def _pack_base(deg):\n"
               "    return deg.astype(np.int32)\n"
               "def pack_keys(a, b, n):\n"
               "    base = _pack_base(a)\n"
               "    return base * n + b  # repro-lint: disable=RL007\n")
        assert codes(src, PARALLEL) == []


# ---------------------------------------------------------------------------
# registry and engine plumbing
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_seven_rules_registered(self):
        rules = all_rules()
        # RL002 and RL008 retired with the worker pool; codes are never
        # reused
        assert [r.code for r in rules] == [
            "RL001", "RL003", "RL004", "RL005", "RL006", "RL007", "RL009"]
        assert all(r.description for r in rules)

    def test_get_rule_by_code_and_name(self):
        assert get_rule("RL003") is get_rule("no-blocking-in-async")
        with pytest.raises(KeyError):
            get_rule("RL999")

    def test_select_and_ignore(self):
        only = select_rules(["RL001", "int32-overflow"], None)
        assert [r.code for r in only] == ["RL001", "RL004"]
        rest = select_rules(None, ["RL001"])
        assert "RL001" not in [r.code for r in rest]

    def test_violation_format(self):
        violation = Violation(path="a.py", line=3, col=4, code="RL001",
                              name="no-silent-mmap-copy", message="boom")
        assert violation.format() == \
            "a.py:3:4: RL001 [no-silent-mmap-copy] boom"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestCli:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        assert lint_main([str(target)]) == 0
        assert "0 violations" in capsys.readouterr().err

    def test_violations_exit_one(self, tmp_path, capsys):
        target = tmp_path / "src" / "repro" / "parallel" / "bad.py"
        target.parent.mkdir(parents=True)
        target.write_text("try:\n    pass\nexcept Exception:\n    pass\n")
        assert lint_main([str(target)]) == 1
        assert "RL006" in capsys.readouterr().out

    def test_select_skips_other_rules(self, tmp_path):
        target = tmp_path / "src" / "repro" / "parallel" / "bad.py"
        target.parent.mkdir(parents=True)
        target.write_text("try:\n    pass\nexcept Exception:\n    pass\n")
        assert lint_main(["--select", "RL001", str(target)]) == 0

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        assert lint_main(["--select", "RL999", str(tmp_path)]) == 2
        assert "unknown lint rule" in capsys.readouterr().err

    def test_syntax_error_exits_two(self, tmp_path, capsys):
        target = tmp_path / "broken.py"
        target.write_text("def (:\n")
        assert lint_main([str(target)]) == 2
        assert "broken.py" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "RL001" in out and "no-swallowed-worker-errors" in out

    def test_module_entry_point(self, tmp_path):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(target)],
            capture_output=True, text=True, cwd=REPO)
        assert proc.returncode == 0, proc.stderr

    BAD = "try:\n    pass\nexcept Exception:\n    pass\n"

    def _bad_file(self, tmp_path):
        target = tmp_path / "src" / "repro" / "parallel" / "bad.py"
        target.parent.mkdir(parents=True)
        target.write_text(self.BAD)
        return target

    def test_format_json(self, tmp_path, capsys):
        target = self._bad_file(tmp_path)
        assert lint_main(["--format", "json", str(target)]) == 1
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["code"] == "RL006"

    def test_format_sarif(self, tmp_path, capsys):
        # text and JSON are the output formats: SARIF is a usage error
        target = self._bad_file(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            lint_main(["--format", "sarif", str(target)])
        assert exit_info.value.code == 2
        assert "invalid choice: 'sarif'" in capsys.readouterr().err

    def test_bad_baseline_exits_two(self, tmp_path, capsys):
        # no baseline file is read or written: each of the baseline
        # options is a usage error
        target = self._bad_file(tmp_path)
        baseline = tmp_path / "accepted.json"
        baseline.write_text("[]")
        for option in (["--baseline", str(baseline)], ["--no-baseline"],
                       ["--write-baseline", str(baseline)]):
            with pytest.raises(SystemExit) as exit_info:
                lint_main([*option, str(target)])
            assert exit_info.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
        assert baseline.read_text() == "[]"


# ---------------------------------------------------------------------------
# self-application: the shipped tree must stay clean
# ---------------------------------------------------------------------------
def test_src_tree_is_clean():
    violations, errors = lint_paths([REPO / "src"])
    assert errors == []
    assert violations == [], "\n".join(v.format() for v in violations)


def test_mypy_hook_covers_the_typed_tier():
    # the hook runs mypy only for commits touching its ``files`` pattern,
    # so a commit that changes nothing but a typed-tier file must match
    tomllib = pytest.importorskip("tomllib")
    tier = tomllib.loads((REPO / "pyproject.toml").read_text())
    hooks = (REPO / ".pre-commit-config.yaml").read_text().split("- id: ")
    mypy_hook = next(hook for hook in hooks if hook.startswith("mypy"))
    pattern = re.search(r"^\s*files:\s*(\S+)\s*$", mypy_hook,
                        re.MULTILINE).group(1)
    for entry in tier["tool"]["mypy"]["files"]:
        path = REPO / entry
        for file in sorted(path.rglob("*.py")) if path.is_dir() else [path]:
            assert re.search(pattern, file.relative_to(REPO).as_posix()), file
    assert re.search(pattern, "pyproject.toml")
    assert not re.search(pattern, "src/repro/graph/csr.py")


def test_mypy_typed_tier_is_clean():
    pytest.importorskip("mypy")
    proc = subprocess.run(
        [sys.executable, "-m", "mypy", "--no-error-summary"],
        capture_output=True, text=True, cwd=REPO)
    assert proc.returncode == 0, proc.stdout + proc.stderr

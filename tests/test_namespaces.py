"""The lazy package namespaces: every public name still resolves, an
``import repro`` stays off the serving and variant subsystems, and the
build path imports nothing once its modules are loaded.

Each check runs in a fresh interpreter, since this process has imported
most of the package already.
"""

import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.graph import generators
from repro.graph.io import save_edge_list

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGES = ("repro", "repro.core", "repro.graph", "repro.analysis",
            "repro.parallel")


def _run(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON object."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


class TestPublicSurface:
    def test_every_public_name_is_its_defining_modules_object(self):
        problems = _run(f"""
            import importlib, json, types
            # the constants carry no __module__
            HOMES = {{"ALGORITHMS": "repro.core.decomposition",
                      "VARIANTS": "repro.api", "BACKENDS": "repro.backends"}}
            problems = []
            for package in {PACKAGES!r}:
                namespace = importlib.import_module(package)
                for name in namespace.__all__:
                    if name == "__version__":
                        continue
                    value = getattr(namespace, name)
                    if isinstance(value, types.ModuleType):
                        home, expected = value.__name__, value
                    else:
                        home = HOMES[name] if name in HOMES \\
                            else value.__module__
                        expected = getattr(importlib.import_module(home),
                                           name)
                    if value is not expected or home == package \\
                            or not home.startswith("repro."):
                        problems.append(f"{{package}}.{{name}} ({{home}})")
            print(json.dumps(problems))
        """)
        assert problems == []

    def test_star_import_and_dir(self):
        result = _run(f"""
            import importlib, json
            import repro
            star = {{}}
            exec("from repro import *", star)
            missing = [name for name in repro.__all__
                       if star.get(name) is not getattr(repro, name)]
            hidden = {{package: sorted(set(importlib.import_module(
                          package).__all__) - set(dir(
                          importlib.import_module(package))))
                      for package in {PACKAGES!r}}}
            print(json.dumps({{"missing": missing, "hidden": hidden,
                              "count": len(repro.__all__)}}))
        """)
        assert result["missing"] == []
        assert result["hidden"] == {package: [] for package in PACKAGES}
        assert result["count"] == 72  # the surface, __version__ included

    def test_subsystems_after_a_bare_import(self):
        result = _run("""
            import json
            import repro
            print(json.dumps([repro.serve.ServeClient.__module__,
                              repro.kcore.core_numbers.__module__,
                              repro.generators.__name__]))
        """)
        assert result == ["repro.serve.client", "repro.kcore.core",
                          "repro.graph.generators"]

    def test_unknown_name_raises_attribute_error(self):
        messages = _run(f"""
            import importlib, json
            messages = []
            for package in {PACKAGES!r}:
                try:
                    importlib.import_module(package).no_such_name
                except AttributeError as exc:
                    messages.append(str(exc))
            print(json.dumps(messages))
        """)
        assert messages == [f"module {package!r} has no attribute "
                            f"'no_such_name'" for package in PACKAGES]


class TestImportBudget:
    def test_import_stays_off_unused_subsystems(self):
        """The import perfbench times for ``setup_s``."""
        loaded = _run("""
            import json, sys
            import repro, repro.backends, repro.flatindex
            print(json.dumps(sorted(sys.modules)))
        """)
        unused = ("asyncio", "ssl", "multiprocessing", "repro.serve",
                  "repro.external", "repro.kcore", "repro.ktruss",
                  "repro.streaming", "repro.export", "repro.api")
        assert [name for name in unused if name in loaded] == []


class TestBuildPath:
    def test_build_imports_nothing_after_its_modules(self, tmp_path):
        """perfbench's build child imports these modules before it starts
        its clock; a (1,2) and a (2,3) build plus ``save(stats=True)``
        must import nothing more, or the import lands in the timed
        ``decompose_s``/``build_s``."""
        edges = tmp_path / "g.txt"
        save_edge_list(generators.powerlaw_cluster(2000, 6, 0.5, seed=3),
                       edges)
        added = _run(f"""
            import hashlib, json, resource, sys, time
            from contextlib import contextmanager
            from pathlib import Path

            import numpy as np

            from repro import backends
            from repro.core.csr_peel import truss_incidence
            from repro.flatindex import FlatHierarchyIndex
            from repro.graph.io import load_edge_list

            before = set(sys.modules)
            for r, s in ((1, 2), (2, 3)):
                csr = backends.as_csr(load_edge_list({str(edges)!r}))
                result = backends.decompose(csr, r, s, backend="csr")
                FlatHierarchyIndex(result).save(
                    {str(tmp_path)!r} + f"/{{r}}{{s}}.npz", stats=True)
            print(json.dumps(sorted(set(sys.modules) - before)))
        """)
        assert added == []


class TestVersion:
    def test_package_version_is_the_declared_one(self):
        """``repro.__version__`` is pyproject.toml's ``version``: an
        installed package has one version, whichever way it is read."""
        import repro

        text = (SRC.parent / "pyproject.toml").read_text()
        if sys.version_info >= (3, 11):
            import tomllib

            declared = tomllib.loads(text)["project"]["version"]
        else:
            declared = re.search(r'^version\s*=\s*"([^"]+)"', text,
                                 re.MULTILINE).group(1)
        assert repro.__version__ == declared

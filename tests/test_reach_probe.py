"""The reach probe's bookkeeping: which ``def``s it sees, stubs, classes, records.

``benchmarks/reach_probe.py`` gates CI on "no non-stub function is reached by
nothing" and "every tier-1-only function is on the allowlist, which holds no
stale entry", so its parts must agree with the interpreter: a key it builds
from the source must be the key a code object yields, a stub must be exactly a
body that only raises ``NotImplementedError``, and every function must land in
exactly one class.  The full probe (every product path plus this suite) runs
in the benchmarks job; these tests run its parts on small inputs.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.distributed.faults import SyncPolicy
from repro.harness.sweep import SweepCache, WorkloadSpec
from repro.nn.module import Module

REPO = Path(__file__).resolve().parents[1]
PROBE_PATH = REPO / "benchmarks" / "reach_probe.py"


def _load_probe():
    spec = importlib.util.spec_from_file_location("reach_probe", PROBE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


probe = _load_probe()


@pytest.fixture(scope="module")
def found() -> dict:
    return probe.functions()


def _key(function) -> tuple[str, int, str]:
    code = function.__code__
    return (str(Path(code.co_filename).relative_to(REPO)), code.co_firstlineno, code.co_name)


def _def(source: str) -> ast.FunctionDef:
    return ast.parse(textwrap.dedent(source)).body[0]


@pytest.mark.parametrize(
    "source",
    [
        "def f():\n    raise NotImplementedError\n",
        "def f():\n    raise NotImplementedError()\n",
        "def f(x):\n    raise NotImplementedError(f'{x} is abstract')\n",
        'def f():\n    """Abstract."""\n    raise NotImplementedError\n',
        "async def f():\n    raise NotImplementedError\n",
    ],
    ids=["bare", "called", "message", "docstring", "async"],
)
def test_body_that_only_raises_not_implemented_is_a_stub(source):
    assert probe._is_stub(_def(source))


@pytest.mark.parametrize(
    "source",
    [
        "def f():\n    pass\n",
        'def f():\n    """Only a docstring."""\n',
        "def f():\n    raise ValueError('no')\n",
        "def f():\n    raise\n",
        "def f():\n    x = 1\n    raise NotImplementedError\n",
        "def f():\n    raise NotImplementedError\n    return 1\n",
        "def f():\n    return NotImplementedError\n",
    ],
    ids=["pass", "docstring-only", "other-error", "reraise", "work-first", "work-after", "return"],
)
def test_body_that_does_anything_else_is_not_a_stub(source):
    assert not probe._is_stub(_def(source))


class TestFunctions:
    def test_keys_match_the_code_objects_the_profiler_sees(self, found):
        for function in (SweepCache.stats, SweepCache.fetch, SyncPolicy.price, Module.forward):
            assert _key(function) in found, function.__qualname__

    def test_a_decorated_def_is_keyed_by_its_first_decorator_line(self, found):
        key = _key(WorkloadSpec.from_benchmark.__func__)
        assert key in found
        source = (REPO / key[0]).read_text().splitlines()
        assert source[key[1] - 1].strip() == "@classmethod"

    def test_names_carry_the_enclosing_classes(self, found):
        assert found[_key(SweepCache.stats)]["name"] == "src/repro/harness/sweep.py::SweepCache.stats"
        assert found[_key(SyncPolicy.price)]["name"].endswith("::SyncPolicy.price")

    def test_the_abstract_stubs_are_marked_and_real_bodies_are_not(self, found):
        assert found[_key(SyncPolicy.price)]["stub"]
        assert found[_key(Module.forward)]["stub"]
        assert not found[_key(SweepCache.stats)]["stub"]

    def test_line_counts_span_the_def(self, found):
        key = _key(SweepCache.fetch)
        source = (REPO / key[0]).read_text().splitlines()
        last = key[1] + found[key]["lines"] - 1
        assert source[last - 1].strip() == "return value"
        assert source[last].strip() == ""

    def test_every_key_is_a_def_in_a_package_file(self, found):
        files = {str(p.relative_to(REPO)) for p in (REPO / "src" / "repro").rglob("*.py")}
        assert {key[0] for key in found} <= files
        for path, first, name in found:
            line = (REPO / path).read_text().splitlines()[first - 1].strip()
            assert line.startswith("@") or f"def {name}(" in line, (path, first, name)

    def test_a_function_outside_the_package_is_not_a_key(self, found):
        assert not any(key[0].startswith("tests") for key in found)
        assert _key(_def) not in found


class TestClassify:
    FOUND = {
        ("a.py", 1, "shipped"): {"stub": False},
        ("a.py", 5, "tested"): {"stub": False},
        ("a.py", 9, "dead"): {"stub": False},
        ("a.py", 12, "abstract"): {"stub": True},
        ("a.py", 15, "called_abstract"): {"stub": True},
    }

    def _classes(self):
        product = {("a.py", 1, "shipped"), ("a.py", 15, "called_abstract")}
        tier1 = {("a.py", 1, "shipped"), ("a.py", 5, "tested")}
        return probe.classify(self.FOUND, product, tier1)

    def test_product_reach_wins_over_tier1(self):
        classes = self._classes()
        assert classes["product"] == [("a.py", 1, "shipped"), ("a.py", 15, "called_abstract")]
        assert classes["tier-1 only"] == [("a.py", 5, "tested")]

    def test_unreached_stubs_are_counted_apart_from_dead_code(self):
        classes = self._classes()
        assert classes["nothing"] == [("a.py", 9, "dead")]
        assert classes["unreached stubs"] == [("a.py", 12, "abstract")]

    def test_every_function_lands_in_exactly_one_class(self):
        keys = [key for members in self._classes().values() for key in members]
        assert sorted(keys) == sorted(self.FOUND)


class TestAllowlist:
    FOUND = {
        ("a.py", 1, "shipped"): {"name": "a.py::shipped", "stub": False},
        ("a.py", 5, "kept"): {"name": "a.py::kept", "stub": False},
        ("a.py", 9, "forgotten"): {"name": "a.py::forgotten", "stub": False},
        ("a.py", 12, "dead"): {"name": "a.py::dead", "stub": False},
    }
    PRODUCT = {("a.py", 1, "shipped")}
    TIER1 = {("a.py", 5, "kept"), ("a.py", 9, "forgotten")}

    def _check(self, allowlist):
        classes = probe.classify(self.FOUND, self.PRODUCT, self.TIER1)
        return probe.check_allowlist(self.FOUND, classes, allowlist)

    def test_a_listed_tier1_only_function_passes(self):
        assert self._check({"a.py::kept": "why", "a.py::forgotten": "why"}) == ([], {})

    def test_an_unlisted_tier1_only_function_is_reported(self):
        unlisted, stale = self._check({"a.py::kept": "why"})
        assert unlisted == ["a.py::forgotten"]
        assert stale == {}

    def test_stale_entries_are_reported_with_why(self):
        allowlist = {
            "a.py::kept": "why",
            "a.py::forgotten": "why",
            "a.py::shipped": "a product path reaches it now",
            "a.py::dead": "nothing reaches it now",
            "a.py::deleted": "the def is gone",
        }
        unlisted, stale = self._check(allowlist)
        assert unlisted == []
        assert stale == {
            "a.py::dead": "now nothing",
            "a.py::deleted": "gone",
            "a.py::shipped": "now product",
        }

    def test_the_checked_in_list_is_short_and_every_entry_names_a_def_and_a_reason(self, found):
        names = {info["name"] for info in found.values()}
        assert len(probe.ALLOWLIST) <= 40
        assert sorted(set(probe.ALLOWLIST) - names) == []
        assert all(reason.strip() for reason in probe.ALLOWLIST.values())


def test_src_lines_counts_newlines_like_wc():
    expected = sum(path.read_bytes().count(b"\n") for path in (REPO / "src").rglob("*.py"))
    assert probe.src_lines() == expected


def test_product_runs_cover_every_product_path(tmp_path):
    runs = dict(probe.product_runs(tmp_path))
    workloads = [argv[argv.index("--workload") + 1] for argv in runs.values() if "--workload" in argv]
    assert sorted(workloads) == sorted(probe.WORKLOADS)
    assert all("--smoke" in argv for argv in runs.values() if "--workload" in argv)
    examples = {Path(argv[0]).stem for label, argv in runs.items() if label.startswith("example ")}
    assert examples == {p.stem for p in (REPO / "examples").glob("*.py")}
    assert runs["record_hashes"] == ["benchmarks/record_hashes.py"]
    modules = {Path(a).name for a in runs["benchmarks"] if a.endswith(".py")}
    assert modules == {p.name for p in (REPO / "benchmarks").glob("test_*.py")}


def _record(tmp_path: Path, script: str) -> tuple[int, list]:
    target = tmp_path / "target.py"
    target.write_text(textwrap.dedent(script))
    out = tmp_path / "reached.json"
    proc = subprocess.run(
        [sys.executable, str(PROBE_PATH), "--record", str(out), "--", str(target)],
        cwd=REPO,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": ""},
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc.returncode, [tuple(key) for key in json.loads(out.read_text())]


def test_a_recorded_run_lists_the_package_functions_it_entered(tmp_path, found):
    status, reached = _record(
        tmp_path,
        """
        from repro.harness.sweep import SweepCache
        cache = SweepCache()
        cache.fetch(cache.points, "key", lambda: 1)
        cache.stats()
        """,
    )
    assert status == 0
    assert _key(SweepCache.stats) in reached
    assert _key(SweepCache.fetch) in reached
    assert _key(SyncPolicy.price) not in reached
    # Module and class bodies are entered too; only defs are ever classified.
    assert ("src/repro/harness/sweep.py", 1, "<module>") in reached
    assert ("src/repro/harness/sweep.py", 1, "<module>") not in found


def test_a_failing_run_reports_its_exit_status_and_still_writes_its_reach(tmp_path):
    status, reached = _record(
        tmp_path,
        """
        import sys
        from repro.harness.sweep import SweepCache
        SweepCache().stats()
        sys.exit(3)
        """,
    )
    assert status == 3
    assert _key(SweepCache.stats) in reached


#: A toy module for the line tracer: each line a product run leaves
#: unexecuted ends in ``# missed``.
TOY_MODULE = '''"""A toy module."""

import math


def used(x):
    """Only the positive branch runs."""
    if x > 0:
        return math.sqrt(x)
    return -1.0  # missed


def never(y):
    total = (  # missed
        y  # missed
        + 1  # missed
    )
    return total  # missed


class Thing:
    size = 3

    def method(self):
        return [i for i in range(self.size)]
'''

TOY_RUN = "import toy\ntoy.used(4.0)\ntoy.Thing().method()\n"


def _toy(tmp_path: Path) -> tuple[Path, Path, set[int]]:
    module, script = tmp_path / "toy.py", tmp_path / "run_toy.py"
    module.write_text(TOY_MODULE)
    script.write_text(TOY_RUN)
    missed = {n for n, line in enumerate(TOY_MODULE.splitlines(), 1) if line.endswith("# missed")}
    return module, script, missed


def test_executable_lines_are_the_lines_code_objects_map_to(tmp_path):
    module, _, missed = _toy(tmp_path)
    lines = probe.executable_lines(module)
    source = TOY_MODULE.splitlines()
    assert missed <= lines
    assert 0 not in lines
    # Docstrings and blank lines carry no instruction.
    assert not any(source[n - 1].strip() in ("", '"""Only the positive branch runs."""')
                   for n in lines)
    assert {source[n - 1].strip() for n in lines} >= {"import math", "size = 3"}


def test_a_line_recorded_run_lists_the_module_lines_it_executed(tmp_path):
    module, script, missed = _toy(tmp_path)
    out = tmp_path / "lines.json"
    proc = subprocess.run(
        [sys.executable, str(PROBE_PATH), "--record", str(out), "--lines", str(module),
         "--", str(script)],
        cwd=REPO, env={"PYTHONPATH": str(REPO / "src"), "PATH": ""},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    executed = set(json.loads(out.read_text()))
    assert probe.executable_lines(module) - executed == missed


def test_the_lines_report_prints_what_no_product_run_executes(tmp_path, monkeypatch, capsys):
    module, script, missed = _toy(tmp_path)
    monkeypatch.setattr(probe, "product_runs", lambda out_dir: [("toy", [str(script)])])
    assert probe.main(["--lines", str(module)]) == 0
    report = capsys.readouterr().out
    listed = {int(line.split(":")[1]) for line in report.splitlines()
              if line.startswith(f"  {module}:")}
    assert listed == missed
    assert f"{len(missed)} executed by no product path" in report

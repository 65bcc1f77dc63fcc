"""Layering guard: ``repro.soc`` modules reach each other only through
public names.

A ``_``-prefixed name is private to the module that defines it.  When a
second module imports one, the helper has two owners and tends to grow
an alias.  This test fails on any ``from X import _name`` in
``src/repro/soc`` and on ``module._name`` through a module bound by
``import``, the same rule ``perfbench/public_api.py`` applies to the
benchmark.

The same holds between classes: ``obj._attr`` may be read only inside
a class that itself assigns ``self._attr`` (or defines ``_attr`` in its
body), so another class's private state is reached through a public
property instead.  Same-class access on a second instance -- e.g. the
writes ``from_snapshot`` makes on the object it builds -- passes.

And a data format has one owner: the ``u32 len | u32 CRC32 | payload``
frame is parsed only in ``store.py``, so no other module may name its
``FRAME_HEADER`` (they call ``store.iter_frames`` and friends).

So does the analytic rule: how a batch or a pump marker changes the
engines, the merger and the incident tracker lives in
``center.AnalyticState``.  No other module calls ``observe_batch``,
``.merge(`` on a merger, or ``from_snapshot`` of those three classes.

The export list stays honest: every name in ``repro.soc.__all__`` is
imported by some file outside ``src/repro/soc`` (tests count), and no
module under ``src/repro`` imports from ``tests`` -- test harnesses such
as ``tests/soc_chaos.py`` live there and stay out of the library.

And the library holds only what programs run.  A defaulted parameter of
a public callable needs a setter in a program, a public function,
class, method or property needs a program that names it, and a public
attribute a public class assigns on ``self`` needs a program that reads
it; otherwise each needs a row, with its reason, on a short allowlist.
"""

import ast
from pathlib import Path

import repro.soc

ROOT = Path(__file__).resolve().parents[1]
SOC = ROOT / "src" / "repro" / "soc"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_imports(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [f"{path.name}:{node.lineno}: from {node.module} "
                      f"import {alias.name}"
                      for alias in node.names if _private(alias.name)]
        elif isinstance(node, ast.Import):
            modules.update((alias.asname or alias.name).split(".")[0]
                           for alias in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            found.append(f"{path.name}:{node.lineno}: "
                         f"{node.value.id}.{node.attr}")
    return found


#: Private attributes of foreign objects the package must read anyway.
#: ``multiprocessing.Queue._reader`` is the only handle
#: ``multiprocessing.connection.wait`` accepts, and waiting on every
#: worker's completion queue at once needs it.
FOREIGN_PRIVATE = {"_reader"}


def _class_names(cls: ast.ClassDef):
    """Names a class owns: its body's defs and assignments plus every
    ``self.<name>`` it assigns anywhere in its methods."""
    names = set()
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = getattr(stmt, "targets", None) or [stmt.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    names.update(n.attr for n in ast.walk(cls)
                 if isinstance(n, ast.Attribute)
                 and isinstance(n.ctx, ast.Store)
                 and isinstance(n.value, ast.Name) and n.value.id == "self")
    return names


def foreign_private_reads(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []

    def visit(node, owned):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Attribute)
                    and isinstance(child.ctx, ast.Load)
                    and _private(child.attr) and child.attr not in owned
                    and child.attr not in FOREIGN_PRIVATE):
                found.append(f"{path.name}:{child.lineno}: "
                             f"{ast.unparse(child.value)}.{child.attr}")
            visit(child, _class_names(child)
                  if isinstance(child, ast.ClassDef) else owned)

    visit(tree, set())
    return found


def test_soc_modules_import_no_private_names():
    paths = sorted(SOC.glob("*.py"))
    assert paths
    found = [hit for path in paths for hit in private_imports(path)]
    assert found == []


def test_guard_catches_both_forms(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import os\nfrom repro.soc.store import _x\n"
                   "os._exit(0)\n")
    assert private_imports(bad) == [
        "bad.py:2: from repro.soc.store import _x", "bad.py:3: os._exit"]


def test_soc_classes_read_no_foreign_private_attributes():
    paths = sorted(SOC.glob("*.py"))
    found = [hit for path in paths for hit in foreign_private_reads(path)]
    assert found == []


def test_attribute_guard_catches_foreign_reads(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "class Center:\n"
        "    def __init__(self):\n"
        "        self._pump_no = 0\n"
        "    @classmethod\n"
        "    def from_snapshot(cls, n):\n"
        "        obj = cls.__new__(cls)\n"
        "        obj._pump_no = n\n"
        "        return obj._pump_no\n"
        "class Worker:\n"
        "    def seal(self, soc, q):\n"
        "        return soc._pump_no, q._reader\n"
        "def helper(soc):\n"
        "    return soc._pump_no\n")
    assert foreign_private_reads(bad) == [
        "bad.py:11: soc._pump_no", "bad.py:13: soc._pump_no"]


def frame_header_references(path: Path):
    """Every import or use of ``FRAME_HEADER`` in ``path``, sorted."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.alias) and node.name == "FRAME_HEADER":
            found.append((node.lineno, "import FRAME_HEADER"))
        elif isinstance(node, ast.Name) and node.id == "FRAME_HEADER":
            found.append((node.lineno, "FRAME_HEADER"))
        elif (isinstance(node, ast.Attribute)
              and node.attr == "FRAME_HEADER"):
            found.append((node.lineno, ast.unparse(node)))
    return [f"{path.name}:{line}: {what}" for line, what in sorted(found)]


def test_only_store_parses_the_frame():
    found = [hit for path in sorted(SOC.glob("*.py"))
             if path.name != "store.py"
             for hit in frame_header_references(path)]
    assert found == []


def test_frame_guard_catches_import_and_use(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("from repro.soc.store import FRAME_HEADER\n"
                   "import repro.soc.store as store\n"
                   "n = FRAME_HEADER.size + store.FRAME_HEADER.size\n")
    assert frame_header_references(bad) == [
        "bad.py:1: import FRAME_HEADER", "bad.py:3: FRAME_HEADER",
        "bad.py:3: store.FRAME_HEADER"]


#: Classes whose snapshots only ``center.AnalyticState`` restores.
ANALYTIC_CLASSES = {"CorrelationEngine", "GlobalCampaignMerger",
                    "IncidentTracker"}


def analytic_calls(path: Path):
    """Every call in ``path`` that applies or restores analytic state --
    ``observe_batch``, ``<merger>.merge(`` and ``<class>.from_snapshot``
    of :data:`ANALYTIC_CLASSES` -- sorted by line."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            continue
        attr, owner = node.func.attr, node.func.value
        owner_name = (owner.attr if isinstance(owner, ast.Attribute)
                      else getattr(owner, "id", ""))
        if (attr == "observe_batch"
                or (attr == "merge" and owner_name.endswith("merger"))
                or (attr == "from_snapshot"
                    and owner_name in ANALYTIC_CLASSES)):
            found.append((node.lineno, ast.unparse(node.func)))
    return [f"{path.name}:{line}: {call}" for line, call in sorted(found)]


def test_only_center_applies_analytic_state():
    found = [hit for path in sorted(SOC.glob("*.py"))
             if path.name != "center.py"
             for hit in analytic_calls(path)]
    assert found == []


def test_analytic_guard_catches_apply_and_restore(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from repro.soc import correlate\n"
        "from repro.soc.incident import IncidentTracker\n"
        "def replay(hub, merger, snap, events):\n"
        "    hub.engines[0].observe_batch(events)\n"
        "    merger.merge(hub.engines)\n"
        "    hub.state.merger.merge([])\n"
        "    correlate.CorrelationEngine.from_snapshot(snap)\n"
        "    IncidentTracker.from_snapshot(snap)\n"
        "    hub.state.from_snapshot(snap)\n"
        "    return {}.merge(snap)\n")
    assert analytic_calls(bad) == [
        "bad.py:4: hub.engines[0].observe_batch",
        "bad.py:5: merger.merge",
        "bad.py:6: hub.state.merger.merge",
        "bad.py:7: correlate.CorrelationEngine.from_snapshot",
        "bad.py:8: IncidentTracker.from_snapshot"]


def soc_imports(path: Path):
    """Names ``path`` imports from ``repro.soc`` or one of its modules."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and (node.module == "repro.soc"
                 or node.module.startswith("repro.soc."))
            for alias in node.names}


def unused_exports(exported, paths):
    """The names of ``exported`` that no file of ``paths`` imports."""
    used = set().union(*(soc_imports(path) for path in paths))
    return [name for name in exported if name not in used]


def outside_users():
    """Every Python file that may use ``repro.soc``'s exports: the rest
    of ``src``, the tests, benchmarks, perfbench and examples."""
    paths = [path for path in sorted((ROOT / "src").rglob("*.py"))
             if SOC not in path.parents]
    for directory in ("tests", "benchmarks", "perfbench", "examples"):
        paths += sorted((ROOT / directory).rglob("*.py"))
    return paths


def test_every_export_has_an_outside_user():
    assert len(repro.soc.__all__) == len(set(repro.soc.__all__))
    assert unused_exports(repro.soc.__all__, outside_users()) == []


def test_export_guard_catches_unused_name(tmp_path):
    user = tmp_path / "user.py"
    user.write_text("from repro.soc import Alpha\n"
                    "from repro.soc.store import Beta\n"
                    "from repro.social import Gamma\n"
                    "import repro.soc\n"
                    "x = repro.soc.Gamma, 'Delta'\n")
    assert unused_exports(["Alpha", "Beta", "Gamma", "Delta"],
                          [user]) == ["Gamma", "Delta"]


def imports_of_tests(path: Path):
    """Every import of the ``tests`` package in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        found += [f"{path.name}:{node.lineno}: {name}" for name in names
                  if name == "tests" or name.startswith("tests.")]
    return found


def test_library_imports_nothing_from_tests():
    paths = sorted((ROOT / "src" / "repro").rglob("*.py"))
    assert paths
    assert [hit for path in paths for hit in imports_of_tests(path)] == []


def test_tests_import_guard_catches_both_forms(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("from tests.soc_chaos import FaultPlan\n"
                   "import tests\n"
                   "from testsuite import x\n"
                   "import repro.tests_like\n")
    assert imports_of_tests(bad) == ["bad.py:1: tests.soc_chaos",
                                 "bad.py:2: tests"]


def _defaulted(fn: ast.FunctionDef, bound: bool):
    """``(name, positional index or None)`` of ``fn``'s defaulted
    parameters; a bound method's index skips ``self``/``cls``."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    found = [(arg.arg, index - bound)
             for index, arg in enumerate(positional) if index >= first]
    found += [(arg.arg, None)
              for arg, default in zip(args.kwonlyargs, args.kw_defaults)
              if default is not None]
    return found


def _frozen_config(node: ast.ClassDef) -> bool:
    """Whether ``node`` is a ``@dataclass(frozen=True)`` named
    ``*Config``: a bundle of settings, each field a constructor
    parameter."""
    return node.name.endswith("Config") and any(
        isinstance(d, ast.Call) and getattr(d.func, "id", "") == "dataclass"
        and any(k.arg == "frozen" and getattr(k.value, "value", False)
                for k in d.keywords)
        for d in node.decorator_list)


def soc_settings(path: Path):
    """``(label, callee, parameter, index, field)`` for every
    defaulted parameter of a public function, or of ``__init__`` or a
    public method of a public class, and every defaulted ``field`` of a
    public frozen ``*Config`` dataclass, in ``path``.  ``callee`` is the
    name a call site uses: the class for ``__init__`` and for a
    field."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not node.name.startswith("_")):
            found += [(node.name, node.name, name, index, False)
                      for name, index in _defaulted(node, False)]
        elif isinstance(node, ast.ClassDef) and not _private(node.name):
            if _frozen_config(node):
                fields = [stmt for stmt in node.body
                          if isinstance(stmt, ast.AnnAssign)
                          and isinstance(stmt.target, ast.Name)]
                found += [(node.name, node.name, field.target.id, index,
                           True)
                          for index, field in enumerate(fields)
                          if field.value is not None]
            for fn in node.body:
                if (not isinstance(fn, (ast.FunctionDef,
                                        ast.AsyncFunctionDef))
                        or fn.name != "__init__" and fn.name.startswith("_")):
                    continue
                bound = not any(getattr(d, "id", "") == "staticmethod"
                                for d in fn.decorator_list)
                callee = node.name if fn.name == "__init__" else fn.name
                found += [(f"{node.name}.{fn.name}", callee, name, index,
                           False)
                          for name, index in _defaulted(fn, bound)]
    return [(f"{path.stem}.{label}({name}=)", callee, name, index, field)
            for label, callee, name, index, field in found]


def setting_calls(path: Path, in_package: bool):
    """Every call in ``path`` as ``(callee name, call, pass-through
    names)``.  Inside ``repro.soc`` an argument that only forwards the
    enclosing function's same-named parameter sets nothing, so those
    parameter names ride along; ``cls(...)`` is its class."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []

    def visit(node, cls, params):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                found.append((cls if name == "cls" else name, child, params))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                visit(child, cls, {arg.arg for arg in a.posonlyargs + a.args
                                   + a.kwonlyargs} if in_package else set())
            else:
                visit(child, child.name if isinstance(child, ast.ClassDef)
                      else cls, params)

    visit(tree, None, set())
    return found


def _sets(call, params, name: str, index, own: bool) -> bool:
    """Whether one call sets parameter ``name``: by keyword on any call
    (like a grep for ``name=``), or -- on a call of the callable's own
    name (``own``) -- at its positional ``index`` or through a
    ``*``/``**`` splat."""
    def forwards(value):
        return isinstance(value, ast.Name) and value.id in params
    if any(k.arg == name and not forwards(k.value) for k in call.keywords):
        return True
    return own and (any(k.arg is None for k in call.keywords)
                    or any(isinstance(a, ast.Starred) for a in call.args)
                    or (index is not None and len(call.args) > index
                        and not forwards(call.args[index])))


def unset_settings(soc_paths, program_paths):
    """Labels of the defaulted public parameters that no call sets.  A
    config field is set only by a call of its own class: its name is
    often a parameter of some other callable too."""
    calls = [c for p in program_paths for c in setting_calls(p, False)]
    calls += [c for p in soc_paths for c in setting_calls(p, True)]
    return [label for path in soc_paths
            for label, callee, name, index, field in soc_settings(path)
            if not any(_sets(call, params, name, index, called == callee)
                       and (called == callee or not field)
                       for called, call, params in calls)]


def program_paths():
    """The programs: :func:`outside_users` but the tests, whose
    settings are no program's."""
    return [path for path in outside_users()
            if ROOT / "tests" not in path.parents]


#: Defaulted public parameters no program sets, each kept for a reason.
SETTINGS_ALLOWLIST = {
    "service.IngestService.__init__(mono_clock=)":
        "fake-clock seam: deadline and quota tests inject a monotonic clock",
    "service.IngestServer.__init__(host=)":
        "listen address, not a limit: every caller uses loopback",
    "service.serve(host=)": "listen address, as IngestServer's",
    "service.VehicleClient.__init__(host=)": "server address, as serve's",
}


def test_every_public_setting_has_a_setter_or_a_reason():
    found = unset_settings(sorted(SOC.glob("*.py")), program_paths())
    assert sorted(set(found) - set(SETTINGS_ALLOWLIST)) == []
    # A stale entry would hide the next unset parameter of that name.
    assert sorted(set(SETTINGS_ALLOWLIST) - set(found)) == []


def test_settings_guard_catches_an_unset_parameter(tmp_path):
    soc = tmp_path / "mod.py"
    soc.write_text(
        "class Box:\n"
        "    def __init__(self, a, b=1, *, c=2, d=3, e=4):\n"
        "        pass\n"
        "    @classmethod\n"
        "    def make(cls, b=1, f=5):\n"
        "        return cls(0, b, c=f)\n"
        "    def _hidden(self, g=6):\n"
        "        pass\n"
        "def build(h=7, i=8):\n"
        "    return Box(0, d=h)\n"
        "class _Private:\n"
        "    def __init__(self, j=9):\n"
        "        pass\n"
        "@dataclass(frozen=True)\n"
        "class BoxConfig:\n"
        "    size: int\n"
        "    depth: int = 1\n"
        "    width: int = 2\n"
        "    label: str = 'x'\n"
        "@dataclass\n"
        "class LooseConfig:\n"
        "    m: int = 0\n"
        "@dataclass(frozen=True)\n"
        "class Record:\n"
        "    n: int = 0\n")
    user = tmp_path / "user.py"
    user.write_text("Box(0, e=5)\n"
                    "build(1)\n"
                    "other(i=2)\n"
                    "Box.make(*args)\n"
                    "BoxConfig(0, 3, label='y')\n"
                    "other(width=4)\n")
    assert unset_settings([soc], [user]) == [
        "mod.Box.__init__(b=)", "mod.Box.__init__(c=)",
        "mod.Box.__init__(d=)", "mod.BoxConfig(width=)"]


def public_callables(path: Path):
    """``(label, name)`` for every public module-level function or class
    in ``path`` and every public method or property of a public class."""
    tree = ast.parse(path.read_text(), filename=str(path))
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = []
    for node in tree.body:
        if not isinstance(node, defs) or node.name.startswith("_"):
            continue
        found.append((f"{path.stem}.{node.name}", node.name))
        if isinstance(node, ast.ClassDef):
            found += [(f"{path.stem}.{node.name}.{fn.name}", fn.name)
                      for fn in node.body
                      if isinstance(fn, defs[:2])
                      and not fn.name.startswith("_")]
    return found


def _export_list(node) -> bool:
    return isinstance(node, ast.Assign) and any(
        getattr(target, "id", "") == "__all__" for target in node.targets)


def referenced_names(path: Path):
    """Every name ``path`` refers to: a ``Name``, an ``Attribute`` read
    (an assignment to ``obj.attr`` is no use of it), an import alias or
    an identifier-shaped string constant (a method wrapped by name).  A
    def's own name is none of these, and an ``__all__`` list only
    exports."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for stmt in tree.body:
        if _export_list(stmt):
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and node.value.isidentifier()):
                names.add(node.value)
    return names


def unreferenced(members, soc_paths, program_paths):
    """Labels of the ``members(path)`` of ``soc_paths`` whose name no
    file of ``program_paths`` references.  The package's
    ``__init__.py`` only re-exports, so it never counts."""
    exports = {path.parent / "__init__.py" for path in soc_paths}
    used = set().union(*(referenced_names(path) for path in program_paths
                         if path not in exports))
    return [label for path in soc_paths
            for label, name in members(path) if name not in used]


#: Public callables no program names, each kept for a reason.
CALLABLE_ALLOWLIST = {
    "service.ConnProtocol.connection_made":
        "asyncio.Protocol callback: the event loop calls it",
    "service.ConnProtocol.data_received":
        "asyncio.Protocol callback: the event loop calls it",
    "service.ConnProtocol.connection_lost":
        "asyncio.Protocol callback: the event loop calls it",
    "federation.ShippingChannel.corrupt_next":
        "WAN fault seam: the chaos harness tears a blob in flight",
    "federation.ShippingChannel.drop_in_flight":
        "WAN fault seam: the chaos harness loses what is in flight",
    "federation.ShippingChannel.in_flight":
        "WAN fault seam: the chaos harness counts what it can drop",
    "service.FrameStreamDecoder.pending_bytes":
        "pre-auth bound probe: the buffered bytes the byte cap bounds",
    "federation.FederationHub.declare_dead":
        "fault recovery for a permanently lost region",
}


def test_every_public_callable_has_a_program_user_or_a_reason():
    soc = sorted(SOC.glob("*.py"))
    found = unreferenced(public_callables, soc, soc + program_paths())
    assert len(CALLABLE_ALLOWLIST) <= 8
    assert sorted(set(found) - set(CALLABLE_ALLOWLIST)) == []
    # A stale entry would hide the next unused callable of that name.
    assert sorted(set(CALLABLE_ALLOWLIST) - set(found)) == []


def test_callable_guard_catches_an_unreferenced_method(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    mod = package / "mod.py"
    mod.write_text(
        "class Box:\n"
        "    def used(self):\n"
        "        return self.helper()\n"
        "    def helper(self):\n"
        "        pass\n"
        "    def unused(self):\n"
        "        pass\n"
        "    def wrapped(self):\n"
        "        pass\n"
        "    def exported(self):\n"
        "        pass\n"
        "    def _private(self):\n"
        "        pass\n"
        "def build():\n"
        "    return Box()\n"
        "def orphan():\n"
        "    pass\n"
        "__all__ = ['orphan']\n")
    init = package / "__init__.py"
    init.write_text("from pkg.mod import Box, build, exported\n"
                    "__all__ = ['Box', 'build', 'exported']\n")
    user = tmp_path / "user.py"
    user.write_text("from pkg import build\n"
                    "box = build()\n"
                    "box.used()\n"
                    "tracer.wrap(box, 'wrapped', 'span.name')\n")
    assert unreferenced(public_callables, [mod], [mod, init, user]) == [
        "mod.Box.unused", "mod.Box.exported", "mod.orphan"]


def public_attributes(path: Path):
    """``(label, name)`` for every public attribute a public class of
    ``path`` assigns on ``self``: plain, augmented, annotated and
    tuple-unpacking assignments alike."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = {}
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
            continue
        for node in ast.walk(cls):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for attr in ast.walk(target):
                    if (isinstance(attr, ast.Attribute)
                            and getattr(attr.value, "id", "") == "self"
                            and not attr.attr.startswith("_")):
                        found.setdefault(
                            f"{path.stem}.{cls.name}.{attr.attr}", attr.attr)
    return list(found.items())


#: Public attributes no program reads, each kept for a reason.
ATTRIBUTE_ALLOWLIST = {
    "federation.SegmentReceiver.records_received":
        "receipt conservation: the chaos harness checks it equals "
        "duplicates + applied + buffered",
}


def test_every_public_attribute_has_a_program_reader_or_a_reason():
    soc = sorted(SOC.glob("*.py"))
    found = unreferenced(public_attributes, soc, soc + program_paths())
    assert sorted(set(found) - set(ATTRIBUTE_ALLOWLIST)) == []
    # A stale entry would hide the next unread attribute of that name.
    assert sorted(set(ATTRIBUTE_ALLOWLIST) - set(found)) == []


def test_attribute_guard_catches_an_unread_attribute(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.read = 0\n"
        "        self.written = 0\n"
        "        self.bumped = 0\n"
        "        self.left, self.right = 1, 2\n"
        "        self.typed: int = 0\n"
        "        self.named = 0\n"
        "        self._private = 0\n"
        "    def step(self):\n"
        "        self.written = 1\n"
        "        self.bumped += 1\n"
        "        return self.read\n"
        "class _Hidden:\n"
        "    def __init__(self):\n"
        "        self.unread = 0\n")
    user = tmp_path / "user.py"
    user.write_text("box.left\n"
                    "getattr(box, 'named')\n")
    assert unreferenced(public_attributes, [mod], [mod, user]) == [
        "mod.Box.written", "mod.Box.bumped", "mod.Box.right",
        "mod.Box.typed"]

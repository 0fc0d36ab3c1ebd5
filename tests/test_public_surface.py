"""The public surface of ``src/repro`` is what the system uses.

Every public top-level function and class, and every public method of a
class, must either be named by code outside the tests — ``src/``,
``examples/``, ``benchmarks/`` or ``perf/`` — or be listed in
:data:`KEPT` with its reason.  "Named" is by identifier, as a ``Name``
or an ``Attribute``.  Every identifier-like string in ``perf/tracer.py``
counts too: the tracer patches its ``module:Class.attr`` targets by
string, some spliced from a tuple of method names.
A method that overrides one of a base class or protocol (an asyncio
callback, say) counts as used: the base's caller reaches it.

A helper that only its own tests call is then visible here: delete it
with its tests, or, when a test relies on it as an oracle or a seam,
add it to :data:`KEPT`.
"""

from __future__ import annotations

import ast
import functools
import importlib
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "examples", "benchmarks", "perf")
TRACER = ROOT / "perf" / "tracer.py"

#: Qualified name → why it stays although no production code names it.
KEPT: dict[str, str] = {
    # Analytic oracles the tests compare the system against.
    "repro.allocation.numeric:NumericAllocator": "SLSQP cross-check of Algorithm 1's closed form",
    "repro.allocation.numeric:compare_with_closed_form": "SLSQP cross-check of Algorithm 1's closed form",
    "repro.allocation.optimized:unconstrained_fractions": "Theorem 1 interior point, the property tests' oracle",
    "repro.queueing.mm1:MM1": "M/M/1 oracle for the engine and allocator tests",
    "repro.queueing.mm1:MM1.mean_number_in_system": "M/M/1 oracle (Little's law)",
    "repro.queueing.mm1:MM1.conditional_response_ps": "M/M/1 oracle (PS slowdown)",
    "repro.queueing.mmc:MMc.mean_number_in_system": "M/M/c oracle (Little's law)",
    "repro.queueing.mg1:MG1": "M/G/1 oracle (P-K and PS insensitivity)",
    "repro.queueing.mg1:MG1.mean_response_time_fcfs": "M/G/1 oracle (P-K)",
    "repro.queueing.mg1:MG1.mean_response_time_ps": "M/G/1 oracle (PS insensitivity)",
    "repro.queueing.mg1:MG1.conditional_response_ps": "M/G/1 oracle (PS slowdown)",
    "repro.queueing.gg1:GG1Approximation": "G/G/1 (Kingman) oracle",
    "repro.obs.digest:figure2_digest": "pins Figure 2's bits in the golden-digest tests",
    # Test seams and fixtures.
    "repro.dispatch.cyclic:CyclicDispatcher": "equal-fraction dispatcher the engine tests drive",
    "repro.dispatch.round_robin:RoundRobinDispatcher.assigned_counts": "Algorithm 2 state the property tests check",
    "repro.dispatch.round_robin:RoundRobinDispatcher.next_fields": "Algorithm 2 state the property tests check",
    "repro.sim.modulated:RateProfile.multiplier_at": "m(t), through which the tests read a profile's shape",
    "repro.obs.counters:scoped": "counter deltas over one block, read by the kernel-path tests",
    "repro.sim.ckernel:compiled_library_path": "locates the built library for the fallback tests",
    "repro.sim.ckernel:set_omp_threads": "thread-count seam of the OpenMP determinism test",
    "repro.sim.ckernel:p2_fold_probe_c": "probes the AVX2 P² lanes against the scalar loop",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _public(name: str) -> bool:
    return not name.startswith("_")


def _dotted(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return f"{head}.{node.attr}" if head else None
    return None


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        yield ".".join(parts), ast.parse(path.read_text(), str(path))


@functools.cache
def _surface():
    """(public defs, classes) of ``src/repro``.

    defs: qualified name → (class or None, name).
    classes: class name → [(base expressions, method names, imports)].
    """
    defs: dict[str, tuple] = {}
    classes: dict[str, list] = {}
    for module, tree in _modules():
        imports = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                for alias in node.names:
                    imports[alias.asname or alias.name] = f"{node.module}.{alias.name}"
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    imports[alias.asname or alias.name] = alias.name
        for node in tree.body:
            if not isinstance(node, _DEFS):
                continue
            if _public(node.name):
                defs[f"{module}:{node.name}"] = (None, node.name)
            if not isinstance(node, ast.ClassDef):
                continue
            methods = {
                sub.name for sub in node.body
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            bases = [_dotted(b) for b in node.bases]
            classes.setdefault(node.name, []).append((bases, methods, imports))
            for name in methods:
                if _public(name):
                    defs[f"{module}:{node.name}.{name}"] = (node.name, name)
    return defs, classes


@functools.cache
def _referenced_names() -> frozenset[str]:
    names: set[str] = set()
    for top in CALLER_DIRS:
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    # The tracer's patch targets: "module:Class.attr" strings, and the
    # method names it splices into such targets.
    for node in ast.walk(ast.parse(TRACER.read_text())):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"[\w.:]+", node.value):
                names.update(re.split(r"[.:]", node.value))
    return frozenset(names)


def _overrides(cls: str, method: str, classes, seen=frozenset()) -> bool:
    """True when a base of *cls* (in the repo or outside it) has *method*."""
    for bases, _, imports in classes.get(cls, ()):
        for base in filter(None, bases):
            short = base.rsplit(".", 1)[-1]
            if short in classes and short not in seen:
                if any(method in m for _, m, _ in classes[short]):
                    return True
                if _overrides(short, method, classes, seen | {cls}):
                    return True
                continue
            head, _, rest = base.partition(".")
            target = imports.get(head, head) + (f".{rest}" if rest else "")
            owner_module, _, attr = target.rpartition(".")
            try:
                owner = getattr(importlib.import_module(owner_module), attr)
            except (ImportError, AttributeError, ValueError):
                continue
            if hasattr(owner, method):
                return True
    return False


def test_every_public_name_is_used_or_kept():
    defs, classes = _surface()
    names = _referenced_names()
    unused = sorted(
        qual for qual, (cls, name) in defs.items()
        if name not in names
        and qual not in KEPT
        and not (cls and _overrides(cls, name, classes))
    )
    assert not unused, (
        "public names no production code uses; delete them with their "
        "tests, or list them in KEPT with a reason:\n  " + "\n  ".join(unused)
    )


def test_kept_entries_still_exist_and_stay_unused():
    """A stale KEPT entry would hide a name that is gone or now in use."""
    defs, _ = _surface()
    names = _referenced_names()
    missing = sorted(q for q in KEPT if q not in defs)
    used = sorted(q for q in KEPT if q in defs and defs[q][1] in names)
    assert not missing, f"KEPT names no public definition: {missing}"
    assert not used, f"KEPT lists names production code now uses: {used}"


def test_overrides_count_as_used():
    """The override rule follows bases in the repo and outside it."""
    _, classes = _surface()
    assert _overrides("_Link", "data_received", classes)  # asyncio.Protocol
    assert _overrides("_StubLink", "connection_made", classes)  # repo base
    assert not _overrides("_Link", "no_such_callback", classes)

"""Whole-program facts: call graph, entry points and lock-order graphs.

The per-file rules (RPR001–RPR012) see one module at a time; the
interprocedural rules (RPR013–RPR017) need facts that only exist across
function and module boundaries.  :func:`program_graph` parses nothing
itself — it consumes the walker's already-parsed :class:`Project` and
builds, exactly once per run (memoised in ``project.cache``):

* a **function index** — every function and method, keyed by a dotted
  qualname (``repro.lsl.socket_transport.DepotServer.handle``);
* a **call graph** — ``self.<m>()`` edges resolved within the flattened
  class, bare-name calls resolved to same-module functions, and
  imported calls resolved through each module's alias table;
* **entry points** — ``threading.Thread(target=...)`` targets, argparse
  ``set_defaults(func=...)`` CLI handlers, and ``main`` functions;
* a **lock-order graph per class** — nodes are ``Class.attr`` lock
  attributes, and an edge ``A → B`` means *some* code path acquires
  ``B`` while holding ``A``, either directly (nested ``with`` blocks)
  or through any chain of ``self.<m>()`` calls (a fixpoint over the
  class's self-call graph).

Known approximations (documented in ``docs/ANALYSIS.md``): classes are
flattened over *same-module* single inheritance only; lock identity is
``self.<attr>`` (locks reached through parameters or other objects'
attributes are invisible); and cross-object deadlocks (two instances
locking each other) are out of scope.  The runtime complement,
:mod:`repro.analysis.lockwatch`, checks observed orders against this
graph so each side covers the other's blind spots.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.astutil import ImportMap, is_self_attr, terminal_name
from repro.analysis.walker import ModuleSource, Project

_LOCK_FACTORIES = {"threading.Lock", "threading.RLock"}

#: ``project.cache`` key under which the graph is memoised.
_CACHE_KEY = "program_graph"


@dataclass
class FlatClass:
    """One class with same-module bases folded in.

    ``methods`` is the effective (override-resolved) method map;
    ``all_defs`` additionally keeps *shadowed* base methods, because a
    base ``__init__`` that a subclass overrides still runs (via
    ``super()``) and still creates the class's locks.
    """

    methods: dict[str, ast.FunctionDef]
    all_defs: list[ast.FunctionDef]


def flatten_classes(tree: ast.Module) -> dict[str, FlatClass]:
    """Class name -> flattened view, same-module single inheritance."""
    classes: dict[str, ast.ClassDef] = {
        node.name: node
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }

    def flatten(name: str, seen: frozenset[str]) -> FlatClass:
        node = classes.get(name)
        if node is None or name in seen:
            return FlatClass(methods={}, all_defs=[])
        merged: dict[str, ast.FunctionDef] = {}
        defs: list[ast.FunctionDef] = []
        for base in node.bases:
            base_name = terminal_name(base)
            if base_name in classes:
                flat = flatten(base_name, seen | {name})
                merged.update(flat.methods)
                defs.extend(flat.all_defs)
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                merged[item.name] = item
                defs.append(item)
        return FlatClass(methods=merged, all_defs=defs)

    return {name: flatten(name, frozenset()) for name in classes}


def module_dotted_name(module: ModuleSource) -> str:
    """Importable dotted path of a module, best effort.

    Files under a package rooted at ``repro`` (the live tree) resolve to
    their real import path; anything else (fixtures, scratch trees)
    falls back to the bare stem, which still keys call edges within one
    run because fixture modules import each other by stem.
    """
    parts = module.abspath.parts
    if "repro" in parts:
        idx = parts.index("repro")
        tail = [p for p in parts[idx:]]
        tail[-1] = module.stem
        if tail[-1] == "__init__":
            tail = tail[:-1]
        return ".".join(tail)
    return module.stem


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method in the program."""

    qualname: str  #: ``module.Class.name`` or ``module.name``
    name: str
    class_name: str | None
    module_path: str  #: the module's display path (finding-compatible)
    lineno: int


@dataclass(frozen=True)
class LockEdge:
    """``src`` held while ``dst`` is acquired, at a concrete site.

    ``via`` names the ``self.<m>()`` call chain when the acquisition is
    interprocedural (empty for a directly nested ``with``).
    """

    src: str
    dst: str
    method: str
    line: int
    col: int
    via: str = ""


@dataclass
class ClassLocks:
    """The lock universe of one flattened class."""

    class_name: str
    module_path: str
    locks: set[str] = field(default_factory=set)
    #: first site observed per (src, dst) pair
    edges: dict[tuple[str, str], LockEdge] = field(default_factory=dict)

    def node(self, attr: str) -> str:
        """The graph node name for lock attribute ``attr``."""
        return f"{self.class_name}.{attr}"

    def cycles(self) -> list[list[tuple[str, str]]]:
        """Elementary cycles in the lock-order graph, as edge lists.

        Each cycle is reported once, rooted at its smallest node so the
        output is deterministic.  A self-edge (re-acquiring the same
        non-reentrant lock) is a one-edge cycle.
        """
        adjacency: dict[str, list[str]] = {}
        for src, dst in self.edges:
            adjacency.setdefault(src, []).append(dst)
        for dsts in adjacency.values():
            dsts.sort()

        cycles: list[list[tuple[str, str]]] = []
        seen_cycles: set[tuple[str, ...]] = set()

        def dfs(start: str, node: str, path: list[str]) -> None:
            for nxt in adjacency.get(node, ()):
                if nxt == start:
                    cycle = path + [start]
                    # canonical form: rotate to the smallest node
                    nodes = tuple(cycle[:-1])
                    pivot = nodes.index(min(nodes))
                    canon = nodes[pivot:] + nodes[:pivot]
                    if canon in seen_cycles:
                        continue
                    seen_cycles.add(canon)
                    cycles.append(
                        [
                            (cycle[i], cycle[i + 1])
                            for i in range(len(cycle) - 1)
                        ]
                    )
                elif nxt not in path and nxt > start:
                    # only expand through nodes larger than the root:
                    # every elementary cycle is found exactly once,
                    # rooted at its smallest node
                    dfs(start, nxt, path + [nxt])

        for root in sorted(adjacency):
            dfs(root, root, [root])
        return cycles


@dataclass
class ProgramGraph:
    """Everything the interprocedural rules consume."""

    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    calls: dict[str, set[str]] = field(default_factory=dict)
    #: qualname -> entry kind ("thread" | "cli" | "main")
    entry_points: dict[str, str] = field(default_factory=dict)
    class_locks: list[ClassLocks] = field(default_factory=list)

    def lock_nodes(self) -> set[str]:
        """Every ``Class.attr`` lock node in the program."""
        nodes: set[str] = set()
        for cls in self.class_locks:
            nodes.update(cls.node(a) for a in cls.locks)
        return nodes

    def admitted_edges(self) -> set[tuple[str, str]]:
        """Every statically admitted (holder, acquired) order."""
        admitted: set[tuple[str, str]] = set()
        for cls in self.class_locks:
            admitted.update(cls.edges)
        return admitted

    def reachable_from(self, roots: set[str]) -> set[str]:
        """Transitive call-graph closure from ``roots`` (qualnames)."""
        seen: set[str] = set()
        stack = [r for r in roots if r in self.calls or r in self.functions]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            stack.extend(
                c for c in self.calls.get(name, ()) if c not in seen
            )
        return seen


class _LockEdgeScanner(ast.NodeVisitor):
    """Collect lock-order edges in one method.

    Tracks the stack of ``with self.<lock>:`` blocks; a new direct
    acquisition adds an edge from every held lock, and a ``self.<m>()``
    call under a held lock adds edges to every lock ``m`` eventually
    acquires.  Nested function/class definitions are skipped — a closure
    body runs when called, not where it is defined.
    """

    def __init__(
        self,
        owner: ClassLocks,
        method: str,
        eventual: dict[str, set[str]],
    ) -> None:
        self._owner = owner
        self._method = method
        self._eventual = eventual
        self._stack: list[str] = []

    def _edge(
        self, dst: str, node: ast.AST, via: str = ""
    ) -> None:
        for held in self._stack:
            key = (self._owner.node(held), self._owner.node(dst))
            if key not in self._owner.edges:
                self._owner.edges[key] = LockEdge(
                    src=key[0],
                    dst=key[1],
                    method=self._method,
                    line=node.lineno,
                    col=node.col_offset,
                    via=via,
                )

    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node)

    def _visit_with(self, node: ast.With | ast.AsyncWith) -> None:
        acquired: list[str] = []
        for item in node.items:
            attr = is_self_attr(item.context_expr)
            if attr is not None and attr in self._owner.locks:
                self._edge(attr, item.context_expr)
                self._stack.append(attr)
                acquired.append(attr)
        for stmt in node.body:
            self.visit(stmt)
        for _ in acquired:
            self._stack.pop()

    def visit_Call(self, node: ast.Call) -> None:
        attr = (
            is_self_attr(node.func)
            if isinstance(node.func, ast.Attribute)
            else None
        )
        if attr is not None and self._stack:
            for lock in sorted(self._eventual.get(attr, ())):
                self._edge(lock, node, via=attr)
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # closure bodies execute later, outside this with-stack

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass


def _direct_locks_and_calls(
    method: ast.FunctionDef, locks: set[str]
) -> tuple[set[str], set[str]]:
    """Locks directly acquired and ``self.<m>`` names called in a method
    (nested definitions excluded)."""
    acquired: set[str] = set()
    calls: set[str] = set()

    def walk(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                 ast.Lambda),
            ):
                continue
            if isinstance(child, (ast.With, ast.AsyncWith)):
                for item in child.items:
                    attr = is_self_attr(item.context_expr)
                    if attr is not None and attr in locks:
                        acquired.add(attr)
            if isinstance(child, ast.Call) and isinstance(
                child.func, ast.Attribute
            ):
                attr = is_self_attr(child.func)
                if attr is not None:
                    calls.add(attr)
            walk(child)

    walk(method)
    return acquired, calls


def _class_locks(
    class_name: str, flat: FlatClass, module: ModuleSource, imports: ImportMap
) -> ClassLocks | None:
    """Build one class's lock graph, or None when it has no locks."""
    locks: set[str] = set()
    for method in flat.all_defs:
        for node in ast.walk(method):
            if isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Call
            ):
                if imports.resolve_call(node.value) in _LOCK_FACTORIES:
                    for target in node.targets:
                        attr = is_self_attr(target)
                        if attr is not None:
                            locks.add(attr)
    if not locks:
        return None

    owner = ClassLocks(
        class_name=class_name, module_path=module.path, locks=locks
    )
    direct: dict[str, set[str]] = {}
    callees: dict[str, set[str]] = {}
    for name, method in flat.methods.items():
        direct[name], callees[name] = _direct_locks_and_calls(method, locks)

    # fixpoint: locks a method eventually acquires through self-calls
    eventual = {name: set(acquired) for name, acquired in direct.items()}
    changed = True
    while changed:
        changed = False
        for name in eventual:
            for callee in callees[name]:
                extra = eventual.get(callee, set()) - eventual[name]
                if extra:
                    eventual[name] |= extra
                    changed = True

    for name, method in flat.methods.items():
        scanner = _LockEdgeScanner(owner, name, eventual)
        # visit the body, not the def node itself — the scanner's
        # visit_FunctionDef is a nested-definition guard
        for stmt in method.body:
            scanner.visit(stmt)
    return owner


def _function_index(
    module: ModuleSource, modname: str
) -> dict[str, tuple[FunctionInfo, ast.FunctionDef]]:
    """Top-level functions and (flattened) class methods of one module."""
    index: dict[str, tuple[FunctionInfo, ast.FunctionDef]] = {}
    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = f"{modname}.{node.name}"
            index[qual] = (
                FunctionInfo(
                    qualname=qual,
                    name=node.name,
                    class_name=None,
                    module_path=module.path,
                    lineno=node.lineno,
                ),
                node,
            )
    for class_name, flat in flatten_classes(module.tree).items():
        for name, method in flat.methods.items():
            qual = f"{modname}.{class_name}.{name}"
            index[qual] = (
                FunctionInfo(
                    qualname=qual,
                    name=name,
                    class_name=class_name,
                    module_path=module.path,
                    lineno=method.lineno,
                ),
                method,
            )
    return index


def _call_edges(
    qual: str,
    info: FunctionInfo,
    node: ast.FunctionDef,
    modname: str,
    module_functions: set[str],
    all_functions: set[str],
    imports: ImportMap,
) -> set[str]:
    """Resolved callee qualnames of one function."""
    edges: set[str] = set()
    prefix = (
        f"{modname}.{info.class_name}." if info.class_name else None
    )
    for child in ast.walk(node):
        if not isinstance(child, ast.Call):
            continue
        attr = (
            is_self_attr(child.func)
            if isinstance(child.func, ast.Attribute)
            else None
        )
        if attr is not None and prefix is not None:
            candidate = f"{prefix}{attr}"
            if candidate in all_functions:
                edges.add(candidate)
            continue
        if isinstance(child.func, ast.Name):
            candidate = f"{modname}.{child.func.id}"
            if candidate in module_functions:
                edges.add(candidate)
                continue
        resolved = imports.resolve_call(child)
        if resolved is not None and resolved in all_functions:
            edges.add(resolved)
    return edges


def _entry_points(
    module: ModuleSource,
    modname: str,
    index: dict[str, tuple[FunctionInfo, ast.FunctionDef]],
    imports: ImportMap,
) -> dict[str, str]:
    """Thread targets, argparse handlers and ``main`` in one module."""
    entries: dict[str, str] = {}
    by_class: dict[str | None, set[str]] = {}
    for info, _ in index.values():
        by_class.setdefault(info.class_name, set()).add(info.name)

    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        if imports.resolve_call(node) == "threading.Thread":
            for kw in node.keywords:
                if kw.arg != "target":
                    continue
                attr = is_self_attr(kw.value)
                if attr is not None:
                    for cls, names in by_class.items():
                        if cls is not None and attr in names:
                            entries[f"{modname}.{cls}.{attr}"] = "thread"
                elif isinstance(kw.value, ast.Name):
                    qual = f"{modname}.{kw.value.id}"
                    if qual in index:
                        entries[qual] = "thread"
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "set_defaults"
        ):
            for kw in node.keywords:
                if kw.arg != "func":
                    continue
                if isinstance(kw.value, ast.Name):
                    qual = f"{modname}.{kw.value.id}"
                    if qual in index:
                        entries[qual] = "cli"
                        continue
                dotted = None
                if isinstance(kw.value, (ast.Attribute, ast.Name)):
                    probe = ast.Call(func=kw.value, args=[], keywords=[])
                    dotted = imports.resolve_call(probe)
                if dotted is not None:
                    entries[dotted] = "cli"

    main_qual = f"{modname}.main"
    if main_qual in index:
        entries.setdefault(main_qual, "main")
    return entries


def program_graph(project: Project) -> ProgramGraph:
    """Build (or fetch the memoised) whole-program graph for a run."""
    cached = project.cache.get(_CACHE_KEY)
    if cached is not None:
        return cached

    graph = ProgramGraph()
    per_module: list[
        tuple[
            ModuleSource,
            str,
            ImportMap,
            dict[str, tuple[FunctionInfo, ast.FunctionDef]],
        ]
    ] = []
    for module in project.modules:
        modname = module_dotted_name(module)
        imports = ImportMap(module.tree)
        index = _function_index(module, modname)
        per_module.append((module, modname, imports, index))
        for qual, (info, _) in index.items():
            graph.functions[qual] = info

    all_functions = set(graph.functions)
    for module, modname, imports, index in per_module:
        module_functions = {
            q
            for q, (info, _) in index.items()
            if info.class_name is None
        }
        for qual, (info, node) in index.items():
            graph.calls[qual] = _call_edges(
                qual,
                info,
                node,
                modname,
                module_functions,
                all_functions,
                imports,
            )
        graph.entry_points.update(
            _entry_points(module, modname, index, imports)
        )
        for class_name, flat in flatten_classes(module.tree).items():
            owner = _class_locks(class_name, flat, module, imports)
            if owner is not None:
                graph.class_locks.append(owner)

    project.cache[_CACHE_KEY] = graph
    return graph

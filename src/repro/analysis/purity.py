"""Kernel purity / effect analysis (rule family ``purity.*``).

An operator kernel -- the ``evaluate`` / ``work_profile`` / ``mask``
methods dispatched by the evaluation pool -- must be a pure function of
its inputs: column buffers are shared across worker threads, so an
in-place write to anything reachable from the inputs is a data race and
silently corrupts sibling partitions.

The analysis is a forward taint pass over each kernel's AST.  *Tainted*
names alias caller-owned memory:

* every parameter starts tainted (``self``, ``inputs``, ...);
* slice subscripts (``x[a:b]``) of tainted values stay tainted -- numpy
  slicing returns a **view** of the same buffer;
* constant subscripts (``inputs[0]``) stay tainted -- indexing a Python
  sequence aliases the element;
* attribute access on tainted values stays tainted (``bat.tail``);
* boolean/fancy indexing, arithmetic, comparisons, and calls produce
  fresh arrays and *drop* taint -- except the known aliasing calls
  (``np.asarray``, ``.view()``, ``.reshape()``, ``.astype(copy=False)``
  and friends), which forward it.

Rules:

* ``purity.inplace-write`` (error) -- a subscript/attribute store or an
  augmented assignment whose target is tainted: ``out[lo:hi] = v``,
  ``bat.tail += 1``, ``inputs[0].head[:] = 0``.
* ``purity.mutating-call`` (error) -- an in-place method on a tainted
  array (``.sort()``, ``.fill()``, ``.partition()``, ...), a mutating
  numpy free function (``np.copyto``, ``np.place``, ...) targeting a
  tainted array, or ``.setflags(write=True)`` undoing the read-only
  guard on a base column.
* ``purity.module-state`` (error) -- a kernel (or a same-module helper
  it calls) writes module-level state: a ``global`` rebind, or mutation
  of a module-level container.

Writes rooted at ``self`` are deliberately left to the concurrency
family (``concurrency.self-mutation``) so each finding has one home.

:func:`analyze_kernel` returns the raw :class:`KernelEffects` -- the
certificate builder (:mod:`repro.analysis.certificates`) reuses it to
derive ``pure`` and ``view_returning`` without a second walk.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .framework import CodeContext, CodeRule
from .source import (
    SourceModule,
    assigned_names,
    call_name,
    dotted_name,
    is_slice_subscript,
    root_name,
)

#: Methods the evaluation pool dispatches -- the kernel surface.
KERNEL_METHODS = ("evaluate", "work_profile", "mask")

#: Calls that forward aliasing from argument to result.
_ALIAS_FUNCS = {"np.asarray", "numpy.asarray", "np.ascontiguousarray",
                "numpy.ascontiguousarray", "memoryview"}
#: Sequence wrappers whose *elements* still alias the originals.
_SEQ_TRANSPARENT = {"enumerate", "zip", "reversed", "iter", "tuple", "list",
                    "sorted"}
#: Zero-copy (or possibly zero-copy) ndarray methods, plus the repo's
#: own view-handing methods (``Column.slice``, ``ColumnSlice.oids``).
_ALIAS_METHODS = {"view", "reshape", "ravel", "squeeze", "transpose",
                  "swapaxes", "diagonal", "slice", "oids"}
#: ndarray methods that mutate the receiver in place.
_MUTATING_METHODS = {"sort", "fill", "resize", "put", "partition",
                     "itemset", "byteswap"}
#: Container methods that mutate the receiver in place.
_CONTAINER_MUTATORS = {"append", "extend", "insert", "add", "update",
                       "clear", "pop", "popitem", "remove", "discard",
                       "setdefault"}
#: numpy free functions whose *first argument* is written in place.
_MUTATING_NP_FUNCS = {"copyto", "put", "place", "putmask", "fill_diagonal"}


@dataclass
class KernelEffects:
    """Raw effect findings of one kernel function."""

    #: ``(line, description)`` of in-place writes to tainted targets.
    inplace_writes: list[tuple[int, str]] = field(default_factory=list)
    #: ``(line, description)`` of mutating calls on tainted receivers.
    mutating_calls: list[tuple[int, str]] = field(default_factory=list)
    #: ``(line, description)`` of module-state writes.
    module_writes: list[tuple[int, str]] = field(default_factory=list)
    #: ``(line, description)`` of writes rooted at ``self`` (reported by
    #: the concurrency family, surfaced here for the certificate).
    self_writes: list[tuple[int, str]] = field(default_factory=list)
    #: The kernel can return a view aliasing an input buffer.
    view_return: bool = False

    @property
    def pure(self) -> bool:
        """No effects visible outside the call (view returns allowed)."""
        return not (
            self.inplace_writes
            or self.mutating_calls
            or self.module_writes
            or self.self_writes
        )


def _expr_taint(node: ast.AST, tainted: set[str]) -> bool:
    """Whether evaluating ``node`` can alias caller-owned memory."""
    if isinstance(node, ast.Name):
        return node.id in tainted
    if isinstance(node, ast.Attribute):
        return _expr_taint(node.value, tainted)
    if isinstance(node, ast.Subscript):
        if not _expr_taint(node.value, tainted):
            return False
        # Slices are views; constant indexes alias sequence elements;
        # everything else (masks, fancy index arrays) copies.
        return isinstance(node.slice, (ast.Slice, ast.Constant))
    if isinstance(node, ast.Call):
        name = call_name(node)
        if name in _ALIAS_FUNCS and node.args:
            return _expr_taint(node.args[0], tainted)
        if name in _SEQ_TRANSPARENT:
            return any(_expr_taint(arg, tainted) for arg in node.args)
        if name is not None and name.split(".")[-1] in (
            _VIEW_TRANSPARENT_CTORS
        ):
            return any(
                _expr_taint(arg, tainted) for arg in node.args
            ) or any(
                _expr_taint(kw.value, tainted) for kw in node.keywords
            )
        if isinstance(node.func, ast.Attribute):
            method = node.func.attr
            if method in _ALIAS_METHODS:
                return _expr_taint(node.func.value, tainted)
            if method == "astype":
                nocopy = any(
                    kw.arg == "copy"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is False
                    for kw in node.keywords
                )
                return nocopy and _expr_taint(node.func.value, tainted)
        return False
    if isinstance(node, (ast.Tuple, ast.List)):
        return any(_expr_taint(elt, tainted) for elt in node.elts)
    if isinstance(node, ast.IfExp):
        return _expr_taint(node.body, tainted) or _expr_taint(
            node.orelse, tainted
        )
    if isinstance(node, ast.Starred):
        return _expr_taint(node.value, tainted)
    if isinstance(node, ast.NamedExpr):
        return _expr_taint(node.value, tainted)
    return False


def _target_desc(node: ast.AST) -> str:
    return ast.unparse(node) if hasattr(ast, "unparse") else "<target>"


def _bind(target: ast.AST, value_tainted: bool, tainted: set[str]) -> None:
    for name in assigned_names(target):
        if value_tainted:
            tainted.add(name)
        else:
            tainted.discard(name)


class _KernelVisitor(ast.NodeVisitor):
    """One forward pass over a kernel body, in document order."""

    def __init__(self, tainted: set[str], module_globals: set[str]) -> None:
        self.tainted = tainted
        self.module_globals = module_globals
        self.declared_global: set[str] = set()
        self.effects = KernelEffects()

    # -- write classification ------------------------------------------
    def _record_store(self, target: ast.AST, line: int) -> None:
        """Classify a Subscript/Attribute store or AugAssign target."""
        root = root_name(target)
        desc = _target_desc(target)
        if root == "self":
            self.effects.self_writes.append((line, desc))
            return
        if root is not None and root in self.module_globals:
            self.effects.module_writes.append((line, desc))
            return
        if isinstance(target, ast.Name):
            if target.id in self.declared_global:
                self.effects.module_writes.append((line, desc))
            elif target.id in self.tainted:
                self.effects.inplace_writes.append((line, desc))
            return
        if _expr_taint(
            target.value if isinstance(target, (ast.Subscript, ast.Attribute))
            else target,
            self.tainted,
        ):
            self.effects.inplace_writes.append((line, desc))

    # -- statements ----------------------------------------------------
    def visit_Global(self, node: ast.Global) -> None:
        self.declared_global.update(node.names)

    def visit_Assign(self, node: ast.Assign) -> None:
        self.visit(node.value)
        value_tainted = _expr_taint(node.value, self.tainted)
        for target in node.targets:
            if isinstance(target, (ast.Subscript, ast.Attribute)):
                self._record_store(target, node.lineno)
            elif isinstance(target, ast.Name) and (
                target.id in self.declared_global
            ):
                self.effects.module_writes.append(
                    (node.lineno, _target_desc(target))
                )
            else:
                self._bind_target(target, node.value, value_tainted)

    def _bind_target(
        self, target: ast.AST, value: ast.AST, value_tainted: bool
    ) -> None:
        # Unpack `a, b = x, y` elementwise so taint stays precise.
        if isinstance(target, (ast.Tuple, ast.List)) and isinstance(
            value, (ast.Tuple, ast.List)
        ) and len(target.elts) == len(value.elts):
            for t, v in zip(target.elts, value.elts):
                self._bind_target(t, v, _expr_taint(v, self.tainted))
            return
        _bind(target, value_tainted, self.tainted)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is None:
            return
        self.visit(node.value)
        if isinstance(node.target, (ast.Subscript, ast.Attribute)):
            self._record_store(node.target, node.lineno)
        else:
            _bind(
                node.target,
                _expr_taint(node.value, self.tainted),
                self.tainted,
            )

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self.visit(node.value)
        self._record_store(node.target, node.lineno)

    def visit_For(self, node: ast.For) -> None:
        # Iterating a tainted sequence hands out aliases of its elements.
        _bind(node.target, _expr_taint(node.iter, self.tainted), self.tainted)
        self.generic_visit(node)

    def visit_withitem(self, node: ast.withitem) -> None:
        if node.optional_vars is not None:
            _bind(
                node.optional_vars,
                _expr_taint(node.context_expr, self.tainted),
                self.tainted,
            )
        self.generic_visit(node)

    # -- calls ---------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        line = node.lineno
        desc = _target_desc(node)
        if isinstance(node.func, ast.Attribute):
            method = node.func.attr
            recv = node.func.value
            recv_root = root_name(recv)
            recv_tainted = _expr_taint(recv, self.tainted)
            recv_global = recv_root in self.module_globals
            if method in _MUTATING_METHODS or (
                method in _CONTAINER_MUTATORS
            ):
                if recv_root == "self":
                    self.effects.self_writes.append((line, desc))
                elif recv_global:
                    self.effects.module_writes.append((line, desc))
                elif recv_tainted:
                    self.effects.mutating_calls.append((line, desc))
            elif method == "setflags" and recv_tainted:
                if any(
                    kw.arg in ("write", "writeable")
                    and not (
                        isinstance(kw.value, ast.Constant)
                        and kw.value.value is False
                    )
                    for kw in node.keywords
                ):
                    self.effects.mutating_calls.append((line, desc))
        name = call_name(node)
        if name is not None:
            parts = name.split(".")
            if (
                len(parts) == 2
                and parts[0] in ("np", "numpy")
                and parts[1] in _MUTATING_NP_FUNCS
                and node.args
                and _expr_taint(node.args[0], self.tainted)
            ):
                self.effects.mutating_calls.append((line, desc))
        self.generic_visit(node)

    def visit_Return(self, node: ast.Return) -> None:
        if node.value is not None and _returns_view(node.value, self.tainted):
            self.effects.view_return = True
        self.generic_visit(node)


#: Intermediate constructors that wrap -- not copy -- their arguments.
_VIEW_TRANSPARENT_CTORS = {"BAT", "Candidates", "ColumnSlice"}


def _returns_view(expr: ast.AST, tainted: set[str]) -> bool:
    """Whether a return expression can alias an input buffer.

    Structural: the returned value itself (or a buffer handed to one of
    the wrapping intermediate constructors -- ``BAT``, ``Candidates``,
    ``ColumnSlice``) aliases a tainted value.  Tainted names consumed by
    scalar-producing calls (``len(x)``, ``x.sum()``) do not count.
    """
    if isinstance(expr, (ast.Tuple, ast.List)):
        return any(_returns_view(elt, tainted) for elt in expr.elts)
    if isinstance(expr, ast.IfExp):
        return _returns_view(expr.body, tainted) or _returns_view(
            expr.orelse, tainted
        )
    if isinstance(expr, ast.Call):
        name = call_name(expr)
        if name is not None and name.split(".")[-1] in (
            _VIEW_TRANSPARENT_CTORS
        ):
            return any(
                _returns_view(arg, tainted) for arg in expr.args
            ) or any(
                _returns_view(kw.value, tainted) for kw in expr.keywords
            )
        return _expr_taint(expr, tainted)
    if isinstance(expr, ast.Name):
        return expr.id in tainted and expr.id != "self"
    return _expr_taint(expr, tainted)


def module_mutable_globals(module: SourceModule) -> set[str]:
    """Module-level names bound to mutable containers."""
    names: set[str] = set()
    ctor_names = {"dict", "list", "set", "defaultdict", "OrderedDict",
                  "Counter", "deque"}
    for stmt in module.tree.body:
        targets: list[ast.AST] = []
        value: ast.AST | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None:
            continue
        mutable = isinstance(
            value,
            (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
             ast.SetComp),
        )
        if isinstance(value, ast.Call):
            fname = call_name(value)
            mutable = fname is not None and fname.split(".")[-1] in ctor_names
        if mutable:
            for target in targets:
                for name in assigned_names(target):
                    if name != "__all__":
                        names.add(name)
    return names


def analyze_kernel(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
    module_globals: set[str] | None = None,
) -> KernelEffects:
    """Run the taint pass over one kernel function."""
    args = func.args
    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg:
        params.append(args.vararg.arg)
    if args.kwarg:
        params.append(args.kwarg.arg)
    visitor = _KernelVisitor(set(params), module_globals or set())
    for stmt in func.body:
        visitor.visit(stmt)
    return visitor.effects


def _helper_functions(
    module: SourceModule, kernels: list[ast.FunctionDef]
) -> list[ast.FunctionDef]:
    """Module-level helpers called (one level deep) from the kernels."""
    called: set[str] = set()
    for kernel in kernels:
        for node in ast.walk(kernel):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name is not None and "." not in name:
                    called.add(name)
    helpers = []
    for node in module.tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in called:
            helpers.append(node)
    return helpers


class PurityRule(CodeRule):
    """The ``purity.*`` family over kernel methods."""

    name = "purity"

    def run(self, ctx: CodeContext) -> None:
        module = ctx.module
        mutable_globals = module_mutable_globals(module)
        kernels: list[ast.FunctionDef] = []
        owners: list[str] = []
        for func, cls in module.functions():
            if cls is not None and func.name in KERNEL_METHODS:
                kernels.append(func)
                owners.append(f"{cls.name}.{func.name}")
        for helper in _helper_functions(module, kernels):
            kernels.append(helper)
            owners.append(helper.name)
        for func, owner in zip(kernels, owners):
            effects = analyze_kernel(func, mutable_globals)
            for line, desc in effects.inplace_writes:
                ctx.emit(
                    "purity.inplace-write",
                    "error",
                    f"{owner} writes a shared input buffer in place: {desc}",
                    line=line,
                    hint="materialize a fresh array (np.copy / arithmetic) "
                    "before writing",
                )
            for line, desc in effects.mutating_calls:
                ctx.emit(
                    "purity.mutating-call",
                    "error",
                    f"{owner} calls an in-place mutator on shared input "
                    f"data: {desc}",
                    line=line,
                    hint="use the copying variant (np.sort over .sort(), "
                    "fresh output buffers over out=)",
                )
            for line, desc in effects.module_writes:
                ctx.emit(
                    "purity.module-state",
                    "error",
                    f"{owner} writes module-level state: {desc}",
                    line=line,
                    hint="kernels run concurrently on pool workers; pass "
                    "state through operator params instead",
                )

"""The rule catalog: REP001–REP009, each one real invariant of this repo.

Every rule is calibrated against the codebase it guards — the scoping
(which directories count as "deterministic paths", which module is the
blessed RNG helper, what the atomic-write idiom looks like) mirrors the
architecture described in DESIGN.md, so a finding is an actionable
violation, not style noise.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Set

from .context import ModuleContext
from .registry import Rule, rule

__all__ = ["DETERMINISTIC_DIRS", "WORKER_DIRS"]

#: Directories whose code must be bit-reproducible (REP002 scope): the
#: experiment grid, the tuners, the simulator, the statistics, plus the
#: observability layer (whose timestamps must flow from injectable
#: clocks so parity tests can pin them).
DETERMINISTIC_DIRS = (
    "experiments",
    "search",
    "gpu",
    "stats",
    "searchspace",
    "obs",
)

#: Directories whose functions may execute inside pool workers (REP007
#: scope): mutating module globals there diverges per-process state.
WORKER_DIRS = (
    "experiments",
    "parallel",
    "gpu",
    "search",
    "kernels",
    "searchspace",
    "stats",
)

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _const_true(node: Optional[ast.AST]) -> bool:
    return isinstance(node, ast.Constant) and node.value is True


def _keyword(call: ast.Call, name: str) -> Optional[ast.AST]:
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


# -- REP001 ------------------------------------------------------------------

#: numpy.random attributes that construct *seeded, local* state — the
#: only sanctioned entry points (parallel/rng.py wraps them).
_NP_RANDOM_ALLOWED = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
}

#: Blessed module: the only place allowed to touch numpy.random/random
#: construction machinery directly.
_RNG_MODULE = "repro/parallel/rng.py"


@rule
class GlobalRngRule(Rule):
    """REP001: global-state RNG breaks per-cell stream independence."""

    rule_id = "REP001"
    summary = (
        "global-state RNG (np.random.* / random.*) outside "
        "parallel/rng.py seeded-stream helpers"
    )
    interests = (ast.Call,)

    def visit(self, node: ast.Call, ctx: ModuleContext) -> None:
        if ctx.is_module(_RNG_MODULE):
            return
        name = ctx.call_name(node)
        if not name:
            return
        if name.startswith("numpy.random."):
            attr = name.split(".", 2)[2]
            if attr not in _NP_RANDOM_ALLOWED:
                ctx.report(
                    self.rule_id,
                    node,
                    f"global numpy RNG state ({name}); derive an "
                    f"independent stream via "
                    f"repro.parallel.rng.RngFactory instead",
                )
        elif name.startswith("random.") and name.count(".") == 1:
            attr = name.split(".", 1)[1]
            if attr != "Random":
                ctx.report(
                    self.rule_id,
                    node,
                    f"stdlib global RNG ({name}); results become "
                    f"execution-order dependent — use a seeded "
                    f"numpy Generator from RngFactory",
                )


# -- REP002 ------------------------------------------------------------------

_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}


@rule
class WallClockRule(Rule):
    """REP002: wall-clock reads make deterministic paths time-dependent."""

    rule_id = "REP002"
    summary = (
        "wall-clock read (time.time / datetime.now) in a "
        "deterministic path"
    )
    interests = (ast.Call,)

    def visit(self, node: ast.Call, ctx: ModuleContext) -> None:
        if not ctx.in_dirs(*DETERMINISTIC_DIRS):
            return
        name = ctx.call_name(node)
        if name in _WALL_CLOCK:
            ctx.report(
                self.rule_id,
                node,
                f"{name}() in a deterministic path; inject a clock "
                f"or thread the timestamp from the single wall-clock "
                f"boundary (time.monotonic/perf_counter are fine for "
                f"durations)",
            )


# -- REP003 ------------------------------------------------------------------

_WRITE_MODES = ("w", "x")


@rule
class NonAtomicWriteRule(Rule):
    """REP003: durable artifacts must use the temp + os.replace idiom."""

    rule_id = "REP003"
    summary = (
        "non-atomic write (write_text / open('w')) instead of "
        "repro.io atomic helpers"
    )
    interests = (ast.Call,)

    def begin_module(self, ctx: ModuleContext) -> None:
        # Functions that themselves complete the atomic idiom (they call
        # os.replace, or an atomic_* helper) are exempt: a write_text to
        # a temp path followed by os.replace *is* the idiom.
        self._atomic_funcs: Set[int] = set()
        for func in ast.walk(ctx.tree):
            if not isinstance(func, _FUNC_NODES):
                continue
            for sub in ast.walk(func):
                if isinstance(sub, ast.Call):
                    name = ctx.call_name(sub) or ""
                    if name == "os.replace" or "atomic" in name.lower():
                        self._atomic_funcs.add(id(func))
                        break

    def visit(self, node: ast.Call, ctx: ModuleContext) -> None:
        if ctx.is_module("repro/io.py"):
            return
        if any(id(f) in self._atomic_funcs for f in ctx.func_stack):
            return
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in (
            "write_text",
            "write_bytes",
        ):
            ctx.report(
                self.rule_id,
                node,
                f".{func.attr}() writes the destination in place — a "
                f"crash or concurrent reader sees a torn file; use "
                f"repro.io.atomic_write_text/atomic_write_bytes",
            )
            return
        is_open = (
            isinstance(func, ast.Name) and func.id == "open"
        ) or (isinstance(func, ast.Attribute) and func.attr == "open")
        if not is_open:
            return
        mode = _keyword(node, "mode")
        if mode is None:
            args = node.args
            mode_index = 1 if isinstance(func, ast.Name) else 0
            if len(args) > mode_index:
                mode = args[mode_index]
        if (
            isinstance(mode, ast.Constant)
            and isinstance(mode.value, str)
            and any(ch in mode.value for ch in _WRITE_MODES)
        ):
            ctx.report(
                self.rule_id,
                node,
                f"open(..., {mode.value!r}) truncates the destination "
                f"in place; use repro.io.atomic_write_with (append "
                f"streams like 'a' are a separate, allowed idiom)",
            )


# -- REP004 ------------------------------------------------------------------

_FINGERPRINT_FUNC = re.compile(
    r"fingerprint|canonical|identity|cache_key|manifest_id|run_id"
    r"|store_key|entry_key|result_key",
    re.IGNORECASE,
)


@rule
class CanonicalJsonRule(Rule):
    """REP004: JSON feeding hashes/ids must be canonical (sort_keys)."""

    rule_id = "REP004"
    summary = (
        "non-canonical json.dumps feeding a fingerprint/run-id "
        "(missing sort_keys / separators)"
    )
    interests = (ast.Call,)

    def begin_module(self, ctx: ModuleContext) -> None:
        # json.dumps calls nested inside a hashlib.<alg>(...) argument
        # are hash-fed regardless of the enclosing function's name.
        self._hash_fed: Set[int] = set()
        for call in ast.walk(ctx.tree):
            if not isinstance(call, ast.Call):
                continue
            name = ctx.call_name(call) or ""
            if not name.startswith("hashlib."):
                continue
            for arg in list(call.args) + [k.value for k in call.keywords]:
                for sub in ast.walk(arg):
                    if (
                        isinstance(sub, ast.Call)
                        and ctx.call_name(sub) == "json.dumps"
                    ):
                        self._hash_fed.add(id(sub))

    def visit(self, node: ast.Call, ctx: ModuleContext) -> None:
        if ctx.call_name(node) != "json.dumps":
            return
        hash_fed = id(node) in self._hash_fed
        in_fingerprint_func = any(
            isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
            and _FINGERPRINT_FUNC.search(f.name)
            for f in ctx.func_stack
        )
        if not (hash_fed or in_fingerprint_func):
            return
        if not _const_true(_keyword(node, "sort_keys")):
            ctx.report(
                self.rule_id,
                node,
                "json.dumps feeding a fingerprint without "
                "sort_keys=True — dict insertion order would leak "
                "into cache keys / run ids",
            )
        if hash_fed and _keyword(node, "separators") is None:
            ctx.report(
                self.rule_id,
                node,
                "hash-fed json.dumps without explicit separators=; "
                "the canonical compact form is "
                'separators=(",", ":")',
            )


# -- REP005 ------------------------------------------------------------------

_ORDER_SENSITIVE_WRAPPERS = {"list", "tuple", "enumerate", "iter"}
_SET_BINOPS = (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)


def _is_set_typed(node: ast.AST, ctx: ModuleContext) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = ctx.call_name(node)
        return name in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_BINOPS):
        return _is_set_typed(node.left, ctx) or _is_set_typed(
            node.right, ctx
        )
    return False


def _unwrap_seq(node: ast.AST) -> ast.AST:
    while (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("list", "tuple", "sorted")
    ):
        if node.func.id == "sorted":
            return node  # sorted() restores determinism — stop here
        if not node.args:
            return node
        node = node.args[0]
    return node


@rule
class UnorderedIterationRule(Rule):
    """REP005: set iteration order is hash-randomized across runs."""

    rule_id = "REP005"
    summary = (
        "iteration over a set (or dict view fed to serialization) "
        "without sorted()"
    )
    interests = (ast.For, ast.comprehension, ast.Call)

    def _check_iter(self, expr: ast.AST, ctx: ModuleContext,
                    where: ast.AST) -> None:
        if _is_set_typed(expr, ctx):
            ctx.report(
                self.rule_id,
                where,
                "iterating a set: order depends on PYTHONHASHSEED "
                "and insertion history — wrap in sorted() before it "
                "reaches ordered or serialized output",
            )

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        if isinstance(node, ast.For):
            self._check_iter(node.iter, ctx, node.iter)
        elif isinstance(node, ast.comprehension):
            self._check_iter(node.iter, ctx, node.iter)
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Name)
                and func.id in _ORDER_SENSITIVE_WRAPPERS
                and node.args
            ):
                self._check_iter(node.args[0], ctx, node.args[0])
            elif isinstance(func, ast.Attribute) and func.attr == "join":
                if node.args:
                    self._check_iter(node.args[0], ctx, node.args[0])
                    self._check_dict_view(node.args[0], ctx)
            name = ctx.call_name(node) or ""
            if name == "json.dumps" or name.startswith("hashlib."):
                for arg in node.args:
                    self._check_dict_view(arg, ctx)

    def _check_dict_view(self, arg: ast.AST, ctx: ModuleContext) -> None:
        inner = _unwrap_seq(arg)
        if (
            isinstance(inner, ast.Call)
            and isinstance(inner.func, ast.Attribute)
            and inner.func.attr in ("values", "keys")
            and not inner.args
        ):
            ctx.report(
                self.rule_id,
                inner,
                f"dict .{inner.func.attr}() flowing into serialized "
                f"output; sort explicitly (sorted(...) or "
                f"sort_keys=True) so the artifact is canonical",
            )


# -- REP006 ------------------------------------------------------------------

#: Pool dispatch methods -> positions of the callables they pickle.
#: ``run_grouped`` is also the executor protocol's dispatch method.
_DISPATCH_METHODS = {
    "run": (0,),
    "run_grouped": (0, 1),
}
_DISPATCH_KEYWORDS = ("fn", "batch_fn")


@rule
class UnpicklableCallableRule(Rule):
    """REP006: pool dispatch needs picklable, module-level callables."""

    rule_id = "REP006"
    summary = (
        "lambda / closure / instance method handed to ParallelMap "
        "dispatch (not picklable across processes)"
    )
    interests = (ast.Call,)

    def begin_module(self, ctx: ModuleContext) -> None:
        # Names of functions defined *inside* each function — passing
        # one of those to a pool ships a closure that pickle rejects.
        self._nested_defs: Dict[int, Set[str]] = {}
        for func in ast.walk(ctx.tree):
            if not isinstance(func, _FUNC_NODES) or isinstance(
                func, ast.Lambda
            ):
                continue
            names: Set[str] = set()
            for sub in ast.walk(func):
                if sub is not func and isinstance(
                    sub, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    names.add(sub.name)
            self._nested_defs[id(func)] = names

    def _is_pool_dispatch(self, node: ast.Call,
                          ctx: ModuleContext) -> bool:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return False
        if func.attr not in _DISPATCH_METHODS:
            return False
        receiver = func.value
        name = ctx.resolve(receiver) or ""
        if "pool" in name.lower() or "executor" in name.lower():
            return True
        if isinstance(receiver, ast.Call):
            called = ctx.call_name(receiver) or ""
            return called.endswith("ParallelMap") or called.endswith(
                "make_executor"
            )
        return False

    def visit(self, node: ast.Call, ctx: ModuleContext) -> None:
        if not self._is_pool_dispatch(node, ctx):
            return
        assert isinstance(node.func, ast.Attribute)
        candidates: List[ast.AST] = []
        for index in _DISPATCH_METHODS[node.func.attr]:
            if len(node.args) > index:
                candidates.append(node.args[index])
        for kw_name in _DISPATCH_KEYWORDS:
            value = _keyword(node, kw_name)
            if value is not None:
                candidates.append(value)
        nested = set()
        for f in ctx.func_stack:
            nested |= self._nested_defs.get(id(f), set())
        for cand in candidates:
            if isinstance(cand, ast.Lambda):
                ctx.report(
                    self.rule_id,
                    cand,
                    "lambda handed to pool dispatch: lambdas do not "
                    "pickle; define a module-level function",
                )
            elif isinstance(cand, ast.Name) and cand.id in nested:
                ctx.report(
                    self.rule_id,
                    cand,
                    f"nested function {cand.id!r} handed to pool "
                    f"dispatch: closures do not pickle; hoist it to "
                    f"module level",
                )
            elif (
                isinstance(cand, ast.Attribute)
                and isinstance(cand.value, ast.Name)
                and cand.value.id == "self"
            ):
                ctx.report(
                    self.rule_id,
                    cand,
                    f"instance method self.{cand.attr} handed to pool "
                    f"dispatch: pickles the whole instance (or fails); "
                    f"prefer a module-level function taking plain data",
                )


# -- REP007 ------------------------------------------------------------------

_MUTATOR_METHODS = {
    "append",
    "add",
    "update",
    "extend",
    "insert",
    "setdefault",
    "pop",
    "popitem",
    "clear",
    "remove",
    "discard",
    "appendleft",
}

_MUTABLE_CTORS = {
    "list",
    "dict",
    "set",
    "collections.defaultdict",
    "collections.OrderedDict",
    "collections.deque",
    "defaultdict",
    "OrderedDict",
    "deque",
}


def _is_mutable_value(node: ast.AST, ctx: ModuleContext) -> bool:
    if isinstance(
        node,
        (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
         ast.SetComp),
    ):
        return True
    if isinstance(node, ast.Call):
        return (ctx.call_name(node) or "") in _MUTABLE_CTORS
    return False


@rule
class MutableGlobalRule(Rule):
    """REP007: worker-side mutation of module globals forks state."""

    rule_id = "REP007"
    summary = (
        "module-level mutable global mutated inside a function in "
        "worker-executed code"
    )
    interests = (ast.Call, ast.Assign, ast.AugAssign)

    def begin_module(self, ctx: ModuleContext) -> None:
        self._globals: Set[str] = set()
        if not ctx.in_dirs(*WORKER_DIRS):
            return
        for stmt in _module_level_statements(ctx.tree):
            targets: List[ast.expr] = []
            value: Optional[ast.AST] = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if value is None or not _is_mutable_value(value, ctx):
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    self._globals.add(target.id)

    def _flag(self, node: ast.AST, name: str, how: str,
              ctx: ModuleContext) -> None:
        ctx.report(
            self.rule_id,
            node,
            f"{how} module-level mutable global {name!r} inside a "
            f"function: each pool worker mutates its own copy, so "
            f"state diverges across processes and run orders",
        )

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        if not self._globals or not ctx.func_stack:
            return
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATOR_METHODS
                and isinstance(func.value, ast.Name)
                and func.value.id in self._globals
            ):
                self._flag(
                    node, func.value.id, f".{func.attr}() on", ctx
                )
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in self._globals
                ):
                    self._flag(
                        node, target.value.id, "item assignment on", ctx
                    )
        elif isinstance(node, ast.AugAssign):
            target = node.target
            if (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and target.value.id in self._globals
            ):
                self._flag(
                    node, target.value.id, "augmented assignment on", ctx
                )


def _module_level_statements(tree: ast.Module) -> List[ast.stmt]:
    """Top-level statements, descending through module-level if/try."""
    out: List[ast.stmt] = []
    stack: List[ast.stmt] = list(tree.body)
    while stack:
        stmt = stack.pop(0)
        out.append(stmt)
        if isinstance(stmt, ast.If):
            stack.extend(stmt.body)
            stack.extend(stmt.orelse)
        elif isinstance(stmt, ast.Try):
            stack.extend(stmt.body)
            for handler in stmt.handlers:
                stack.extend(handler.body)
            stack.extend(stmt.orelse)
            stack.extend(stmt.finalbody)
    return out


# -- REP008 ------------------------------------------------------------------

_BROAD_EXCEPTIONS = {"Exception", "BaseException"}


def _is_broad(expr: Optional[ast.AST], ctx: ModuleContext) -> bool:
    if expr is None:
        return True
    if isinstance(expr, ast.Name):
        return expr.id in _BROAD_EXCEPTIONS
    if isinstance(expr, ast.Tuple):
        return any(_is_broad(elt, ctx) for elt in expr.elts)
    return False


@rule
class SwallowedExceptRule(Rule):
    """REP008: broad excepts must preserve TaskFailure attribution."""

    rule_id = "REP008"
    summary = (
        "bare/broad except that neither binds nor re-raises — "
        "swallows TaskFailure attribution"
    )
    interests = (ast.ExceptHandler,)

    def visit(self, node: ast.ExceptHandler, ctx: ModuleContext) -> None:
        if node.type is None:
            ctx.report(
                self.rule_id,
                node,
                "bare except: catches KeyboardInterrupt/SystemExit "
                "and erases failure attribution; catch the narrowest "
                "exception type and capture it (as exc) into the "
                "TaskFailure/outcome path",
            )
            return
        if not _is_broad(node.type, ctx):
            return
        if node.name is not None:
            return  # bound — attribution can flow into TaskFailure
        has_raise = any(
            isinstance(sub, ast.Raise) for sub in ast.walk(node)
        )
        if not has_raise:
            ctx.report(
                self.rule_id,
                node,
                "broad except without binding (as exc) or re-raise: "
                "the error vanishes instead of becoming an attributed "
                "TaskFailure",
            )


# -- REP009 ------------------------------------------------------------------


def _quoted_names(annotation: Optional[ast.AST]) -> Set[str]:
    """Names read by the string parts of an annotation, such as
    ``-> "Optional[Tree]"``."""
    names: Set[str] = set()
    if annotation is None:
        return names
    for sub in ast.walk(annotation):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            names.update(
                n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)
            )
    return names


def _all_names(tree: ast.Module) -> Set[str]:
    """String entries of the module's ``__all__`` (assigned or extended)."""
    names: Set[str] = set()
    for stmt in _module_level_statements(tree):
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets, value = [stmt.target], stmt.value
        else:
            continue
        if value is None or not any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in targets
        ):
            continue
        names.update(
            n.value for n in ast.walk(value)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)
        )
    return names


@rule
class UnusedImportRule(Rule):
    """REP009: an import nothing in the module reads is dead code."""

    rule_id = "REP009"
    summary = "imported name never used"
    interests = (
        ast.Import, ast.ImportFrom, ast.Name, ast.arg, ast.AnnAssign,
        ast.FunctionDef, ast.AsyncFunctionDef,
    )

    def begin_module(self, ctx: ModuleContext) -> None:
        #: ``(bound name, alias node)`` per imported name, in order.
        self._imports: List[tuple] = []
        self._used: Set[str] = _all_names(ctx.tree)
        # A package's __init__ imports in order to re-export.
        self._skip = (
            ctx.path.replace("\\", "/").rsplit("/", 1)[-1] == "__init__.py"
        )

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        if self._skip:
            return
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                self._imports.append((bound, alias))
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                return
            for alias in node.names:
                if alias.name != "*":
                    self._imports.append((alias.asname or alias.name, alias))
        elif isinstance(node, ast.Name):
            self._used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._used |= _quoted_names(node.returns)
        else:  # ast.arg / ast.AnnAssign
            self._used |= _quoted_names(node.annotation)

    def end_module(self, ctx: ModuleContext) -> None:
        for bound, alias in self._imports:
            if bound not in self._used:
                ctx.report(
                    self.rule_id,
                    alias,
                    f"{bound!r} is imported but never used: delete the "
                    f"import, or list the name in __all__ if it is a "
                    f"re-export",
                )

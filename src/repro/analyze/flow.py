"""Pass 4: CFG + intraprocedural dataflow concurrency linter.

Five rules over the repository's own source, built on ``ast`` alone (no
imports, no execution):

* ``FLOW-BLOCK`` — blocking I/O (``os.fsync``, ``time.sleep``,
  ``subprocess.*``, ``open``, result-store writes) or
  ``pool.submit(...).result()`` reachable inside an ``async def`` —
  directly or through a chain of same-module synchronous helpers.  This
  is the defect class the sweep service's dedicated I/O executor exists
  to prevent: one fsync on the event loop stalls every in-flight job.
* ``FLOW-AWAIT`` — a coroutine object is created but never awaited,
  gathered, scheduled, or otherwise consumed; the call silently does
  nothing.
* ``FLOW-SHARED`` — module-level (or closure-captured) mutable state
  mutated from both the event loop and pool workers without a common
  module-level lock.
* ``FLOW-DICTORD`` — iteration over an unordered ``set`` feeding an
  order-sensitive sink (``append``/``heappush``/hash ``update``/...),
  a determinism hazard for the two-engine bit-equality contract.
* ``FLOW-NPOVF`` — ``int32``/``uint32`` index arithmetic in the
  compiled-graph and serve-loop hot paths that can overflow at paper scale
  (N = 1000 means ~1.7e8 tasks; a pair key ``id * num_nodes`` must be
  widened to ``int64`` first).

The pass parses each file, builds a basic-block CFG per function and
runs a forward may-analysis over it, so findings respect reachability
(code after ``return``/``raise``/``break`` is never flagged) and branch
merge points join tags conservatively.

Run via ``python -m repro.analyze --flow`` (or ``--all``); wired into
CI as a blocking step.
"""

from __future__ import annotations

import ast
from pathlib import Path
from collections.abc import Sequence
from typing import Optional, Union

from .findings import Report, Severity

__all__ = ["flow_module", "flow_sources", "NPOVF_FILES"]

_AnyFunc = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Calls that block the calling thread (dotted suffix match).
_BLOCKING_CALLS: set[tuple[str, ...]] = {
    ("os", "fsync"), ("os", "replace"), ("os", "rename"),
    ("time", "sleep"),
    ("subprocess", "run"), ("subprocess", "call"),
    ("subprocess", "check_call"), ("subprocess", "check_output"),
    ("subprocess", "Popen"),
    ("socket", "create_connection"),
}

#: Bare builtins that block (file open hits the disk).
_BLOCKING_BARE = {"open"}

#: Write/flush methods of the result store: calling them inline in a
#: coroutine re-introduces the fsync-on-the-event-loop defect.
_STORE_METHODS = {"put", "put_structure", "sync", "compact"}

#: Methods that consume a coroutine argument (scheduling it).
_CORO_CONSUMERS = {
    "gather", "create_task", "ensure_future", "wait_for", "wait",
    "run", "run_until_complete", "shield", "as_completed",
}

#: Mutating container methods (for FLOW-SHARED).
_MUTATING_METHODS = {
    "append", "extend", "add", "update", "insert", "remove", "pop",
    "popleft", "appendleft", "clear", "setdefault", "discard",
    "__setitem__",
}

#: Order-sensitive sinks inside a set-iterating loop (FLOW-DICTORD).
_ORDER_SINKS = {
    "append", "extend", "appendleft", "push", "put", "heappush",
    "update", "write",
}

#: Files where FLOW-NPOVF applies (int32 index hot paths).
NPOVF_FILES = (
    "graph/compiled.py",
    "runtime/simulator/fast_engine.py",
)

#: ``CompiledGraph``/comm-plan columns known to be int32 (see
#: ``repro.graph.compiled``) — loading one of these attributes yields a
#: narrow array.
_I32_FIELDS = {
    "node", "iteration", "write_id", "read_ids", "data_producer",
    "data_source_node", "missing", "lc_ids", "rn_ids", "pair_dst",
    "pair_src",
}

#: numpy constructors whose ``dtype=`` keyword decides the width.
_NP_CTORS = {"arange", "zeros", "empty", "full", "array", "asarray"}

#: numpy functions that preserve their first argument's dtype.
_NP_PRESERVING = {"repeat", "sort", "concatenate", "unique", "tile"}


def _dotted(node: ast.AST) -> Optional[tuple[str, ...]]:
    """``a.b.c`` -> ``("a", "b", "c")``; None for non-dotted shapes."""
    parts: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
        return tuple(reversed(parts))
    return None


def _is_narrow_dtype(node: ast.AST) -> bool:
    d = _dotted(node)
    if d and d[-1] in ("int32", "uint32"):
        return True
    return isinstance(node, ast.Constant) and node.value in ("int32", "uint32")


def _is_wide_dtype(node: ast.AST) -> bool:
    d = _dotted(node)
    if d and d[-1] in ("int64", "uint64", "intp", "float64", "float32"):
        return True
    return isinstance(node, ast.Constant) and node.value in (
        "int64", "uint64", "intp", "float64", "float32",
    )


# ---------------------------------------------------------------------------
# Control-flow graph
# ---------------------------------------------------------------------------

#: CFG items: ("stmt", s) analyses the whole simple statement; ("head", s)
#: analyses only the control expression of a compound statement (test /
#: iter / with-items) whose body lives in other blocks.
_Item = tuple[str, ast.stmt]


class _Block:
    __slots__ = ("items", "succ")

    def __init__(self) -> None:
        self.items: list[_Item] = []
        self.succ: list[int] = []


class _Cfg:
    """Basic-block CFG for one function body; block 0 is the entry and
    block 1 the virtual exit."""

    def __init__(self, body: Sequence[ast.stmt]) -> None:
        self.blocks: list[_Block] = [_Block(), _Block()]
        self._loops: list[tuple[int, int]] = []  # (head, after)
        out = self._seq(body, 0)
        if out >= 0:
            self._edge(out, 1)

    def _new(self) -> int:
        self.blocks.append(_Block())
        return len(self.blocks) - 1

    def _edge(self, src: int, dst: int) -> None:
        if dst not in self.blocks[src].succ:
            self.blocks[src].succ.append(dst)

    def _seq(self, body: Sequence[ast.stmt], cur: int) -> int:
        """Thread ``body`` starting in block ``cur``; return the open
        block at the end, or -1 if every path terminated."""
        for stmt in body:
            if cur < 0:
                # Dead code after return/raise/break: park it in an
                # unreachable block so the worklist never visits it.
                cur = self._new()
            cur = self._stmt(stmt, cur)
        return cur

    def _stmt(self, stmt: ast.stmt, cur: int) -> int:
        blocks = self.blocks
        if isinstance(stmt, ast.If):
            blocks[cur].items.append(("head", stmt))
            after = self._new()
            then_entry = self._new()
            self._edge(cur, then_entry)
            then_out = self._seq(stmt.body, then_entry)
            if then_out >= 0:
                self._edge(then_out, after)
            if stmt.orelse:
                else_entry = self._new()
                self._edge(cur, else_entry)
                else_out = self._seq(stmt.orelse, else_entry)
                if else_out >= 0:
                    self._edge(else_out, after)
            else:
                self._edge(cur, after)
            return after
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            head = self._new()
            self._edge(cur, head)
            blocks[head].items.append(("head", stmt))
            after = self._new()
            body_entry = self._new()
            self._edge(head, body_entry)
            infinite = isinstance(stmt, ast.While) and isinstance(
                stmt.test, ast.Constant) and bool(stmt.test.value)
            self._loops.append((head, after))
            body_out = self._seq(stmt.body, body_entry)
            self._loops.pop()
            if body_out >= 0:
                self._edge(body_out, head)
            if stmt.orelse:
                else_entry = self._new()
                self._edge(head, else_entry)
                else_out = self._seq(stmt.orelse, else_entry)
                if else_out >= 0:
                    self._edge(else_out, after)
            elif not infinite:
                self._edge(head, after)
            return after
        if isinstance(stmt, ast.Try):
            after = self._new()
            body_entry = self._new()
            self._edge(cur, body_entry)
            body_out = self._seq(stmt.body, body_entry)
            else_out = body_out
            if stmt.orelse and body_out >= 0:
                else_out = self._seq(stmt.orelse, body_out)
            handler_outs: list[int] = []
            for handler in stmt.handlers:
                h_entry = self._new()
                # An exception may fire before or after any body effect.
                self._edge(cur, h_entry)
                if body_out >= 0:
                    self._edge(body_out, h_entry)
                h_out = self._seq(handler.body, h_entry)
                if h_out >= 0:
                    handler_outs.append(h_out)
            exits = handler_outs + ([else_out] if else_out >= 0 else [])
            if stmt.finalbody:
                f_entry = self._new()
                for b in exits:
                    self._edge(b, f_entry)
                if not exits:
                    self._edge(cur, f_entry)
                f_out = self._seq(stmt.finalbody, f_entry)
                if f_out >= 0:
                    self._edge(f_out, after)
                    return after
                return -1
            for b in exits:
                self._edge(b, after)
            return after if exits else -1
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            blocks[cur].items.append(("head", stmt))
            return self._seq(stmt.body, cur)
        if isinstance(stmt, (ast.Return, ast.Raise)):
            blocks[cur].items.append(("stmt", stmt))
            self._edge(cur, 1)
            return -1
        if isinstance(stmt, ast.Break):
            if self._loops:
                self._edge(cur, self._loops[-1][1])
            return -1
        if isinstance(stmt, ast.Continue):
            if self._loops:
                self._edge(cur, self._loops[-1][0])
            return -1
        # Nested defs/classes bind a name; their bodies are analysed as
        # separate functions.  Everything else is a simple statement.
        blocks[cur].items.append(("stmt", stmt))
        return cur


# ---------------------------------------------------------------------------
# Dataflow state
# ---------------------------------------------------------------------------

class _State:
    """Per-program-point tags, joined with may-union at CFG merges."""

    __slots__ = ("sets", "coros", "futs", "i32")

    def __init__(self) -> None:
        self.sets: set[str] = set()
        self.coros: dict[str, int] = {}
        self.futs: set[str] = set()
        self.i32: dict[str, str] = {}  # name -> "i32" | "wide"

    def copy(self) -> "_State":
        st = _State()
        st.sets = set(self.sets)
        st.coros = dict(self.coros)
        st.futs = set(self.futs)
        st.i32 = dict(self.i32)
        return st

    def merge(self, other: "_State") -> bool:
        """Join ``other`` into self; True if anything changed."""
        changed = False
        if not other.sets <= self.sets:
            self.sets |= other.sets
            changed = True
        for name, line in other.coros.items():
            if name not in self.coros:
                self.coros[name] = line
                changed = True
        if not other.futs <= self.futs:
            self.futs |= other.futs
            changed = True
        for name, tag in other.i32.items():
            old = self.i32.get(name)
            if old is None or (old == "wide" and tag == "i32"):
                self.i32[name] = tag  # narrow wins: may-overflow
                changed = True
        return changed


class _Val:
    """Abstract value of one expression."""

    __slots__ = ("is_set", "i32", "coro_line", "is_future")

    def __init__(
        self,
        is_set: bool = False,
        i32: Optional[str] = None,
        coro_line: Optional[int] = None,
        is_future: bool = False,
    ) -> None:
        self.is_set = is_set
        self.i32 = i32
        self.coro_line = coro_line
        self.is_future = is_future


# ---------------------------------------------------------------------------
# Module context: symbol tables + blocking-call summaries
# ---------------------------------------------------------------------------

class _FnInfo:
    __slots__ = ("qual", "node", "cls", "is_async", "blocking")

    def __init__(self, qual: str, node: _AnyFunc, cls: Optional[str]) -> None:
        self.qual = qual
        self.node = node
        self.cls = cls
        self.is_async = isinstance(node, ast.AsyncFunctionDef)
        #: Human description of a blocking call reachable from this
        #: function (sync functions only), or None.
        self.blocking: Optional[str] = None


class _ModuleCtx:
    def __init__(self, tree: ast.Module, rel: str) -> None:
        self.rel = rel
        self.npovf = any(rel.endswith(f) for f in NPOVF_FILES)
        self.functions: list[_FnInfo] = []
        self.by_bare: dict[str, list[_FnInfo]] = {}
        self.by_method: dict[tuple[str, str], _FnInfo] = {}
        self.module_globals: set[str] = set()
        self.module_locks: set[str] = set()
        self._collect(tree)
        self._blocking_fixpoint()

    # -- symbol tables ----------------------------------------------------

    def _collect(self, tree: ast.Module) -> None:
        for stmt in tree.body:
            for name in _bound_names(stmt):
                self.module_globals.add(name)
            if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call):
                d = _dotted(stmt.value.func)
                if d and d[-1] in ("Lock", "RLock"):
                    for tgt in stmt.targets:
                        if isinstance(tgt, ast.Name):
                            self.module_locks.add(tgt.id)

        def walk(node: ast.AST, cls: Optional[str], prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{prefix}{child.name}"
                    info = _FnInfo(qual, child, cls)
                    self.functions.append(info)
                    self.by_bare.setdefault(child.name, []).append(info)
                    if cls is not None:
                        self.by_method[(cls, child.name)] = info
                    walk(child, cls, f"{qual}.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, child.name, f"{child.name}.")

        walk(tree, None, "")

    def resolve_call(self, fn: _FnInfo, func: ast.AST) -> Optional[_FnInfo]:
        """Resolve a called expression to a same-module function."""
        d = _dotted(func)
        if d is None:
            return None
        if len(d) == 1:
            cands = self.by_bare.get(d[0], [])
            if len(cands) == 1:
                return cands[0]
            return None
        if len(d) == 2 and d[0] == "self" and fn.cls is not None:
            return self.by_method.get((fn.cls, d[1]))
        return None

    # -- blocking summaries ----------------------------------------------

    def _direct_blocking(self, fn: _FnInfo) -> Optional[str]:
        for node in _walk_no_defs(fn.node):
            if isinstance(node, ast.Call):
                desc = _blocking_call(node, futs=frozenset())
                if desc is not None:
                    return desc
        return None

    def _blocking_fixpoint(self) -> None:
        for fn in self.functions:
            if not fn.is_async:
                fn.blocking = self._direct_blocking(fn)
        changed = True
        while changed:
            changed = False
            for fn in self.functions:
                if fn.is_async or fn.blocking is not None:
                    continue
                for node in _walk_no_defs(fn.node):
                    if not isinstance(node, ast.Call):
                        continue
                    callee = self.resolve_call(fn, node.func)
                    if callee is not None and not callee.is_async \
                            and callee.blocking is not None:
                        fn.blocking = f"{callee.blocking} via {callee.qual}()"
                        changed = True
                        break


def _bound_names(stmt: ast.stmt) -> list[str]:
    names: list[str] = []
    if isinstance(stmt, ast.Assign):
        for tgt in stmt.targets:
            if isinstance(tgt, ast.Name):
                names.append(tgt.id)
            elif isinstance(tgt, (ast.Tuple, ast.List)):
                names.extend(e.id for e in tgt.elts if isinstance(e, ast.Name))
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        if isinstance(stmt.target, ast.Name):
            names.append(stmt.target.id)
    return names


def _walk_no_defs(fn: _AnyFunc) -> list[ast.AST]:
    """Walk a function body without descending into nested defs."""
    out: list[ast.AST] = []
    stack: list[ast.AST] = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            continue
        out.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _blocking_call(call: ast.Call, futs: frozenset) -> Optional[str]:
    """Classify one call as blocking the current thread, or None."""
    d = _dotted(call.func)
    if d is not None:
        if d[-1] == "shutdown":
            return None  # lifecycle teardown, exempt by design
        for pat in _BLOCKING_CALLS:
            if d[-len(pat):] == pat:
                return ".".join(pat)
        if len(d) == 1 and d[0] in _BLOCKING_BARE:
            return d[0]
        if len(d) >= 2 and d[-2] == "store" and d[-1] in _STORE_METHODS:
            return f"store.{d[-1]}"
    func = call.func
    if isinstance(func, ast.Attribute):
        if func.attr == "result":
            base = func.value
            based = _dotted(base)
            if isinstance(base, ast.Call):
                inner = _dotted(base.func)
                if inner and inner[-1] in ("submit", "run_in_executor"):
                    return f"{inner[-1]}(...).result"
            elif based is not None and len(based) == 1 and based[0] in futs:
                return f"{based[0]}.result"
    return None


# ---------------------------------------------------------------------------
# Per-function analysis
# ---------------------------------------------------------------------------

class _FnAnalysis:
    """Run the forward dataflow over one function's CFG and report."""

    def __init__(self, ctx: _ModuleCtx, fn: _FnInfo, rep: Report) -> None:
        self.ctx = ctx
        self.fn = fn
        self.rep = rep
        self.reported: set[tuple[str, int]] = set()
        self.locals = {a.arg for a in _all_args(fn.node)}

    # -- driver -----------------------------------------------------------

    def run(self) -> None:
        cfg = _Cfg(self.fn.node.body)
        states: dict[int, _State] = {0: _State()}
        work = [0]
        while work:
            bid = work.pop()
            out = states[bid].copy()
            self._transfer(out, cfg.blocks[bid], report=False)
            for succ in cfg.blocks[bid].succ:
                if succ not in states:
                    states[succ] = out.copy()
                    work.append(succ)
                elif states[succ].merge(out):
                    work.append(succ)
        for bid in sorted(states):
            if bid == 1:
                continue
            self._transfer(states[bid].copy(), cfg.blocks[bid], report=True)
        exit_state = states.get(1)
        if exit_state is not None:
            for name, line in sorted(exit_state.coros.items()):
                self._emit(
                    "FLOW-AWAIT", "error", line,
                    f"coroutine assigned to '{name}' in "
                    f"{self.fn.qual}() is never awaited",
                    "await it, pass it to asyncio.gather/create_task, or "
                    "drop the call",
                )

    def _emit(self, rule: str, severity: Severity, line: int,
              message: str, hint: str) -> None:
        key = (rule, line)
        if key in self.reported:
            return
        self.reported.add(key)
        self.rep.add(rule, severity, message,
                     location=f"{self.ctx.rel}:{line}", hint=hint)

    # -- transfer ---------------------------------------------------------

    def _transfer(self, st: _State, block: _Block, report: bool) -> None:
        for kind, stmt in block.items:
            if kind == "head":
                self._head(st, stmt, report)
            else:
                self._stmt(st, stmt, report)

    def _head(self, st: _State, stmt: ast.stmt, report: bool) -> None:
        if isinstance(stmt, (ast.If, ast.While)):
            self._eval(st, stmt.test, report)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            val = self._eval(st, stmt.iter, report)
            if report and val.is_set and _body_has_order_sink(stmt):
                self._emit(
                    "FLOW-DICTORD", "warning", stmt.lineno,
                    f"iteration over an unordered set feeds an "
                    f"order-sensitive sink in {self.fn.qual}()",
                    "wrap the iterable in sorted(...) to pin the order",
                )
            for name in _target_names(stmt.target):
                self._kill(st, name)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._eval(st, item.context_expr, report)
                if item.optional_vars is not None:
                    for name in _target_names(item.optional_vars):
                        self._kill(st, name)

    def _stmt(self, st: _State, stmt: ast.stmt, report: bool) -> None:
        if isinstance(stmt, ast.Assign):
            val = self._eval(st, stmt.value, report)
            for tgt in stmt.targets:
                self._assign(st, tgt, val, report)
        elif isinstance(stmt, ast.AnnAssign):
            val = _Val()
            if stmt.value is not None:
                val = self._eval(st, stmt.value, report)
            self._assign(st, stmt.target, val, report)
        elif isinstance(stmt, ast.AugAssign):
            self._eval(st, stmt.value, report)
        elif isinstance(stmt, ast.Expr):
            val = self._eval(st, stmt.value, report, stmt_expr=True)
            if report and val.coro_line is not None:
                self._emit(
                    "FLOW-AWAIT", "error", val.coro_line,
                    f"coroutine call in {self.fn.qual}() is discarded "
                    "without being awaited",
                    "await it or schedule it with asyncio.create_task",
                )
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._eval(st, stmt.value, report)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            self._kill(st, stmt.name)
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._eval(st, child, report)

    def _assign(self, st: _State, tgt: ast.expr, val: _Val,
                report: bool) -> None:
        if isinstance(tgt, ast.Name):
            name = tgt.id
            self.locals.add(name)
            old = st.coros.get(name)
            if report and old is not None and val.coro_line != old:
                self._emit(
                    "FLOW-AWAIT", "error", old,
                    f"coroutine held by '{name}' in {self.fn.qual}() is "
                    "overwritten before being awaited",
                    "await the first coroutine before rebinding the name",
                )
            self._kill(st, name)
            if val.is_set:
                st.sets.add(name)
            if val.coro_line is not None:
                st.coros[name] = val.coro_line
            if val.is_future:
                st.futs.add(name)
            if val.i32 is not None:
                st.i32[name] = val.i32
        elif isinstance(tgt, (ast.Tuple, ast.List)):
            for elt in tgt.elts:
                self._assign(st, elt, _Val(), report)
        else:
            self._eval(st, tgt, report)

    def _kill(self, st: _State, name: str) -> None:
        st.sets.discard(name)
        st.coros.pop(name, None)
        st.futs.discard(name)
        st.i32.pop(name, None)

    # -- expressions ------------------------------------------------------

    def _eval(self, st: _State, expr: ast.expr, report: bool,
              stmt_expr: bool = False, under_await: bool = False) -> _Val:
        if isinstance(expr, ast.Name):
            val = _Val(
                is_set=expr.id in st.sets,
                i32=st.i32.get(expr.id),
                is_future=expr.id in st.futs,
            )
            # Any use of a pending-coroutine name consumes it (await,
            # gather arg, return, container append — all escape).
            st.coros.pop(expr.id, None)
            return val
        if isinstance(expr, ast.Await):
            return self._eval(st, expr.value, report, under_await=True)
        if isinstance(expr, ast.Call):
            return self._call(st, expr, report, stmt_expr, under_await)
        if isinstance(expr, (ast.Set, ast.SetComp)):
            for child in ast.iter_child_nodes(expr):
                if isinstance(child, ast.expr):
                    self._eval(st, child, report)
                elif isinstance(child, ast.comprehension):
                    self._eval(st, child.iter, report)
            return _Val(is_set=True)
        if isinstance(expr, ast.BinOp):
            left = self._eval(st, expr.left, report)
            right = self._eval(st, expr.right, report)
            if isinstance(expr.op, (ast.BitOr, ast.BitAnd, ast.Sub,
                                    ast.BitXor)) and (left.is_set or
                                                      right.is_set):
                return _Val(is_set=True)
            if self.ctx.npovf and isinstance(expr.op, ast.Mult):
                self._npovf_mult(expr, left, right, report)
            if left.i32 == "wide" or right.i32 == "wide":
                return _Val(i32="wide")
            if left.i32 == "i32" or right.i32 == "i32":
                return _Val(i32="i32")
            return _Val()
        if isinstance(expr, ast.Subscript):
            base = self._eval(st, expr.value, report)
            self._eval(st, expr.slice, report)
            return _Val(i32=base.i32)
        if isinstance(expr, ast.Attribute):
            self._eval(st, expr.value, report)
            if self.ctx.npovf and expr.attr in _I32_FIELDS:
                return _Val(i32="i32")
            return _Val()
        if isinstance(expr, ast.Lambda):
            return _Val()
        val = _Val()
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self._eval(st, child, report)
            elif isinstance(child, ast.comprehension):
                self._eval(st, child.iter, report)
        return val

    def _call(self, st: _State, call: ast.Call, report: bool,
              stmt_expr: bool, under_await: bool) -> _Val:
        d = _dotted(call.func)

        # FLOW-BLOCK: direct blocking primitive, or a same-module sync
        # helper whose summary is blocking.
        if self.fn.is_async:
            desc = _blocking_call(call, futs=frozenset(st.futs))
            if desc is None:
                callee = self.ctx.resolve_call(self.fn, call.func)
                if callee is not None and not callee.is_async \
                        and callee.blocking is not None:
                    desc = f"{callee.blocking} via {callee.qual}()"
            if report and desc is not None:
                self._emit(
                    "FLOW-BLOCK", "error", call.lineno,
                    f"blocking call ({desc}) on the event loop in "
                    f"async {self.fn.qual}()",
                    "move it behind loop.run_in_executor / a dedicated "
                    "I/O executor",
                )

        # Evaluate the callee object and the arguments.
        if isinstance(call.func, ast.Attribute):
            self._eval(st, call.func.value, report)
        for arg in call.args:
            node = arg.value if isinstance(arg, ast.Starred) else arg
            self._eval(st, node, report)
        for kw in call.keywords:
            self._eval(st, kw.value, report)

        if d is not None:
            name = d[-1]
            if len(d) == 1 and name in ("set", "frozenset"):
                return _Val(is_set=True)
            if name in ("union", "intersection", "difference",
                        "symmetric_difference"):
                base_d = _dotted(call.func)
                if base_d and len(base_d) >= 2 and base_d[0] in st.sets:
                    return _Val(is_set=True)
            if len(d) == 1 and name in ("sorted", "len", "sum", "min",
                                        "max"):
                return _Val()
            if len(d) == 1 and name in ("list", "tuple"):
                # list(s)/tuple(s) freeze the *set* order — still tainted.
                if call.args:
                    inner = self._peek_set(st, call.args[0])
                    return _Val(is_set=inner)
                return _Val()
            if name in ("submit", "run_in_executor") and not under_await:
                return _Val(is_future=True)
            if name == "astype" and call.args:
                if _is_wide_dtype(call.args[0]):
                    return _Val(i32="wide")
                if _is_narrow_dtype(call.args[0]):
                    return _Val(i32="i32")
                return _Val()
            if len(d) == 2 and d[0] in ("np", "numpy"):
                if name in ("int64", "uint64"):
                    return _Val(i32="wide")
                if name in ("int32", "uint32"):
                    return _Val(i32="i32")
                if name in _NP_CTORS:
                    for kw in call.keywords:
                        if kw.arg == "dtype":
                            if _is_narrow_dtype(kw.value):
                                return _Val(i32="i32")
                            if _is_wide_dtype(kw.value):
                                return _Val(i32="wide")
                    return _Val()
                if name in _NP_PRESERVING and call.args:
                    inner = self._eval(st, call.args[0], report=False)
                    return _Val(i32=inner.i32)

        # Same-module coroutine construction (FLOW-AWAIT material).
        callee = self.ctx.resolve_call(self.fn, call.func)
        if callee is not None and callee.is_async and not under_await:
            return _Val(coro_line=call.lineno)
        return _Val()

    def _peek_set(self, st: _State, expr: ast.expr) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in st.sets
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        return False

    def _npovf_mult(self, expr: ast.BinOp, left: _Val, right: _Val,
                    report: bool) -> None:
        if not report:
            return
        if "wide" in (left.i32, right.i32):
            return
        if "i32" not in (left.i32, right.i32):
            return
        # A small constant factor cannot overflow an int32 task id.
        for operand in (expr.left, expr.right):
            if isinstance(operand, ast.Constant) and \
                    isinstance(operand.value, (int, float)) and \
                    abs(operand.value) <= 64:
                return
        self._emit(
            "FLOW-NPOVF", "error", expr.lineno,
            f"int32 index arithmetic in {self.fn.qual}() can overflow "
            "at N=1000 paper scale",
            "widen with .astype(np.int64) before multiplying",
        )


def _all_args(fn: _AnyFunc) -> list[ast.arg]:
    a = fn.args
    out = list(a.posonlyargs) + list(a.args) + list(a.kwonlyargs)
    if a.vararg:
        out.append(a.vararg)
    if a.kwarg:
        out.append(a.kwarg)
    return out


def _target_names(tgt: ast.expr) -> list[str]:
    if isinstance(tgt, ast.Name):
        return [tgt.id]
    if isinstance(tgt, (ast.Tuple, ast.List)):
        out: list[str] = []
        for elt in tgt.elts:
            out.extend(_target_names(elt))
        return out
    return []


def _body_has_order_sink(loop: Union[ast.For, ast.AsyncFor]) -> bool:
    stack: list[ast.AST] = list(loop.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        if isinstance(node, ast.Call):
            d = _dotted(node.func)
            if d is not None and d[-1] in _ORDER_SINKS:
                return True
        stack.extend(ast.iter_child_nodes(node))
    return False


# ---------------------------------------------------------------------------
# FLOW-SHARED: loop-side vs worker-side mutation of shared state
# ---------------------------------------------------------------------------

class _Mutation:
    __slots__ = ("name", "lineno", "locked")

    def __init__(self, name: str, lineno: int, locked: bool) -> None:
        self.name = name
        self.lineno = lineno
        self.locked = locked


def _fn_mutations(ctx: _ModuleCtx, fn: _FnInfo) -> list[_Mutation]:
    """Module-global (or nonlocal) names this function mutates."""
    globals_decl: set[str] = set()
    nonlocals_decl: set[str] = set()
    local_binds = {a.arg for a in _all_args(fn.node)}
    for node in _walk_no_defs(fn.node):
        if isinstance(node, ast.Global):
            globals_decl.update(node.names)
        elif isinstance(node, ast.Nonlocal):
            nonlocals_decl.update(node.names)
        elif isinstance(node, ast.Assign):
            for tgt in node.targets:
                local_binds.update(_target_names(tgt))

    shared = (ctx.module_globals - (local_binds - globals_decl)) \
        | globals_decl | nonlocals_decl
    out: list[_Mutation] = []

    def visit(stmts: Sequence[ast.stmt], lock_depth: int) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                depth = lock_depth
                for item in stmt.items:
                    d = _dotted(item.context_expr)
                    if d is not None and d[0] in ctx.module_locks:
                        depth += 1
                visit(stmt.body, depth)
                continue
            locked = lock_depth > 0
            if isinstance(stmt, (ast.Assign, ast.AugAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) \
                    else [stmt.target]
                for tgt in targets:
                    if isinstance(tgt, ast.Name) and tgt.id in (
                            globals_decl | nonlocals_decl):
                        out.append(_Mutation(tgt.id, stmt.lineno, locked))
                    elif isinstance(tgt, ast.Subscript):
                        d = _dotted(tgt.value)
                        if d is not None and d[0] in shared:
                            out.append(_Mutation(d[0], stmt.lineno, locked))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) and \
                        isinstance(node.func, ast.Attribute) and \
                        node.func.attr in _MUTATING_METHODS:
                    d = _dotted(node.func.value)
                    if d is not None and d[0] in shared and \
                            d[0] not in local_binds:
                        out.append(_Mutation(d[0], node.lineno, locked))
            for sub in ast.iter_child_nodes(stmt):
                if isinstance(sub, ast.stmt):
                    pass  # handled by the explicit cases above
            if isinstance(stmt, (ast.If, ast.For, ast.AsyncFor, ast.While)):
                visit(stmt.body, lock_depth)
                visit(stmt.orelse, lock_depth)
            elif isinstance(stmt, ast.Try):
                visit(stmt.body, lock_depth)
                for handler in stmt.handlers:
                    visit(handler.body, lock_depth)
                visit(stmt.orelse, lock_depth)
                visit(stmt.finalbody, lock_depth)

    visit(fn.node.body, 0)
    return out


def _worker_entries(ctx: _ModuleCtx, tree: ast.Module) -> set[str]:
    """Functions handed to executors/threads (run off the event loop)."""
    entries: set[str] = set()

    def resolve(expr: ast.expr, cls: Optional[str]) -> None:
        d = _dotted(expr)
        if d is None:
            return
        if len(d) == 1:
            for info in ctx.by_bare.get(d[0], []):
                entries.add(info.qual)
        elif len(d) == 2 and d[0] == "self" and cls is not None:
            info = ctx.by_method.get((cls, d[1]))
            if info is not None:
                entries.add(info.qual)

    def walk(node: ast.AST, cls: Optional[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, child.name)
                continue
            if isinstance(child, ast.Call):
                d = _dotted(child.func)
                if d is not None:
                    if d[-1] == "run_in_executor" and len(child.args) >= 2:
                        resolve(child.args[1], cls)
                    elif d[-1] in ("submit", "apply_async") and child.args:
                        resolve(child.args[0], cls)
                    elif d[-1] in ("Thread", "Process"):
                        for kw in child.keywords:
                            if kw.arg == "target":
                                resolve(kw.value, cls)
            walk(child, cls)

    walk(tree, None)
    return entries


def _transitive(ctx: _ModuleCtx, roots: set[str]) -> set[str]:
    """Close a set of function quals under same-module sync calls."""
    by_qual = {fn.qual: fn for fn in ctx.functions}
    seen = set(roots)
    work = [q for q in roots if q in by_qual]
    while work:
        fn = by_qual.get(work.pop())
        if fn is None:
            continue
        for node in _walk_no_defs(fn.node):
            if isinstance(node, ast.Call):
                callee = ctx.resolve_call(fn, node.func)
                if callee is not None and not callee.is_async and \
                        callee.qual not in seen:
                    seen.add(callee.qual)
                    work.append(callee.qual)
    return seen


def _check_shared(ctx: _ModuleCtx, tree: ast.Module, rep: Report) -> None:
    worker_roots = _worker_entries(ctx, tree)
    loop_roots = {fn.qual for fn in ctx.functions if fn.is_async}
    if not worker_roots or not loop_roots:
        return
    worker_side = _transitive(ctx, worker_roots)
    loop_side = _transitive(ctx, loop_roots)

    mutations: dict[str, list[tuple[str, _Mutation]]] = {}
    for fn in ctx.functions:
        side = ""
        if fn.qual in worker_side:
            side += "w"
        if fn.qual in loop_side or fn.is_async:
            side += "l"
        if not side:
            continue
        for mut in _fn_mutations(ctx, fn):
            mutations.setdefault(mut.name, []).append((side, mut))

    for name, muts in sorted(mutations.items()):
        sides = set("".join(side for side, _ in muts))
        if not {"w", "l"} <= sides:
            continue
        if all(mut.locked for _, mut in muts):
            continue
        first = min((mut for _, mut in muts), key=lambda m: m.lineno)
        rep.add(
            "FLOW-SHARED", "error",
            f"'{name}' is mutated from both the event loop and pool "
            "workers without a shared lock",
            location=f"{ctx.rel}:{first.lineno}",
            hint="guard every mutation with one module-level lock, or "
                 "confine the state to one side",
        )


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def flow_module(text: str, rel: str, rep: Optional[Report] = None) -> Report:
    """Run the dataflow pass over one module's source text."""
    rep = rep if rep is not None else Report()
    try:
        tree = ast.parse(text)
    except SyntaxError as exc:
        rep.add("ANA-PARSE", "error", f"file does not parse: {exc.msg}",
                location=f"{rel}:{exc.lineno or 0}",
                hint="fix the syntax error")
        return rep
    ctx = _ModuleCtx(tree, rel)
    for fn in ctx.functions:
        _FnAnalysis(ctx, fn, rep).run()
    _check_shared(ctx, tree, rep)
    return rep


def flow_sources(src_root: Union[str, Path] = "src",
                 rep: Optional[Report] = None) -> Report:
    """Run the dataflow pass over every ``*.py`` file under ``src_root``."""
    rep = rep if rep is not None else Report()
    root = Path(src_root)
    files = sorted(p for p in root.rglob("*.py") if "__pycache__" not in p.parts)
    for path in files:
        rel = path.relative_to(root).as_posix()
        flow_module(path.read_text(encoding="utf-8"), rel, rep)
    rep.note_pass("flow", len(files))
    return rep

"""A direct AST interpreter for checked Skil programs — the oracle side
of the fuzzer's differential test.

The compiler pipeline lowers polymorphic higher-order Skil through
translation by instantiation into first-order Python; this interpreter
instead evaluates the **checked AST** directly, with real closures for
curried partial applications and plain (sequential, single global
array) semantics for the skeletons.  Agreement between the two is the
property the fuzzer checks: instantiation must not change meaning.

Scope: the interpreter covers the language subset the fuzzer generates
(scalar arithmetic, conditionals, loops, HOFs, currying, operator
sections, struct records as field dicts, the data-parallel skeletons on
global numpy arrays).  Kernel arguments are applied per element in
row-major order, which matches the distributed skeletons exactly for
elementwise operations and up to reassociation for reductions — hence
the fuzzer restricts fold/scan combiners to exact
associative-commutative operators on integers, and compares floating
point with a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.lang import ast as A
from repro.lang import runtime as _rt
from repro.lang.typecheck import CheckedProgram
from repro.lang.types import TFun, TPardata, TPrim, TStruct

__all__ = ["Interp", "InterpArray", "InterpUnsupported"]


class InterpUnsupported(Exception):
    """The program uses a construct outside the interpreter's subset."""


class _ReturnSignal(Exception):
    def __init__(self, value):
        self.value = value


@dataclass
class InterpArray:
    """Sequential stand-in for a distributed array: one global ndarray."""

    data: np.ndarray
    alive: bool = True


class _UserFn:
    __slots__ = ("fdef",)

    def __init__(self, fdef: A.FuncDef):
        self.fdef = fdef


class _Partial:
    __slots__ = ("fn", "args")

    def __init__(self, fn, args: tuple):
        self.fn = fn
        self.args = args


class _SectionVal:
    __slots__ = ("op",)

    def __init__(self, op: str):
        self.op = op


_CMP = {"<", ">", "<=", ">=", "==", "!="}


def _apply_op(op: str, x, y):
    both_int = isinstance(x, (int, np.integer)) and isinstance(
        y, (int, np.integer)
    )
    if op == "+":
        return x + y
    if op == "-":
        return x - y
    if op == "*":
        return x * y
    if op == "/":
        return _rt.c_div(x, y) if both_int else x / y
    if op == "%":
        return _rt.c_mod(x, y) if both_int else np.fmod(x, y)
    if op == "<":
        return x < y
    if op == ">":
        return x > y
    if op == "<=":
        return x <= y
    if op == ">=":
        return x >= y
    if op == "==":
        return x == y
    if op == "!=":
        return x != y
    if op == "<<":
        return int(x) << int(y)
    if op == ">>":
        return int(x) >> int(y)
    if op == "&":
        return int(x) & int(y)
    if op == "|":
        return int(x) | int(y)
    if op == "^":
        return int(x) ^ int(y)
    if op == "min":
        return x if x <= y else y
    if op == "max":
        return x if x >= y else y
    raise InterpUnsupported(f"operator {op!r}")


class Interp:
    """Evaluate a :class:`CheckedProgram` with reference semantics."""

    def __init__(self, checked: CheckedProgram, externals: dict | None = None):
        self.checked = checked
        self.functions = checked.functions
        self.externals = dict(externals or {})

    # ------------------------------------------------------------------ entry
    def run(self, entry: str, *args) -> Any:
        f = self.functions.get(entry)
        if f is None:
            raise InterpUnsupported(f"no function {entry!r}")
        return self._invoke(f, list(args))

    # ------------------------------------------------------------------ calls
    def _invoke(self, fdef: A.FuncDef, args: list):
        if len(args) != len(fdef.params):
            raise InterpUnsupported(
                f"{fdef.name}: {len(args)} args for {len(fdef.params)} params"
            )
        env = {p.name: v for p, v in zip(fdef.params, args)}
        try:
            self._exec(fdef.body, env)
        except _ReturnSignal as r:
            return r.value
        return None

    def apply(self, fv, args: tuple):
        """Apply a function value, currying when under-applied."""
        if isinstance(fv, _Partial):
            return self.apply(fv.fn, fv.args + args)
        if isinstance(fv, _UserFn):
            arity = len(fv.fdef.params)
            if len(args) < arity:
                return _Partial(fv, tuple(args))
            head, rest = args[:arity], args[arity:]
            out = self._invoke(fv.fdef, list(head))
            return self.apply(out, tuple(rest)) if rest else out
        if isinstance(fv, _SectionVal):
            if len(args) == 1:
                return _Partial(fv, tuple(args))
            if len(args) == 2:
                return _apply_op(fv.op, args[0], args[1])
            raise InterpUnsupported(
                f"section ({fv.op}) applied to {len(args)} arguments"
            )
        if callable(fv):
            return fv(*args)
        raise InterpUnsupported(f"cannot apply value {fv!r}")

    # ------------------------------------------------------------------ stmts
    def _exec(self, s: A.Stmt, env: dict) -> None:
        if isinstance(s, A.Block):
            for x in s.stmts:
                self._exec(x, env)
        elif isinstance(s, A.VarDecl):
            env[s.name] = (
                self._eval(s.init, env) if s.init is not None else self._zero(s.ty)
            )
        elif isinstance(s, A.If):
            if self._truth(self._eval(s.cond, env)):
                self._exec(s.then, env)
            elif s.orelse is not None:
                self._exec(s.orelse, env)
        elif isinstance(s, A.While):
            guard = 0
            while self._truth(self._eval(s.cond, env)):
                self._exec(s.body, env)
                guard += 1
                if guard > 1_000_000:
                    raise InterpUnsupported("runaway while loop")
        elif isinstance(s, A.For):
            if s.init is not None:
                self._exec(s.init, env)
            guard = 0
            while s.cond is None or self._truth(self._eval(s.cond, env)):
                self._exec(s.body, env)
                if s.step is not None:
                    self._eval(s.step, env)
                guard += 1
                if guard > 1_000_000:
                    raise InterpUnsupported("runaway for loop")
        elif isinstance(s, A.Return):
            raise _ReturnSignal(
                self._eval(s.value, env) if s.value is not None else None
            )
        elif isinstance(s, A.ExprStmt):
            self._eval(s.expr, env)
        else:
            raise InterpUnsupported(f"statement {type(s).__name__}")

    def _zero(self, t):
        """A declared-but-uninitialised local: a zeroed record (a fresh
        field dict, as the runtime's ``new_struct``) or nothing."""
        t = self.checked.resolved(t)
        if not isinstance(t, TStruct):
            return None
        return {
            f: 0 if isinstance(ft, TPrim) and ft.name in ("int", "unsigned", "char")
            else 0.0
            for f, ft in t.fields
        }

    @staticmethod
    def _truth(v) -> bool:
        return bool(v)

    # ------------------------------------------------------------------ exprs
    def _eval(self, e: A.Expr, env: dict):
        if isinstance(e, A.IntLit):
            return e.value
        if isinstance(e, A.FloatLit):
            return e.value
        if isinstance(e, A.StringLit):
            return e.value
        if isinstance(e, A.CharLit):
            return ord(e.value)
        if isinstance(e, A.Ident):
            return self._ident(e.name, env)
        if isinstance(e, A.OperatorSection):
            return _SectionVal(e.op)
        if isinstance(e, A.BraceList):
            return tuple(self._eval(x, env) for x in e.items)
        if isinstance(e, A.Cond):
            if self._truth(self._eval(e.cond, env)):
                return self._eval(e.then, env)
            return self._eval(e.orelse, env)
        if isinstance(e, A.Cast):
            v = self._eval(e.operand, env)
            t = e.target
            if isinstance(t, TPrim) and t.name in ("int", "unsigned", "char"):
                return int(v)
            if isinstance(t, TPrim) and t.name in ("float", "double"):
                return float(v)
            raise InterpUnsupported(f"cast to {t!r}")
        if isinstance(e, A.UnOp):
            v = self._eval(e.operand, env)
            if e.op == "-":
                return -v
            if e.op == "+":
                return v
            if e.op == "!":
                return int(not self._truth(v))
            if e.op == "~":
                return ~int(v)
            raise InterpUnsupported(f"unary {e.op!r}")
        if isinstance(e, A.BinOp):
            if e.op == "&&":
                return (
                    int(self._truth(self._eval(e.right, env)))
                    if self._truth(self._eval(e.left, env))
                    else 0
                )
            if e.op == "||":
                return (
                    1
                    if self._truth(self._eval(e.left, env))
                    else int(self._truth(self._eval(e.right, env)))
                )
            return _apply_op(
                e.op, self._eval(e.left, env), self._eval(e.right, env)
            )
        if isinstance(e, A.Assign):
            return self._assign(e, env)
        if isinstance(e, A.IndexExpr):
            base = self._eval(e.base, env)
            ix = int(self._eval(e.index, env))
            if isinstance(base, (tuple, list, np.ndarray)):
                return base[ix]
            raise InterpUnsupported("indexing a non-Index value")
        if isinstance(e, A.Call):
            return self._call(e, env)
        if isinstance(e, A.Member):
            base = self._eval(e.base, env)
            try:
                return base[e.name]
            except Exception:
                raise InterpUnsupported(
                    f"member access .{e.name} on {type(base).__name__}"
                ) from None
        raise InterpUnsupported(f"expression {type(e).__name__}")

    def _assign(self, e: A.Assign, env: dict):
        v = self._eval(e.value, env)
        if isinstance(e.target, A.Member) and e.op == "=":
            record = self._eval(e.target.base, env)
            if not isinstance(record, dict):
                raise InterpUnsupported("field store on a non-record")
            record[e.target.name] = v
            return v
        if not isinstance(e.target, A.Ident):
            raise InterpUnsupported("assignment to a non-identifier")
        name = e.target.name
        if e.op != "=":
            cur = self._ident(name, env)
            v = _apply_op(e.op[:-1], cur, v)
        env[name] = v
        return v

    def _ident(self, name: str, env: dict):
        if name in env:
            return env[name]
        if name in self.functions:
            return _UserFn(self.functions[name])
        if name in self.externals:
            return self.externals[name]
        if name in ("min", "max"):
            return _SectionVal(name)
        consts = {
            "INT_MAX": _rt.INT_MAX,
            "UINT_MAX": _rt.UINT_MAX,
            "FLT_MAX": _rt.FLT_MAX,
            "DISTR_DEFAULT": "DISTR_DEFAULT",
            "DISTR_RING": "DISTR_RING",
            "DISTR_TORUS2D": "DISTR_TORUS2D",
        }
        if name in consts:
            return consts[name]
        if name in self._BUILTINS:
            return _BoundBuiltin(self, name)
        raise InterpUnsupported(f"unknown identifier {name!r}")

    # ------------------------------------------------------------------ calls
    def _call(self, e: A.Call, env: dict):
        if isinstance(e.func, A.Ident) and e.func.name in self._BUILTINS:
            args = [self._eval(a, env) for a in e.args]
            return self._BUILTINS[e.func.name](self, args, e)
        fv = self._eval(e.func, env)
        args = tuple(self._eval(a, env) for a in e.args)
        return self.apply(fv, args)

    # ------------------------------------------------------------------ skeletons
    def _elem_dtype(self, call: A.Call) -> np.dtype:
        """numpy dtype of the array a skeleton call creates."""
        t = self.checked.resolved(call.ty)
        if isinstance(t, TPardata) and t.name == "array" and t.args:
            el = t.args[0]
            if isinstance(el, TPrim):
                return _rt.dtype_of(el.name)
        raise InterpUnsupported(f"cannot derive element dtype from {t!r}")

    def _bi_array_create(self, args, call):
        dim, size, _blocksize, _lowerbd, init_f, _distr = args
        shape = tuple(int(s) for s in (size if isinstance(size, tuple) else (size,)))
        if len(shape) != int(dim):
            raise InterpUnsupported("array_create: size/dim mismatch")
        data = np.zeros(shape, dtype=self._elem_dtype(call))
        for ix in np.ndindex(*shape):
            data[ix] = self.apply(init_f, (ix,))
        return InterpArray(data)

    def _bi_array_destroy(self, args, call):
        args[0].alive = False
        return None

    def _bi_array_map(self, args, call):
        f, src, dst = args
        self._check_alive(src, dst)
        out = np.empty_like(dst.data)
        for ix in np.ndindex(*src.data.shape):
            out[ix] = self.apply(f, (src.data[ix].item(), ix))
        dst.data[...] = out
        return None

    def _bi_array_zip(self, args, call):
        f, a, b, dst = args
        self._check_alive(a, b, dst)
        out = np.empty_like(dst.data)
        for ix in np.ndindex(*a.data.shape):
            out[ix] = self.apply(f, (a.data[ix].item(), b.data[ix].item(), ix))
        dst.data[...] = out
        return None

    def _bi_array_fold(self, args, call):
        conv_f, fold_f, a = args
        self._check_alive(a)
        acc = None
        for ix in np.ndindex(*a.data.shape):
            v = self.apply(conv_f, (a.data[ix].item(), ix))
            acc = v if acc is None else self.apply(fold_f, (acc, v))
        return acc

    def _bi_array_scan(self, args, call):
        op, a, dst = args
        self._check_alive(a, dst)
        out = np.empty_like(dst.data)
        acc = None
        for i in range(a.data.shape[0]):
            v = a.data[i].item()
            acc = v if acc is None else self.apply(op, (acc, v))
            out[i] = acc
        dst.data[...] = out
        return None

    def _bi_array_copy(self, args, call):
        src, dst = args
        self._check_alive(src, dst)
        dst.data[...] = src.data
        return None

    def _bi_array_get_elem(self, args, call):
        a, ix = args
        self._check_alive(a)
        return a.data[tuple(int(i) for i in ix)].item()

    def _bi_array_put_elem(self, args, call):
        a, ix, value = args
        self._check_alive(a)
        a.data[tuple(int(i) for i in ix)] = value
        return None

    @staticmethod
    def _check_alive(*arrays) -> None:
        for a in arrays:
            if not isinstance(a, InterpArray):
                raise InterpUnsupported("skeleton argument is not an array")
            if not a.alive:
                raise InterpUnsupported("use of a destroyed array")

    def _bi_log2(self, args, call):
        return _rt.log2(args[0])

    def _bi_sqrt(self, args, call):
        return _rt.sqrt(args[0])

    def _bi_abs(self, args, call):
        return abs(args[0])

    def _bi_min(self, args, call):
        x, y = args
        return x if x <= y else y

    def _bi_max(self, args, call):
        x, y = args
        return x if x >= y else y

    def _bi_error(self, args, call):
        _rt.error(args[0])

    def _bi_printf(self, args, call):
        return None

    _BUILTINS = {
        "array_create": _bi_array_create,
        "array_destroy": _bi_array_destroy,
        "array_map": _bi_array_map,
        "array_zip": _bi_array_zip,
        "array_fold": _bi_array_fold,
        "array_scan": _bi_array_scan,
        "array_copy": _bi_array_copy,
        "array_get_elem": _bi_array_get_elem,
        "array_put_elem": _bi_array_put_elem,
        "log2": _bi_log2,
        "sqrt": _bi_sqrt,
        "abs": _bi_abs,
        "min": _bi_min,
        "max": _bi_max,
        "error": _bi_error,
        "printf": _bi_printf,
    }


class _BoundBuiltin:
    """A builtin used as a value (e.g. handed to a HOF)."""

    __slots__ = ("interp", "name")

    def __init__(self, interp: Interp, name: str):
        self.interp = interp
        self.name = name

    def __call__(self, *args):
        return Interp._BUILTINS[self.name](self.interp, list(args), None)

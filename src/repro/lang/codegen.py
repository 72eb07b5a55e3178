"""Python code generation from the instantiated first-order program.

The paper's compiler emits C and lets a C compiler finish the job; we
emit Python and let the interpreter finish it.  The generated module is
deliberately readable — it is the analogue of the paper's intermediate
C code ("intermediate codes that differ only little from the
hand-written versions") and the test-suite asserts properties of it,
e.g. that the ``above_thresh`` example really produces an
``array_map``-style instance with the threshold lifted to a parameter.

Conventions of the generated module:

* ``_ctx`` is a module global bound to the executing
  :class:`~repro.skeletons.base.SkilContext` by the runtime;
* ``_rt`` is :mod:`repro.lang.runtime`;
* skeleton calls go through ``_rt.<skeleton>(_ctx, ...)``;
* a :class:`~repro.lang.instantiate.KernelRef` becomes
  ``_rt.make_kernel(<instance>, (<lifted args>), ops=<estimate>)`` — the
  default-argument binding inside ``make_kernel`` is the run-time shape
  of argument lifting;
* the vectorizer pass (:mod:`repro.lang.vectorize`) appends numpy
  versions of kernels in its subset, attached as ``<fn>.vectorized``
  (element kernels) or ``<fn>.selective`` (selective struct folds);
* a :class:`~repro.lang.instantiate.SectionRef` becomes
  ``_rt.section('<op>')``, carrying the numpy-annotated operator object.
"""

from __future__ import annotations

import io

from repro.errors import InstantiationError
from repro.lang import ast as A
from repro.lang.builtins import BUILTIN_FUNCTIONS, BUILTIN_VALUES
from repro.lang.instantiate import InstantiatedProgram, KernelRef, SectionRef
from repro.lang.types import TPardata, TPrim, TStruct, Type

__all__ = ["generate_python"]

_SKELETONS = {
    "array_create",
    "array_destroy",
    "array_map",
    "array_fold",
    "array_copy",
    "array_broadcast_part",
    "array_permute_rows",
    "array_gen_mult",
    "array_gen_mult_square",
    "array_zip",
    "array_scan",
}

_MACROS = {"array_part_bounds", "array_get_elem", "array_put_elem"}

_VALUE_MAP = {
    "procId": "_rt.proc_id()",
    "nProcs": "_ctx.p",
    "DISTR_DEFAULT": '"DISTR_DEFAULT"',
    "DISTR_RING": '"DISTR_RING"',
    "DISTR_TORUS2D": '"DISTR_TORUS2D"',
    "INT_MAX": "_rt.INT_MAX",
    "UINT_MAX": "_rt.UINT_MAX",
    "FLT_MAX": "_rt.FLT_MAX",
}

_INT_PRIMS = {"int", "unsigned", "char"}


class _Emitter:
    def __init__(self, prog: InstantiatedProgram):
        self.prog = prog
        self.buf = io.StringIO()
        self.indent = 0

    def line(self, text: str = "") -> None:
        self.buf.write("    " * self.indent + text + "\n")

    # ------------------------------------------------------------------ top
    def emit(self) -> str:
        self.line('"""Generated by the Skil compiler (repro.lang) — the')
        self.line('Python analogue of the instantiated intermediate C."""')
        self.line("import numpy as _np")
        self.line("import repro.lang.runtime as _rt")
        self.line()
        self.line("_ctx = None  # bound by SkilModule.run()")
        self.line()
        for f in self.prog.all_functions():
            self.function(f)
            self.line()
        self._emit_vectorized_kernels()
        return self.buf.getvalue()

    def _emit_vectorized_kernels(self) -> None:
        """Attach numpy kernels (``.vectorized``) and fold selections
        (``.selective``) produced by the vectorizer pass."""
        from repro.lang.vectorize import try_vectorize

        emitted = []
        for inst in self.prog.instances.values():
            src = try_vectorize(inst, self.prog.checked.resolved)
            if src is not None:
                emitted.append(src)
        if not emitted:
            return
        self.line("# ---- vectorized kernels (compiler optimisation pass) ----")
        for src in emitted:
            for ln in src.rstrip("\n").split("\n"):
                self.line(ln)
            self.line()

    def function(self, f: A.FuncDef) -> None:
        params = ", ".join(p.name for p in f.params)
        self.line(f"def {f.name}({params}):")
        self.indent += 1
        if not f.body.stmts:
            self.line("pass")
        else:
            self.stmt(f.body, top=True)
        self.indent -= 1

    # ------------------------------------------------------------------ stmts
    def stmt(self, s: A.Stmt, top: bool = False) -> None:
        if isinstance(s, A.Block):
            if not s.stmts and not top:
                self.line("pass")
                return
            for inner in s.stmts:
                self.stmt(inner)
            return
        if isinstance(s, A.VarDecl):
            if s.init is not None:
                self.line(f"{s.name} = {self.expr(s.init)}")
            else:
                self.line(f"{s.name} = {self.default_value(s.ty)}")
            return
        if isinstance(s, A.If):
            self.line(f"if {self.expr(s.cond)}:")
            self.indent += 1
            self.stmt_or_pass(s.then)
            self.indent -= 1
            if s.orelse is not None:
                self.line("else:")
                self.indent += 1
                self.stmt_or_pass(s.orelse)
                self.indent -= 1
            return
        if isinstance(s, A.While):
            self.line(f"while {self.expr(s.cond)}:")
            self.indent += 1
            self.stmt_or_pass(s.body)
            self.indent -= 1
            return
        if isinstance(s, A.For):
            if s.init is not None:
                self.stmt(s.init)
            cond = self.expr(s.cond) if s.cond is not None else "True"
            self.line(f"while {cond}:")
            self.indent += 1
            self.stmt_or_pass(s.body)
            if s.step is not None:
                self.assign_or_expr_stmt(s.step)
            self.indent -= 1
            return
        if isinstance(s, A.Return):
            if s.value is None:
                self.line("return")
            else:
                self.line(f"return {self.expr(s.value)}")
            return
        if isinstance(s, A.ExprStmt):
            self.assign_or_expr_stmt(s.expr)
            return
        raise InstantiationError(f"cannot generate statement {type(s).__name__}")

    def stmt_or_pass(self, s: A.Stmt) -> None:
        if isinstance(s, A.Block) and not s.stmts:
            self.line("pass")
        else:
            self.stmt(s)

    def assign_or_expr_stmt(self, e: A.Expr) -> None:
        if isinstance(e, A.Assign):
            target = self.lvalue(e.target)
            value = self.expr(e.value)
            if e.op == "=":
                self.line(f"{target} = {value}")
            else:
                self.line(f"{target} {e.op} {value}")
            return
        self.line(self.expr(e))

    def lvalue(self, e: A.Expr) -> str:
        if isinstance(e, A.Ident):
            return e.name
        if isinstance(e, A.Member) and not isinstance(
            self._base_type(e), TPrim
        ):
            return f"{self.expr(e.base)}[{e.name!r}]"
        if isinstance(e, A.IndexExpr):
            return f"{self.expr(e.base)}[{self.expr(e.index)}]"
        raise InstantiationError(f"unsupported assignment target {type(e).__name__}")

    def _base_type(self, e: A.Member) -> Type | None:
        return e.base.ty

    # ------------------------------------------------------------------ exprs
    def expr(self, e: A.Expr) -> str:
        if isinstance(e, A.IntLit):
            return repr(e.value)
        if isinstance(e, A.FloatLit):
            return repr(e.value)
        if isinstance(e, A.StringLit):
            return repr(e.value)
        if isinstance(e, A.CharLit):
            return repr(ord(e.value) if e.value else 0)
        if isinstance(e, A.Ident):
            if e.name in _VALUE_MAP:
                return _VALUE_MAP[e.name]
            return e.name
        if isinstance(e, KernelRef):
            bound = ", ".join(self.expr(b) for b in e.bound)
            target = e.name if e.name not in ("min", "max") else f"_rt.{e.name}_fn"
            return f"_rt.make_kernel({target}, ({bound}{',' if e.bound else ''}), ops={e.ops_estimate})"
        if isinstance(e, SectionRef):
            return f"_rt.section({e.op!r})"
        if isinstance(e, A.Call):
            return self.call(e)
        if isinstance(e, A.BinOp):
            if e.op == "/" and self._is_int(e.ty):
                return f"_rt.c_div({self.expr(e.left)}, {self.expr(e.right)})"
            if e.op == "%" and self._is_int(e.ty):
                return f"_rt.c_mod({self.expr(e.left)}, {self.expr(e.right)})"
            op = {"&&": "and", "||": "or"}.get(e.op, e.op)
            if e.op in ("+", "*", "&&", "||"):
                # flatten left-leaning associative chains so long
                # expressions do not exceed Python's paren-nesting limit
                operands: list[str] = [self.expr(e.right)]
                node = e.left
                while isinstance(node, A.BinOp) and node.op == e.op and not (
                    node.op in ("/", "%")
                ):
                    operands.append(self.expr(node.right))
                    node = node.left
                operands.append(self.expr(node))
                return "(" + f" {op} ".join(reversed(operands)) + ")"
            return f"({self.expr(e.left)} {op} {self.expr(e.right)})"
        if isinstance(e, A.UnOp):
            inner = self.expr(e.operand)
            if e.op == "!":
                return f"(not {inner})"
            if e.op == "~":
                return f"(~{inner})"
            return f"(-{inner})"
        if isinstance(e, A.Assign):
            raise InstantiationError(
                f"line {e.line}: assignment used as a value — restructure "
                "into a statement (Python back end limitation)"
            )
        if isinstance(e, A.IndexExpr):
            return f"{self.expr(e.base)}[{self.expr(e.index)}]"
        if isinstance(e, A.Member):
            base = self.expr(e.base)
            bt = e.base.ty
            if isinstance(bt, TPrim) and bt.name == "Bounds":
                return f"_rt.bounds_member({base}, {e.name!r})"
            return f"{base}[{e.name!r}]"
        if isinstance(e, A.Cond):
            return (
                f"({self.expr(e.then)} if {self.expr(e.cond)} "
                f"else {self.expr(e.orelse)})"
            )
        if isinstance(e, A.BraceList):
            items = ", ".join(self.expr(x) for x in e.items)
            comma = "," if len(e.items) == 1 else ""
            return f"({items}{comma})"
        if isinstance(e, A.Cast):
            return f"_rt.cast({e.target.show()!r}, {self.expr(e.operand)})"
        if isinstance(e, A.OperatorSection):
            return f"_rt.section({e.op!r})"
        raise InstantiationError(f"cannot generate expression {type(e).__name__}")

    def call(self, e: A.Call) -> str:
        if not isinstance(e.func, A.Ident):
            raise InstantiationError(
                f"line {e.line}: unexpected call target after instantiation"
            )
        name = e.func.name
        args = [self.expr(a) for a in e.args]
        if name == "array_create":
            dtype = self.dtype_of_result(e)
            return f"_rt.array_create(_ctx, {', '.join(args)}, dtype={dtype})"
        if name == "array_create_uninit":
            # only the fusion pass introduces this name (post-typecheck)
            dtype = self.dtype_of_result(e)
            return (
                f"_rt.array_create_uninit(_ctx, {', '.join(args)}, dtype={dtype})"
            )
        if name in _SKELETONS:
            return f"_rt.{name}(_ctx, {', '.join(args)})"
        if name in _MACROS:
            return f"_rt.{name}({', '.join(args)})"
        if name == "error":
            return f"_rt.error({', '.join(args)})"
        if name == "printf":
            return f"_rt.printf({', '.join(args)})"
        if name == "log2":
            return f"_rt.log2({args[0]})"
        if name in ("min", "max", "abs"):
            return f"{name}({', '.join(args)})"
        if name == "sqrt":
            return f"_rt.sqrt({args[0]})"
        if name in BUILTIN_FUNCTIONS and name not in self.prog.instances:
            raise InstantiationError(f"builtin {name!r} not supported by codegen")
        return f"{name}({', '.join(args)})"

    # ------------------------------------------------------------------ types
    def _is_int(self, t: Type | None) -> bool:
        t = self.prog.checked.resolved(t) if t is not None else None
        return isinstance(t, TPrim) and t.name in _INT_PRIMS

    def dtype_of_result(self, e: A.Call) -> str:
        t = self.prog.checked.resolved(e.ty)
        if isinstance(t, TPardata) and t.args:
            return self.dtype_expr(t.args[0])
        return "_rt.dtype_of('double')"

    def dtype_expr(self, t: Type) -> str:
        t = self.prog.checked.resolved(t)
        if isinstance(t, TPrim):
            return f"_rt.dtype_of({t.name!r})"
        if isinstance(t, TStruct):
            return f"_rt.struct_dtype({t.name!r})"
        raise InstantiationError(f"no numpy dtype for element type {t.show()}")

    def default_value(self, t: Type) -> str:
        t = self.prog.checked.resolved(t)
        if isinstance(t, TStruct):
            return f"_rt.new_struct({t.name!r})"
        if isinstance(t, TPrim) and t.name in _INT_PRIMS:
            return "0"
        if isinstance(t, TPrim) and t.name in ("float", "double"):
            return "0.0"
        return "None"


def generate_python(prog: InstantiatedProgram) -> str:
    """Emit the Python module source for an instantiated program."""
    return _Emitter(prog).emit()

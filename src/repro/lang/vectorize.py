"""Kernel vectorizer: compile map/init kernels to numpy.

The paper's back end compiles the instantiated first-order C with an
optimizing C compiler, so per-element kernels run at machine speed.  Our
back end is Python, where a per-element loop is slow *in wall-clock*
(simulated time is charged analytically either way) — this pass closes
that gap by translating kernels in a restricted-but-common subset into
numpy expressions over whole partitions:

* straight-line bodies of local declarations (uniform ones become
  Python scalars, per-element ones whole-block arrays), ``if``/
  ``return`` chains and a final ``return``;
* expressions over the element value, ``ix[...]`` components, lifted
  parameters, numeric literals, ``array_get_elem`` with in-partition
  indices, ``array_part_bounds`` results, ``procId``, ``abs``/``min``/
  ``max``, casts and ``&&``/``||``/``!`` (as ``np.logical_*``: any
  nonzero operand is true, as in C);
* conditions that are *uniform* across the partition (no ``v``/``ix``
  dependence, e.g. ``copy_pivot``'s bounds test) become Python-level
  branches; varying conditions become masked ``np.where`` selections
  (both sides evaluated, so both sides must be total — division guards
  are wrapped in ``errstate``).

Two struct-valued forms attach to the same skeleton hooks:

* a *struct-valued kernel* (``elemrec e; e.val = v; e.row = ix[0];
  return e;``) is straight-line: a struct local declared without an
  initialiser becomes one zeroed structured block (fields the source
  never assigns stay zero, as ``new_struct`` leaves them), each field
  store one whole-block assignment; varying members of struct values
  read as field views;
* a *selective fold function* — every ``return`` hands back one of its
  two struct parameters unchanged, and its conditions read only fields,
  lifted scalars, ``abs``/``min``/``max``, comparisons and
  ``&&``/``||``/``!`` (gauss's ``max_abs_in_col``) — becomes a mask
  ``_sel_<name>(lifted..., x, y)`` that is true where ``x`` is
  returned.  The runtime (:func:`repro.lang.runtime.select_reduce`)
  runs it as an order-preserving pairwise tournament within each
  processor's converted block, all blocks in the same rounds.  The
  winner is always one of the input records, so no rounding changes;
  the tournament re-parenthesizes the per-rank left fold and therefore
  equals it whenever the fold function is associative — the contract
  ``array_fold`` already states (and its tree combine relies on).

A kernel outside the subset simply stays scalar; correctness never
depends on this pass, and the test-suite checks scalar and vectorized
paths agree.
"""

from __future__ import annotations

import io

from repro.lang import ast as A
from repro.lang.instantiate import Instance
from repro.lang.types import TFun, TPardata, TPrim, TStruct, Type

__all__ = ["try_vectorize", "VectorizeFailure"]


class VectorizeFailure(Exception):
    """Internal: kernel is outside the vectorizable subset."""


def try_vectorize(inst: Instance, resolved) -> str | None:
    """Return Python source for ``_vec_<name>`` or ``_sel_<name>``, or None.

    The source ends by attaching the function to the instance
    (``<name>.vectorized`` or ``<name>.selective``).  *resolved* maps a
    ``Type | None`` to its substitution-resolved form (the checker's
    ``CheckedProgram.resolved``).
    """
    try:
        if _is_record_fold(inst, resolved):
            return _Selector(inst, resolved).emit()
        return _Vectorizer(inst, resolved).emit()
    except VectorizeFailure:
        return None


def _is_record_fold(inst: Instance, resolved) -> bool:
    """``S f (lifted..., S x, S y)`` for a struct type ``S``."""
    params = inst.func.params
    if len(params) < 2:
        return False
    ret = resolved(inst.func.ret)
    return isinstance(ret, TStruct) and all(
        resolved(p.ty) == ret for p in params[-2:]
    )


class _Translator:
    """Statement and expression translation shared by both forms."""

    def __init__(self, inst: Instance, resolved):
        self.inst = inst
        self.resolved = resolved
        self.ix_name: str | None = None
        self.elem_names: list[str] = []
        self.array_params: set[str] = set()
        self.scalar_params: set[str] = set()
        self.uniform_locals: dict[str, str] = {}
        self.varying_locals: set[str] = set()
        #: struct locals declared without an initialiser: zeroed blocks
        #: whose fields the straight-line prologue assigns
        self.struct_locals: set[str] = set()
        #: a struct-valued kernel may not select between records per
        #: element (``np.where`` over structured blocks is slow)
        self.struct_result = False
        self.branched = False
        self.prologue: list[str] = []
        # does the emitted code read __env (procId, part_bounds, gather)?
        # env-free kernels may run fused over the whole pooled array —
        # their result per element cannot depend on the executing rank
        self.uses_env = False

    # ------------------------------------------------------------------ stmts
    def _translate_stmts(self, stmts: list[A.Stmt]) -> str:
        if not stmts:
            raise VectorizeFailure("falls off the end without a return")
        s, rest = stmts[0], stmts[1:]
        if isinstance(s, A.Block):
            return self._translate_stmts(list(s.stmts) + rest)
        if isinstance(s, A.VarDecl):
            if s.init is None:
                self._declare_struct(s)
                return self._translate_stmts(rest)
            code, uniform = self._expr(s.init)
            self.prologue.append(f"{s.name} = {code}")
            if uniform:
                self.uniform_locals[s.name] = s.name
            else:
                # a per-element temporary (the fusion pass threads the
                # producer kernel's value through one); it simply becomes
                # a whole-block numpy array bound in the prologue
                self.varying_locals.add(s.name)
            return self._translate_stmts(rest)
        if isinstance(s, A.ExprStmt):
            self._store_field(s.expr)
            return self._translate_stmts(rest)
        if isinstance(s, A.Return):
            if s.value is None:
                raise VectorizeFailure("void return in kernel")
            return self._return_value(s.value)
        if isinstance(s, A.If):
            # everything after a branch runs conditionally; the prologue
            # runs unconditionally, so field stores end here
            self.branched = True
            cond_code, cond_uniform = self._expr(s.cond)
            if not cond_uniform and self.struct_result:
                raise VectorizeFailure("varying selection between records")
            then_expr = self._branch_expr(s.then)
            if s.orelse is not None:
                else_expr = self._branch_expr(s.orelse)
            else:
                else_expr = self._translate_stmts(rest)
            if cond_uniform:
                return f"(({then_expr}) if ({cond_code}) else ({else_expr}))"
            if (then_expr, else_expr) == ("True", "False"):
                return cond_code
            return f"_np.where({cond_code}, {then_expr}, {else_expr})"
        raise VectorizeFailure(f"statement {type(s).__name__} outside the subset")

    def _branch_expr(self, s: A.Stmt) -> str:
        if isinstance(s, A.Block):
            return self._translate_stmts(list(s.stmts))
        return self._translate_stmts([s])

    def _return_value(self, value: A.Expr) -> str:
        return self._expr(value)[0]

    def _declare_struct(self, s: A.VarDecl) -> None:
        raise VectorizeFailure("uninitialised local")

    def _store_field(self, e: A.Expr) -> None:
        raise VectorizeFailure("expression statement outside the subset")

    def _is_int(self, t: Type | None) -> bool:
        t = self.resolved(t) if t is not None else None
        return isinstance(t, TPrim) and t.name in ("int", "unsigned", "char")

    # ------------------------------------------------------------------ exprs
    def _expr(self, e: A.Expr) -> tuple[str, bool]:
        """Translate an expression; returns (code, is_uniform)."""
        if isinstance(e, A.IntLit):
            return repr(e.value), True
        if isinstance(e, A.FloatLit):
            return repr(e.value), True
        if isinstance(e, A.Ident):
            if e.name in self.elem_names:
                return e.name, False
            if e.name == self.ix_name:
                raise VectorizeFailure("whole-Index use outside indexing")
            if e.name in self.varying_locals:
                return e.name, False
            if e.name in self.scalar_params or e.name in self.uniform_locals:
                return e.name, True
            if e.name in self.array_params:
                raise VectorizeFailure("array used outside get_elem/bounds")
            if e.name == "procId":
                self.uses_env = True
                return "__env.rank", True
            if e.name in ("INT_MAX", "UINT_MAX", "FLT_MAX"):
                return f"_rt.{e.name}", True
            raise VectorizeFailure(f"unsupported identifier {e.name!r}")
        if isinstance(e, A.IndexExpr):
            if isinstance(e.base, A.Ident) and e.base.name == self.ix_name:
                d_code, d_uniform = self._expr(e.index)
                if not d_uniform:
                    raise VectorizeFailure("non-uniform Index component")
                return f"__grids[{d_code}]", False
            base_code, base_uniform = self._expr(e.base)
            idx_code, idx_uniform = self._expr(e.index)
            if not (base_uniform and idx_uniform):
                raise VectorizeFailure("varying indexing outside the subset")
            return f"{base_code}[{idx_code}]", True
        if isinstance(e, A.BinOp):
            lc, lu = self._expr(e.left)
            rc, ru = self._expr(e.right)
            uniform = lu and ru
            if e.op in ("&&", "||"):
                if uniform:
                    op = "and" if e.op == "&&" else "or"
                    return f"(({lc}) {op} ({rc}))", True
                # C truth values: any nonzero operand is true (a bitwise
                # & or ~ would get int flags such as 1 && 2 wrong)
                fn = "logical_and" if e.op == "&&" else "logical_or"
                return f"_np.{fn}({lc}, {rc})", False
            if e.op in ("/", "%") and self._is_int(e.ty):
                # C's truncating semantics, same as the scalar code path
                # (numpy's / and % floor instead; the repro.check fuzzer
                # caught the two paths disagreeing on negative operands)
                fn = "_rt.c_div" if e.op == "/" else "_rt.c_mod"
                return f"{fn}({lc}, {rc})", uniform
            return f"({lc} {e.op} {rc})", uniform
        if isinstance(e, A.UnOp):
            c, u = self._expr(e.operand)
            if e.op == "!":
                return (f"(not {c})", True) if u else (f"_np.logical_not({c})", False)
            if e.op == "-":
                return f"(-{c})", u
            raise VectorizeFailure(f"unary {e.op!r} outside the subset")
        if isinstance(e, A.Cond):
            cc, cu = self._expr(e.cond)
            tc, tu = self._expr(e.then)
            ec, eu = self._expr(e.orelse)
            if cu:
                return f"(({tc}) if ({cc}) else ({ec}))", tu and eu
            if isinstance(self.resolved(e.ty), TStruct):
                raise VectorizeFailure("varying selection between records")
            return f"_np.where({cc}, {tc}, {ec})", False
        if isinstance(e, A.Member):
            base_code, base_uniform = self._expr(e.base)
            if isinstance(self.resolved(e.base.ty), TStruct):
                # a field of a struct value: a field view of a structured
                # block (varying) or of a 0-d record (uniform)
                return f"{base_code}[{e.name!r}]", base_uniform
            # Bounds member through a uniform local
            if not base_uniform:
                raise VectorizeFailure("varying member access")
            if e.name in ("lowerBd", "upperBd"):
                return f"{base_code}.{e.name}", True
            raise VectorizeFailure(f"member {e.name!r} outside the subset")
        if isinstance(e, A.Cast):
            c, u = self._expr(e.operand)
            target = e.target.show()
            if target in ("float", "double"):
                return (f"float({c})", True) if u else (f"({c}).astype(float)", False)
            if target in ("int", "unsigned", "char"):
                return (f"int({c})", True) if u else (
                    f"_np.trunc({c}).astype(_np.int64)", False)
            raise VectorizeFailure(f"cast to {target} outside the subset")
        if isinstance(e, A.Call):
            return self._call(e)
        raise VectorizeFailure(f"expression {type(e).__name__} outside the subset")

    def _call(self, e: A.Call) -> tuple[str, bool]:
        if not isinstance(e.func, A.Ident):
            raise VectorizeFailure("computed call target")
        name = e.func.name
        if name == "array_get_elem":
            arr = e.args[0]
            if not (isinstance(arr, A.Ident) and arr.name in self.array_params):
                raise VectorizeFailure("get_elem on a non-parameter array")
            idx = e.args[1]
            if not isinstance(idx, A.BraceList) or len(idx.items) != 2:
                raise VectorizeFailure("get_elem index outside the subset")
            i0, u0 = self._expr(idx.items[0])
            i1, u1 = self._expr(idx.items[1])
            self.uses_env = True
            code = f"_rt.vec_gather({arr.name}, {i0}, {i1}, __env)"
            return code, u0 and u1
        if name == "array_part_bounds":
            arr = e.args[0]
            if not (isinstance(arr, A.Ident) and arr.name in self.array_params):
                raise VectorizeFailure("part_bounds on a non-parameter array")
            self.uses_env = True
            return f"{arr.name}.part_bounds(__env.rank)", True
        if name == "abs":
            c, u = self._expr(e.args[0])
            return (f"abs({c})", True) if u else (f"_np.abs({c})", False)
        if name in ("min", "max"):
            a, ua = self._expr(e.args[0])
            b, ub = self._expr(e.args[1])
            if ua and ub:
                return f"{name}({a}, {b})", True
            np_fn = "_np.minimum" if name == "min" else "_np.maximum"
            return f"{np_fn}({a}, {b})", False
        raise VectorizeFailure(f"call to {name!r} outside the subset")


class _Vectorizer(_Translator):
    """A map/zip/create/fold-conversion kernel ending in an Index."""

    def __init__(self, inst: Instance, resolved):
        super().__init__(inst, resolved)
        params = list(inst.func.params)
        if not params:
            raise VectorizeFailure("kernel without parameters")
        last = resolved(params[-1].ty)
        if not (isinstance(last, TPrim) and last.name in ("Index", "Size")):
            raise VectorizeFailure("kernel does not end in an Index parameter")
        self.ix_name = params[-1].name
        lead = params[:-1]
        # trailing element-value parameters bound to partition blocks;
        # the skeleton use site records how many (array_zip has two),
        # otherwise at most one trailing scalar is the element
        n_elems = inst.kernel_elems
        if n_elems is None:
            n_elems = 1 if (lead and _is_scalar_value(resolved(lead[-1].ty))) else 0
        for _ in range(n_elems):
            if not lead or not _is_scalar_value(resolved(lead[-1].ty)):
                raise VectorizeFailure("kernel arity does not match its use")
            self.elem_names.insert(0, lead[-1].name)
            lead = lead[:-1]
        self.lead_params = lead
        # names of parameters that hold distributed arrays (gatherable)
        self.array_params = {
            p.name for p in lead if isinstance(resolved(p.ty), TPardata)
        }
        self.scalar_params = {p.name for p in lead} - self.array_params
        self.struct_result = isinstance(resolved(inst.func.ret), TStruct)

    def emit(self) -> str:
        body_expr = self._translate_stmts(list(self.inst.func.body.stmts))
        name = self.inst.name
        out = io.StringIO()
        args = [p.name for p in self.lead_params]
        args += [f"__block{i}" for i in range(len(self.elem_names))]
        args += ["__grids", "__env"]
        out.write(f"def _vec_{name}({', '.join(args)}):\n")
        for i, elem in enumerate(self.elem_names):
            out.write(f"    {elem} = __block{i}\n")
        for line in self.prologue:
            out.write(f"    {line}\n")
        out.write(f"    return {body_expr}\n")
        out.write(f"_vec_{name}.env_free = {not self.uses_env}\n")
        out.write(f"{name}.vectorized = _vec_{name}\n")
        return out.getvalue()

    def _declare_struct(self, s: A.VarDecl) -> None:
        t = self.resolved(s.ty)
        if not isinstance(t, TStruct) or self.branched:
            raise VectorizeFailure("uninitialised local")
        fields = []
        for fname, ftype in t.fields:
            ftype = self.resolved(ftype)
            if not isinstance(ftype, TPrim):
                raise VectorizeFailure("struct field without a numpy dtype")
            fields.append((fname, ftype.name))
        blocks = "".join(f"__block{i}," for i in range(len(self.elem_names)))
        self.prologue.append(
            f"{s.name} = _rt.struct_zeros({tuple(fields)!r}, ({blocks}), __grids)"
        )
        self.struct_locals.add(s.name)
        self.varying_locals.add(s.name)

    def _store_field(self, e: A.Expr) -> None:
        if not (
            isinstance(e, A.Assign)
            and e.op == "="
            and isinstance(e.target, A.Member)
            and isinstance(e.target.base, A.Ident)
            and e.target.base.name in self.struct_locals
            and not self.branched
        ):
            raise VectorizeFailure("statement outside the subset")
        code, _ = self._expr(e.value)
        self.prologue.append(f"{e.target.base.name}[{e.target.name!r}] = {code}")


class _Selector(_Translator):
    """A selective binary fold function over two struct parameters."""

    _OPS = {"<", ">", "<=", ">=", "==", "!=", "&&", "||"}

    def __init__(self, inst: Instance, resolved):
        super().__init__(inst, resolved)
        params = list(inst.func.params)
        self.x, self.y = params[-2].name, params[-1].name
        self.lead_params = params[:-2]
        for p in self.lead_params:
            t = resolved(p.ty)
            if not (isinstance(t, TPrim) and t.name in _NUMERIC):
                raise VectorizeFailure("lifted parameter is not a number")
        self.scalar_params = {p.name for p in self.lead_params}

    def emit(self) -> str:
        mask = self._translate_stmts(list(self.inst.func.body.stmts))
        name = self.inst.name
        args = [p.name for p in self.lead_params] + [self.x, self.y]
        out = io.StringIO()
        out.write(f"def _sel_{name}({', '.join(args)}):\n")
        for line in self.prologue:
            out.write(f"    {line}\n")
        out.write(f"    return {mask}\n")
        out.write(f"{name}.selective = _sel_{name}\n")
        return out.getvalue()

    def _return_value(self, value: A.Expr) -> str:
        if isinstance(value, A.Ident) and value.name in (self.x, self.y):
            return repr(value.name == self.x)
        raise VectorizeFailure("fold returns a value other than x or y")

    def _expr(self, e: A.Expr) -> tuple[str, bool]:
        if isinstance(e, A.Member) and isinstance(e.base, A.Ident) and (
            e.base.name in (self.x, self.y)
        ):
            return f"{e.base.name}[{e.name!r}]", False
        if isinstance(e, A.Ident) and e.name in (self.x, self.y, "procId"):
            raise VectorizeFailure(f"{e.name!r} outside a field read")
        if isinstance(e, A.BinOp) and e.op not in self._OPS:
            raise VectorizeFailure(f"arithmetic {e.op!r} in a selection")
        if isinstance(e, (A.Cast, A.IndexExpr)):
            raise VectorizeFailure("cast or indexing in a selection")
        if isinstance(e, A.Call) and not (
            isinstance(e.func, A.Ident) and e.func.name in ("abs", "min", "max")
        ):
            raise VectorizeFailure("call outside abs/min/max in a selection")
        return super()._expr(e)


_NUMERIC = ("int", "unsigned", "char", "float", "double")


def _is_scalar_value(t: Type) -> bool:
    if isinstance(t, (TFun, TPardata)):
        return False
    if isinstance(t, TPrim) and t.name in ("Index", "Size", "Bounds"):
        return False
    return True

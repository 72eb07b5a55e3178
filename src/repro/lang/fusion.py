"""Compiler-level skeleton discovery & fusion (ROADMAP item 4).

This pass runs between instantiation and code generation.  It rewrites
the first-order AST so that the *program* becomes cheaper on the
simulated machine — fewer skeleton rounds, fewer intermediate
``DistArray`` allocations — while the values it computes stay bit-equal
to the unfused program (the contract the ``repro.check`` ``fusion``
pillar enforces at multiple p).  Two groups of rewrites:

**Skeleton fusion** — adjacent skeleton calls connected only by an
intermediate array collapse into one call with a composed kernel:

* ``map∘map → map`` — ``array_map(k1, a, t); array_map(k2, t, b)``
  becomes ``array_map(k2∘k1, a, b)``; ``t``'s create/destroy rounds and
  the first map round disappear.
* ``map``-into-``zip`` / ``zip``-into-``map`` → one ``zip``.
* ``map``-into-``fold`` → fold with a composed conversion kernel.
* ``create∘map → map`` — an array created only to be mapped away is
  never allocated; the init kernel is composed into the map.
* ``array_copy(a, b); array_gen_mult(a, b, ...) →
  array_gen_mult_square(a, ...)`` — the shortest-paths squaring idiom;
  the copy round and the second matrix vanish.
* creates whose initial values are provably overwritten before any read
  lose their init round (``array_create → array_create_uninit``).

**Skeleton discovery** — plain element-wise ``for`` loops over pardata
that match map/zip/fold shapes are rewritten to skeleton calls.  An
unfused element loop runs on the front end and pays one simulated
message per ``array_get_elem``/``array_put_elem``; the discovered
skeleton does the same work collectively (and becomes a further fusion
candidate).

Legality is purely structural and deliberately conservative: the
intermediate array's *only* uses in the whole function must be its
create, the producer, the consumer and (optionally) its destroy; no
statement between producer and consumer may mention any involved array
or assign a variable captured by either kernel's lifted arguments (a
mutation of a captured variable blocks fusion).  Kernel composition is
restricted to the pure expression subset, and — the cost-model gate — a
composed kernel is only accepted when :func:`~repro.lang.vectorize.
try_vectorize` proves it vectorizable *and* env-free, i.e. it stays
eligible for the fused dispatch path of :mod:`repro.skeletons.fuse`
(rank-dependent kernels such as ``procId`` readers never fuse).  The
intermediate's element type must round-trip exactly through its dtype
(``int``/``double``), since the unfused program stores the producer's
value before the consumer reads it back.

One caveat, documented in PERFORMANCE.md: eliminating a skeleton round
also eliminates its *runtime argument checks*, so a program that would
have raised a shape/aliasing error unfused may run to completion fused.
Valid programs compute identical values.

Opt-outs: the pass only runs under ``compile_skil(fusion=True)`` (or
the ``REPRO_FUSION`` process default), and ``no_fuse_lines`` skips any
rewrite whose producer or consumer sits on a listed source line.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.lang import ast as A
from repro.lang.builtins import BUILTIN_VALUES
from repro.lang.instantiate import (
    Instance,
    InstantiatedProgram,
    KernelRef,
    SectionRef,
    _estimate_ops,
)
from repro.lang.printer import _Printer
from repro.lang.types import INDEX, INT, TPrim, Type
from repro.lang.vectorize import try_vectorize

__all__ = ["FusionRewrite", "FusionReport", "fuse_program"]


class _Bail(Exception):
    """Internal: candidate is outside the fusable subset."""


@dataclass
class FusionRewrite:
    kind: str  #: e.g. "fuse:map.map", "discover:map", "square", "uninit"
    line: int  #: source line of the rewritten (consumer) call
    detail: str


@dataclass
class FusionReport:
    rewrites: list[FusionRewrite] = field(default_factory=list)
    fused_calls: int = 0
    discovered_loops: int = 0
    arrays_eliminated: int = 0
    inits_elided: int = 0
    #: static skeleton rounds removed from the program text (calls inside
    #: loops count once here; dynamic counts show up in stats.skeleton_calls)
    rounds_eliminated: int = 0

    def add(self, kind: str, line: int, detail: str) -> None:
        self.rewrites.append(FusionRewrite(kind, line, detail))

    def summary(self) -> str:
        lines = [
            f"fused skeleton calls      : {self.fused_calls}",
            f"discovered loops          : {self.discovered_loops}",
            f"intermediate arrays gone  : {self.arrays_eliminated}",
            f"init rounds elided        : {self.inits_elided}",
            f"static rounds eliminated  : {self.rounds_eliminated}",
        ]
        for r in self.rewrites:
            lines.append(f"  line {r.line:4d}  {r.kind:<16} {r.detail}")
        return "\n".join(lines)


# --------------------------------------------------------------------- walkers
_EXPR_CHILDREN = (
    "left", "right", "operand", "target", "value", "base",
    "index", "cond", "then", "orelse", "func",
)


def _iter_exprs(e: Optional[A.Expr]) -> Iterator[A.Expr]:
    if not isinstance(e, A.Expr):
        return
    yield e
    for attr in _EXPR_CHILDREN:
        child = getattr(e, attr, None)
        if isinstance(child, A.Expr):
            yield from _iter_exprs(child)
    if isinstance(e, A.Call):
        for x in e.args:
            yield from _iter_exprs(x)
    if isinstance(e, A.BraceList):
        for x in e.items:
            yield from _iter_exprs(x)
    if isinstance(e, KernelRef):
        for x in e.bound:
            yield from _iter_exprs(x)


def _stmt_exprs(s: A.Stmt) -> Iterator[A.Expr]:
    """Top-level expressions of *s*, recursing through sub-statements."""
    if isinstance(s, A.Block):
        for x in s.stmts:
            yield from _stmt_exprs(x)
    elif isinstance(s, A.VarDecl):
        if s.init is not None:
            yield s.init
    elif isinstance(s, A.If):
        yield s.cond
        yield from _stmt_exprs(s.then)
        if s.orelse is not None:
            yield from _stmt_exprs(s.orelse)
    elif isinstance(s, A.While):
        yield s.cond
        yield from _stmt_exprs(s.body)
    elif isinstance(s, A.For):
        if s.init is not None:
            yield from _stmt_exprs(s.init)
        if s.cond is not None:
            yield s.cond
        if s.step is not None:
            yield s.step
        yield from _stmt_exprs(s.body)
    elif isinstance(s, A.Return):
        if s.value is not None:
            yield s.value
    elif isinstance(s, A.ExprStmt):
        yield s.expr


def _iter_stmts(s: A.Stmt) -> Iterator[A.Stmt]:
    yield s
    if isinstance(s, A.Block):
        for x in s.stmts:
            yield from _iter_stmts(x)
    elif isinstance(s, A.If):
        yield from _iter_stmts(s.then)
        if s.orelse is not None:
            yield from _iter_stmts(s.orelse)
    elif isinstance(s, A.While):
        yield from _iter_stmts(s.body)
    elif isinstance(s, A.For):
        if s.init is not None:
            yield from _iter_stmts(s.init)
        yield from _iter_stmts(s.body)


def _idents(e: Optional[A.Expr]) -> set[str]:
    return {x.name for x in _iter_exprs(e) if isinstance(x, A.Ident)}


def _stmt_idents(s: A.Stmt) -> set[str]:
    out: set[str] = set()
    for e in _stmt_exprs(s):
        out |= _idents(e)
    return out


def _count_ident(f: A.FuncDef, name: str) -> int:
    # _stmt_exprs recurses through sub-statements already, so start from
    # the body alone (iterating _iter_stmts too would double count)
    return _count_ident_in_stmt(f.body, name)


def _count_ident_in_stmt(s: A.Stmt, name: str) -> int:
    return sum(
        1
        for e in _stmt_exprs(s)
        for x in _iter_exprs(e)
        if isinstance(x, A.Ident) and x.name == name
    )


def _assigned_names(s: A.Stmt) -> set[str]:
    """Identifiers mutated by ``=``-style assignments anywhere in *s*."""
    out: set[str] = set()
    for e in _stmt_exprs(s):
        for x in _iter_exprs(e):
            if isinstance(x, A.Assign) and isinstance(x.target, A.Ident):
                out.add(x.target.name)
    return out


def _pp(e: A.Expr) -> str:
    return _Printer().expr(e)


def _call_of(s: A.Stmt, *names: str) -> Optional[A.Call]:
    """The call when *s* is ``ExprStmt(Call(<one of names>, ...))``."""
    if isinstance(s, A.ExprStmt) and isinstance(s.expr, A.Call):
        c = s.expr
        if isinstance(c.func, A.Ident) and c.func.name in names:
            return c
    return None


def _create_call(s: A.Stmt) -> Optional[tuple[str, A.Call]]:
    """``(name, call)`` when *s* binds an ``array_create`` result."""
    if isinstance(s, A.VarDecl) and isinstance(s.init, A.Call):
        c = s.init
        if isinstance(c.func, A.Ident) and c.func.name == "array_create":
            return s.name, c
    if isinstance(s, A.ExprStmt) and isinstance(s.expr, A.Assign):
        a = s.expr
        if (
            a.op == "="
            and isinstance(a.target, A.Ident)
            and isinstance(a.value, A.Call)
            and isinstance(a.value.func, A.Ident)
            and a.value.func.name == "array_create"
        ):
            return a.target.name, a.value
    return None


# ------------------------------------------------------------- body -> expr
#: calls that are pure and stay inside composed kernel bodies
_PURE_CALLS = frozenset({"min", "max", "abs"})


def _subst_expr(e: A.Expr, env: dict[str, A.Expr]) -> A.Expr:
    """Rebuild *e* with identifiers substituted per *env*; raise
    :class:`_Bail` outside the pure expression subset."""
    if isinstance(e, A.Ident):
        if e.name in env:
            return copy.deepcopy(env[e.name])
        if e.name in ("INT_MAX", "UINT_MAX", "FLT_MAX", "procId"):
            # procId is allowed through so the vectorizer's env_free gate
            # (not this syntactic filter) is what rejects rank dependence
            return A.Ident(e.name, line=e.line, ty=e.ty)
        raise _Bail(f"free identifier {e.name!r}")
    if isinstance(e, (A.IntLit, A.FloatLit, A.CharLit)):
        return copy.deepcopy(e)
    if isinstance(e, A.BinOp):
        return A.BinOp(
            e.op, _subst_expr(e.left, env), _subst_expr(e.right, env),
            line=e.line, ty=e.ty,
        )
    if isinstance(e, A.UnOp):
        return A.UnOp(e.op, _subst_expr(e.operand, env), line=e.line, ty=e.ty)
    if isinstance(e, A.Cond):
        return A.Cond(
            _subst_expr(e.cond, env), _subst_expr(e.then, env),
            _subst_expr(e.orelse, env), line=e.line, ty=e.ty,
        )
    if isinstance(e, A.Cast):
        return A.Cast(e.target, _subst_expr(e.operand, env), line=e.line, ty=e.ty)
    if isinstance(e, A.IndexExpr):
        return A.IndexExpr(
            _subst_expr(e.base, env), _subst_expr(e.index, env),
            line=e.line, ty=e.ty,
        )
    if (
        isinstance(e, A.Call)
        and isinstance(e.func, A.Ident)
        and e.func.name in _PURE_CALLS
    ):
        return A.Call(
            A.Ident(e.func.name, line=e.func.line, ty=e.func.ty),
            [_subst_expr(x, env) for x in e.args],
            line=e.line, ty=e.ty,
        )
    raise _Bail(f"{type(e).__name__} outside the composable subset")


def _stmts_to_expr(stmts: list[A.Stmt], env: dict[str, A.Expr]) -> A.Expr:
    """A kernel body as one pure expression (mirrors the vectorizer's
    statement subset: local declarations, if/return chains, a return)."""
    env = dict(env)
    work = list(stmts)
    while work:
        s = work.pop(0)
        if isinstance(s, A.Block):
            work = list(s.stmts) + work
            continue
        if isinstance(s, A.VarDecl):
            if s.init is None:
                raise _Bail("uninitialised local")
            env[s.name] = _subst_expr(s.init, env)
            continue
        if isinstance(s, A.Return):
            if s.value is None:
                raise _Bail("void return")
            return _subst_expr(s.value, env)
        if isinstance(s, A.If):
            cond = _subst_expr(s.cond, env)
            then_e = _stmts_to_expr([s.then], env)
            else_stmts = [s.orelse] if s.orelse is not None else work
            if not else_stmts:
                raise _Bail("if without else falls off the end")
            else_e = _stmts_to_expr(list(else_stmts), env)
            return A.Cond(cond, then_e, else_e, line=s.line, ty=then_e.ty)
        raise _Bail(f"statement {type(s).__name__} outside the composable subset")
    raise _Bail("falls off the end without a return")


# ------------------------------------------------------------------- the pass
def _vectorizes_env_free(inst: Instance, resolved) -> bool:
    """The vectorizer accepts *inst* as an env-free element kernel."""
    src = try_vectorize(inst, resolved)
    return src is not None and f"_vec_{inst.name}.env_free = True\n" in src


class _Fuser:
    def __init__(self, prog: InstantiatedProgram, no_fuse_lines) -> None:
        self.prog = prog
        self.no_fuse = frozenset(int(x) for x in no_fuse_lines)
        self.report = FusionReport()
        self._n = 0

    # ------------------------------------------------------------ utilities
    def _resolved(self, t: Optional[Type]) -> Optional[Type]:
        if t is None:
            return None
        return self.prog.checked.resolved(t)

    def _fresh_name(self) -> str:
        while True:
            self._n += 1
            name = f"__fused_{self._n}"
            if name not in self.prog.instances and name not in self.prog.entries:
                return name

    def _blocks(self, f: A.FuncDef) -> list[A.Block]:
        return [s for s in _iter_stmts(f.body) if isinstance(s, A.Block)]

    def _remove_stmt(self, f: A.FuncDef, target: A.Stmt) -> bool:
        """Remove *target* (by identity — dataclass == is structural)."""
        for st in _iter_stmts(f.body):
            if isinstance(st, A.Block):
                for k, x in enumerate(st.stmts):
                    if x is target:
                        del st.stmts[k]
                        return True
            elif isinstance(st, A.If):
                if st.then is target:
                    st.then = A.Block([], line=target.line)
                    return True
                if st.orelse is target:
                    st.orelse = None
                    return True
            elif isinstance(st, (A.While, A.For)):
                if st.body is target:
                    st.body = A.Block([], line=target.line)
                    return True
        return False

    def _param_names(self, f: A.FuncDef) -> set[str]:
        return {p.name for p in f.params}

    def _destroys_of(self, f: A.FuncDef, name: str) -> list[A.Stmt]:
        out = []
        for st in _iter_stmts(f.body):
            c = _call_of(st, "array_destroy")
            if (
                c is not None
                and len(c.args) == 1
                and isinstance(c.args[0], A.Ident)
                and c.args[0].name == name
            ):
                out.append(st)
        return out

    def _create_stmt_of(self, f: A.FuncDef, name: str) -> Optional[A.Stmt]:
        found = None
        for st in _iter_stmts(f.body):
            made = _create_call(st)
            if made is not None and made[0] == name:
                if found is not None:
                    return None  # created twice — give up on this array
                found = st
        return found

    def _kernel_is_pure(self, k: A.Expr) -> bool:
        """Whether the kernel's body is in the pure expression subset
        (so dropping its applications cannot lose error()/printf/put
        side effects)."""
        if not isinstance(k, KernelRef):
            return False
        inst = self.prog.instances.get(k.name)
        if inst is None:
            return False
        env = {p.name: A.Ident(p.name, ty=p.ty) for p in inst.func.params}
        try:
            _stmts_to_expr(list(inst.func.body.stmts), env)
        except _Bail:
            return False
        return True

    # --------------------------------------------------------- composition
    def _compose(
        self,
        producer: KernelRef,
        consumer: KernelRef,
        slot: int,
        producer_elems: int,
        consumer_elems: int,
        extra_ignored_elem: bool = False,
    ) -> Optional[KernelRef]:
        """Compose producer-into-consumer; register the composed instance
        and return its call-site :class:`KernelRef`, or ``None`` when the
        pair is outside the composable subset or the composed kernel would
        lose fused-dispatch eligibility (the cost-model gate)."""
        p_inst = self.prog.instances.get(producer.name)
        c_inst = self.prog.instances.get(consumer.name)
        if p_inst is None or c_inst is None:
            return None
        resolved = self.prog.checked.resolved
        pf, cf = p_inst.func, c_inst.func
        p_params, c_params = list(pf.params), list(cf.params)
        if len(p_params) != len(producer.bound) + producer_elems + 1:
            return None
        if len(c_params) != len(consumer.bound) + consumer_elems + 1:
            return None
        if p_inst.kernel_elems not in (None, producer_elems):
            return None
        if c_inst.kernel_elems not in (None, consumer_elems):
            return None
        ret_t = resolved(pf.ret)
        # dtype round-trip: the unfused program stores the producer's
        # value into the intermediate's dtype before the consumer reads
        # it back — only int64/float64 make that a bit-exact identity
        if not (isinstance(ret_t, TPrim) and ret_t.name in ("int", "double")):
            return None
        cons_ret = resolved(cf.ret)
        try:
            new_params: list[A.FuncParam] = []
            env_p: dict[str, A.Expr] = {}
            nb = len(producer.bound)
            for i, p in enumerate(p_params[:nb]):
                nm = f"__p{i}"
                new_params.append(A.FuncParam(nm, resolved(p.ty), line=p.line))
                env_p[p.name] = A.Ident(nm, ty=p.ty)
            prod_elem_params: list[A.FuncParam] = []
            for j, p in enumerate(p_params[nb:nb + producer_elems]):
                nm = f"__u{j}"
                prod_elem_params.append(
                    A.FuncParam(nm, resolved(p.ty), line=p.line)
                )
                env_p[p.name] = A.Ident(nm, ty=p.ty)
            env_p[p_params[-1].name] = A.Ident("__ix", ty=p_params[-1].ty)

            env_c: dict[str, A.Expr] = {}
            cb = len(consumer.bound)
            for i, p in enumerate(c_params[:cb]):
                nm = f"__c{i}"
                new_params.append(A.FuncParam(nm, resolved(p.ty), line=p.line))
                env_c[p.name] = A.Ident(nm, ty=p.ty)
            elem_params: list[A.FuncParam] = []
            for s_i, p in enumerate(c_params[cb:cb + consumer_elems]):
                if s_i == slot:
                    elem_params.extend(prod_elem_params)
                    env_c[p.name] = A.Ident("__t0", ty=ret_t)
                else:
                    nm = f"__v{s_i}"
                    elem_params.append(
                        A.FuncParam(nm, resolved(p.ty), line=p.line)
                    )
                    env_c[p.name] = A.Ident(nm, ty=p.ty)
            if extra_ignored_elem:
                # create∘map: the rewritten call is map(k, dst, dst); the
                # composed kernel takes (and ignores) dst's element value
                elem_params.append(A.FuncParam("__v0", cons_ret, line=cf.line))
            env_c[c_params[-1].name] = A.Ident("__ix", ty=c_params[-1].ty)

            expr1 = _stmts_to_expr(list(pf.body.stmts), env_p)
            expr2 = _stmts_to_expr(list(cf.body.stmts), env_c)
        except _Bail:
            return None

        ix_ty = resolved(c_params[-1].ty)
        body = A.Block(
            [
                A.VarDecl("__t0", ret_t, init=expr1, line=pf.body.line),
                A.Return(expr2, line=cf.body.line),
            ],
            line=cf.body.line,
        )
        name = self._fresh_name()
        fdef = A.FuncDef(
            name,
            tuple(new_params + elem_params + [A.FuncParam("__ix", ix_ty)]),
            cons_ret,
            body,
            line=cf.line,
        )
        inst = Instance(
            name,
            f"{consumer.name}.{producer.name}",
            fdef,
            (),
            kernel_elems=len(elem_params),
        )
        # cost-model gate: the composed kernel must still vectorize AND
        # stay env-free, i.e. remain eligible for fused dispatch — else
        # the "one big kernel" would run scalar and the fusion would cost
        # wall-clock instead of saving rounds
        if not _vectorizes_env_free(inst, resolved):
            return None
        self.prog.instances[name] = inst
        self.prog.report.setdefault("__fused__", []).append(name)
        return KernelRef(
            name,
            list(producer.bound) + list(consumer.bound),
            _estimate_ops(fdef),
            line=consumer.line,
            ty=consumer.ty,
        )

    # -------------------------------------------------------- pairwise fusion
    def _producer_at(self, s: A.Stmt):
        """``(kind, kernel, src_names, tmp, call)`` for producer stmts."""
        c = _call_of(s, "array_map")
        if c is not None and len(c.args) == 3:
            k, src, dst = c.args
            if (
                isinstance(k, KernelRef)
                and isinstance(src, A.Ident)
                and isinstance(dst, A.Ident)
                and src.name != dst.name
            ):
                return ("map", k, [src], dst.name, c)
        c = _call_of(s, "array_zip")
        if c is not None and len(c.args) == 4:
            k, a1, a2, dst = c.args
            if (
                isinstance(k, KernelRef)
                and all(isinstance(x, A.Ident) for x in (a1, a2, dst))
                and dst.name not in (a1.name, a2.name)
            ):
                return ("zip", k, [a1, a2], dst.name, c)
        made = _create_call(s)
        if made is not None:
            tmp, c = made
            if len(c.args) >= 6 and isinstance(c.args[4], KernelRef):
                return ("create", c.args[4], [], tmp, c)
        return None

    def _consumer_at(self, s: A.Stmt, tmp: str):
        """``(kind, call, kernel, slot)`` for stmts consuming *tmp*."""
        c = _call_of(s, "array_map")
        if c is not None and len(c.args) == 3:
            k, src, dst = c.args
            if (
                isinstance(k, KernelRef)
                and isinstance(src, A.Ident)
                and src.name == tmp
                and isinstance(dst, A.Ident)
                and dst.name != tmp
            ):
                return ("map", c, k, 0)
        c = _call_of(s, "array_zip")
        if c is not None and len(c.args) == 4:
            k, a1, a2, dst = c.args
            if (
                isinstance(k, KernelRef)
                and all(isinstance(x, A.Ident) for x in (a1, a2, dst))
                and dst.name != tmp
            ):
                uses = [a1.name == tmp, a2.name == tmp]
                if sum(uses) == 1:
                    return ("zip", c, k, 0 if uses[0] else 1)
        for e in _stmt_exprs(s):
            for x in _iter_exprs(e):
                if (
                    isinstance(x, A.Call)
                    and isinstance(x.func, A.Ident)
                    and x.func.name == "array_fold"
                    and len(x.args) == 3
                    and isinstance(x.args[0], KernelRef)
                    and isinstance(x.args[2], A.Ident)
                    and x.args[2].name == tmp
                ):
                    return ("fold", x, x.args[0], 0)
        return None

    def _fuse_pass(self, f: A.FuncDef) -> bool:
        params = self._param_names(f)
        # skeleton-skeleton pairs first: fusing create∘map early would
        # turn map(k, t, dst) into map(k', dst, dst), whose aliased
        # operands can no longer act as a producer for the next map
        for creates_too in (False, True):
            for block in self._blocks(f):
                for i, s in enumerate(block.stmts):
                    prod = self._producer_at(s)
                    if prod is None:
                        continue
                    if prod[0] == "create" and not creates_too:
                        continue
                    if self._try_fuse(f, block, i, prod, params):
                        return True
        return False

    def _try_fuse(self, f, block, i, prod, params) -> bool:
        pkind, k1, src_idents, tmp, pcall = prod
        if pcall.line in self.no_fuse or tmp in params:
            return False
        # scan forward for the consumer; anything touching the involved
        # arrays, or assigning a variable captured by a kernel, blocks
        src_names = {x.name for x in src_idents}
        barrier = src_names | {tmp}
        assigned: set[str] = set()
        found = None
        for j in range(i + 1, len(block.stmts)):
            cons = self._consumer_at(block.stmts[j], tmp)
            if cons is not None:
                found = (j, cons)
                break
            ids = _stmt_idents(block.stmts[j])
            if ids & barrier:
                return False
            assigned |= _assigned_names(block.stmts[j])
        if found is None:
            return False
        j, (ckind, ccall, k2, slot) = found
        if ccall.line in self.no_fuse:
            return False
        captured = set()
        for b in list(k1.bound) + list(k2.bound):
            captured |= _idents(b)
        if assigned & (captured | src_names):
            return False
        if _count_ident_in_stmt(block.stmts[j], tmp) != 1:
            return False

        # whole-function accounting: tmp's only uses are create, producer,
        # consumer and (optionally) one destroy
        create_stmt = (
            block.stmts[i] if pkind == "create" else self._create_stmt_of(f, tmp)
        )
        if create_stmt is None:
            return False
        made = _create_call(create_stmt)
        if made is None or made[0] != tmp:
            return False
        destroys = self._destroys_of(f, tmp)
        if len(destroys) > 1:
            return False
        create_mentions = 1 if isinstance(create_stmt, A.ExprStmt) else 0
        prod_mentions = 0 if pkind == "create" else 1
        expected = create_mentions + prod_mentions + 1 + len(destroys)
        if _count_ident(f, tmp) != expected:
            return False
        # dropping the intermediate drops its init applications too
        if pkind != "create" and not self._kernel_is_pure(made[1].args[4]):
            return False

        combos = {
            ("map", "map"): (0, 1, 1),
            ("map", "zip"): (slot, 1, 2),
            ("map", "fold"): (0, 1, 1),
            ("zip", "map"): (0, 2, 1),
            ("create", "map"): (0, 0, 1),
        }
        key = (pkind, ckind)
        if key not in combos:
            return False
        cslot, p_elems, c_elems = combos[key]

        if pkind == "create":
            # the consumer's dst must be shaped like the eliminated array
            # would have been, else the fused program would skip a runtime
            # shape check the unfused one performs on valid inputs
            dst = ccall.args[2]
            dst_create = self._create_stmt_of(f, dst.name)
            if dst_create is None:
                return False
            dcall = _create_call(dst_create)[1]
            args_assigned = _assigned_names(f.body)
            for ai in (0, 1, 2, 3, 5):
                if ai >= len(pcall.args) or ai >= len(dcall.args):
                    return False
                if _pp(pcall.args[ai]) != _pp(dcall.args[ai]):
                    return False
                if _idents(pcall.args[ai]) & args_assigned:
                    return False

        composed = self._compose(
            k1, k2, cslot, p_elems, c_elems,
            extra_ignored_elem=(pkind == "create"),
        )
        if composed is None:
            return False

        # ---- rewrite the consumer call site ----------------------------
        if ckind == "map" and pkind == "zip":
            ccall.func = A.Ident("array_zip", line=ccall.func.line, ty=ccall.func.ty)
            ccall.args = [composed, src_idents[0], src_idents[1], ccall.args[2]]
        elif ckind == "map" and pkind == "create":
            dst = ccall.args[2]
            ccall.args = [composed, copy.deepcopy(dst), dst]
        elif ckind == "map":
            ccall.args = [composed, src_idents[0], ccall.args[2]]
        elif ckind == "zip":
            ccall.args[0] = composed
            ccall.args[1 + slot] = src_idents[0]
        elif ckind == "fold":
            ccall.args[0] = composed
            ccall.args[2] = src_idents[0]

        # ---- delete the producer round and the intermediate array ------
        removed_rounds = 0
        if pkind == "create":
            self._remove_stmt(f, block.stmts[i])
            removed_rounds += 1  # the create round (the map round remains)
        else:
            del block.stmts[i]  # the producer's skeleton round
            self._remove_stmt(f, create_stmt)
            removed_rounds += 2
        for d in destroys:
            self._remove_stmt(f, d)
            removed_rounds += 1
        self.report.fused_calls += 1
        self.report.arrays_eliminated += 1
        self.report.rounds_eliminated += removed_rounds
        self.report.add(
            f"fuse:{pkind}.{ckind}",
            ccall.line,
            f"{k1.name}∘{k2.name} eliminates {tmp!r} "
            f"({removed_rounds} rounds)",
        )
        return True

    # -------------------------------------------- copy+gen_mult -> square
    def _square_pass(self, f: A.FuncDef) -> bool:
        params = self._param_names(f)
        for block in self._blocks(f):
            for i in range(len(block.stmts) - 1):
                cp = _call_of(block.stmts[i], "array_copy")
                gm = _call_of(block.stmts[i + 1], "array_gen_mult")
                if cp is None or gm is None:
                    continue
                if cp.line in self.no_fuse or gm.line in self.no_fuse:
                    continue
                if len(cp.args) != 2 or len(gm.args) != 5:
                    continue
                opnds = [cp.args[0], cp.args[1], gm.args[0], gm.args[1], gm.args[4]]
                if not all(isinstance(x, A.Ident) for x in opnds):
                    continue
                src, tmp = cp.args[0], cp.args[1]
                if src.name == tmp.name or tmp.name in params:
                    continue
                if {gm.args[0].name, gm.args[1].name} != {src.name, tmp.name}:
                    continue
                if gm.args[4].name in (src.name, tmp.name):
                    continue
                if self._try_square(f, block, i, src, tmp.name):
                    return True
        return False

    def _try_square(self, f, block, i, src, tmp: str) -> bool:
        """Rewrite every ``copy(x, tmp); gen_mult(..tmp..)`` pair when
        those pairs (plus create/destroy) are tmp's only uses — removing
        the write to *tmp* is only sound when nothing else reads it."""
        create_stmt = self._create_stmt_of(f, tmp)
        if create_stmt is None:
            return False
        if not self._kernel_is_pure(_create_call(create_stmt)[1].args[4]):
            return False
        destroys = self._destroys_of(f, tmp)
        pairs: list[tuple[A.Block, A.Stmt, A.Call, A.Call]] = []
        for blk in self._blocks(f):
            for k in range(len(blk.stmts) - 1):
                cp = _call_of(blk.stmts[k], "array_copy")
                gm = _call_of(blk.stmts[k + 1], "array_gen_mult")
                if cp is None or gm is None or len(cp.args) != 2:
                    continue
                if gm is None or len(gm.args) != 5:
                    continue
                if not (
                    isinstance(cp.args[1], A.Ident) and cp.args[1].name == tmp
                ):
                    continue
                a, b = gm.args[0], gm.args[1]
                if not (isinstance(a, A.Ident) and isinstance(b, A.Ident)):
                    continue
                other = cp.args[0]
                if not isinstance(other, A.Ident) or other.name == tmp:
                    continue
                if {a.name, b.name} != {other.name, tmp}:
                    continue
                if cp.line in self.no_fuse or gm.line in self.no_fuse:
                    return False
                pairs.append((blk, blk.stmts[k], cp, gm))
        if not pairs:
            return False
        create_mentions = 1 if isinstance(create_stmt, A.ExprStmt) else 0
        expected = create_mentions + len(destroys) + 2 * len(pairs)
        if _count_ident(f, tmp) != expected:
            return False

        for blk, cp_stmt, cp, gm in pairs:
            keep = gm.args[0] if gm.args[0].name != tmp else gm.args[1]
            gm.func = A.Ident(
                "array_gen_mult_square", line=gm.func.line, ty=gm.func.ty
            )
            gm.args = [keep, gm.args[2], gm.args[3], gm.args[4]]
            self._remove_stmt(f, cp_stmt)
            self.report.fused_calls += 1
            self.report.rounds_eliminated += 1
            self.report.add(
                "square",
                gm.line,
                f"copy+gen_mult over {tmp!r} -> array_gen_mult_square",
            )
        # tmp is now only created/destroyed; the dead-array pass collects it
        return True

    # ----------------------------------------------------- dead arrays
    def _dead_array_pass(self, f: A.FuncDef) -> bool:
        params = self._param_names(f)
        for st in list(_iter_stmts(f.body)):
            made = _create_call(st)
            if made is None:
                continue
            name, call = made
            if name in params:
                continue
            if self._create_stmt_of(f, name) is not st:
                continue  # created twice
            if not self._kernel_is_pure(call.args[4]) if len(call.args) >= 6 else True:
                continue
            destroys = self._destroys_of(f, name)
            create_mentions = 1 if isinstance(st, A.ExprStmt) else 0
            if _count_ident(f, name) != create_mentions + len(destroys):
                continue
            self._remove_stmt(f, st)
            for d in destroys:
                self._remove_stmt(f, d)
            self.report.arrays_eliminated += 1
            self.report.rounds_eliminated += 1 + len(destroys)
            self.report.add(
                "dead-array", call.line,
                f"{name!r} is only created/destroyed — removed",
            )
            return True
        return False

    # ------------------------------------------------------- discovery
    def _match_counter(self, s: A.For):
        """``(var, bound, body_stmts)`` for ``for (v = 0; v < N; v++)``."""
        if s.cond is None or s.step is None:
            return None
        if (
            isinstance(s.init, A.VarDecl)
            and isinstance(s.init.init, A.IntLit)
            and s.init.init.value == 0
        ):
            var = s.init.name
        elif (
            isinstance(s.init, A.ExprStmt)
            and isinstance(s.init.expr, A.Assign)
            and s.init.expr.op == "="
            and isinstance(s.init.expr.target, A.Ident)
            and isinstance(s.init.expr.value, A.IntLit)
            and s.init.expr.value.value == 0
        ):
            var = s.init.expr.target.name
        else:
            return None
        c = s.cond
        if not (
            isinstance(c, A.BinOp)
            and c.op == "<"
            and isinstance(c.left, A.Ident)
            and c.left.name == var
        ):
            return None
        bound = c.right
        if var in _idents(bound):
            return None
        st = s.step
        if not (
            isinstance(st, A.Assign)
            and isinstance(st.target, A.Ident)
            and st.target.name == var
        ):
            return None
        if st.op == "+=" and isinstance(st.value, A.IntLit) and st.value.value == 1:
            pass
        elif (
            st.op == "="
            and isinstance(st.value, A.BinOp)
            and st.value.op == "+"
            and isinstance(st.value.left, A.Ident)
            and st.value.left.name == var
            and isinstance(st.value.right, A.IntLit)
            and st.value.right.value == 1
        ):
            pass
        else:
            return None
        body = s.body
        stmts = list(body.stmts) if isinstance(body, A.Block) else [body]
        while len(stmts) == 1 and isinstance(stmts[0], A.Block):
            stmts = list(stmts[0].stmts)
        return var, bound, stmts

    def _analyze_elem_expr(self, expr: A.Expr, loop_vars: list[str]):
        """Validate purity; return ordered ``[(src_name, elem_ty)]``."""
        srcs: list[tuple[str, Optional[Type]]] = []

        def walk(e: A.Expr) -> None:
            if isinstance(e, A.Call):
                if (
                    isinstance(e.func, A.Ident)
                    and e.func.name == "array_get_elem"
                    and len(e.args) == 2
                ):
                    arr, ix = e.args
                    if not (
                        isinstance(arr, A.Ident) and isinstance(ix, A.BraceList)
                    ):
                        raise _Bail("get_elem outside the subset")
                    names = [
                        x.name if isinstance(x, A.Ident) else None
                        for x in ix.items
                    ]
                    if names != loop_vars:
                        raise _Bail("read is not at the loop indices")
                    if arr.name not in [n for n, _ in srcs]:
                        srcs.append((arr.name, e.ty))
                    return
                if isinstance(e.func, A.Ident) and e.func.name in _PURE_CALLS:
                    for a in e.args:
                        walk(a)
                    return
                raise _Bail("call outside the subset")
            if isinstance(e, (A.IntLit, A.FloatLit, A.CharLit)):
                return
            if isinstance(e, A.Ident):
                if e.name == "procId":
                    # outside a skeleton procId is an error; a discovered
                    # kernel would make it a per-rank value — never rewrite
                    raise _Bail("procId in an element loop")
                return
            if isinstance(e, A.BinOp):
                walk(e.left)
                walk(e.right)
                return
            if isinstance(e, A.UnOp):
                walk(e.operand)
                return
            if isinstance(e, A.Cond):
                walk(e.cond)
                walk(e.then)
                walk(e.orelse)
                return
            if isinstance(e, A.Cast):
                walk(e.operand)
                return
            raise _Bail(f"{type(e).__name__} outside the subset")

        walk(expr)
        return srcs

    def _rewrite_elem_expr(self, e: A.Expr, loop_vars, src_names) -> A.Expr:
        if (
            isinstance(e, A.Call)
            and isinstance(e.func, A.Ident)
            and e.func.name == "array_get_elem"
        ):
            k = src_names.index(e.args[0].name)
            return A.Ident(f"__v{k}", line=e.line, ty=e.ty)
        if isinstance(e, A.Ident):
            if e.name in loop_vars:
                d = loop_vars.index(e.name)
                return A.IndexExpr(
                    A.Ident("__ix", line=e.line, ty=INDEX),
                    A.IntLit(d, line=e.line, ty=INT),
                    line=e.line,
                    ty=INT,
                )
            return copy.deepcopy(e)
        if isinstance(e, (A.IntLit, A.FloatLit, A.CharLit)):
            return copy.deepcopy(e)
        if isinstance(e, A.BinOp):
            return A.BinOp(
                e.op,
                self._rewrite_elem_expr(e.left, loop_vars, src_names),
                self._rewrite_elem_expr(e.right, loop_vars, src_names),
                line=e.line, ty=e.ty,
            )
        if isinstance(e, A.UnOp):
            return A.UnOp(
                e.op, self._rewrite_elem_expr(e.operand, loop_vars, src_names),
                line=e.line, ty=e.ty,
            )
        if isinstance(e, A.Cond):
            return A.Cond(
                self._rewrite_elem_expr(e.cond, loop_vars, src_names),
                self._rewrite_elem_expr(e.then, loop_vars, src_names),
                self._rewrite_elem_expr(e.orelse, loop_vars, src_names),
                line=e.line, ty=e.ty,
            )
        if isinstance(e, A.Cast):
            return A.Cast(
                e.target,
                self._rewrite_elem_expr(e.operand, loop_vars, src_names),
                line=e.line, ty=e.ty,
            )
        if isinstance(e, A.Call):
            return A.Call(
                A.Ident(e.func.name, line=e.func.line, ty=e.func.ty),
                [self._rewrite_elem_expr(x, loop_vars, src_names) for x in e.args],
                line=e.line, ty=e.ty,
            )
        raise _Bail(f"{type(e).__name__} outside the subset")

    def _free_scalars(self, expr: A.Expr, loop_vars, src_names) -> list[str]:
        """Outer scalars read by the loop body, in first-appearance
        order; they become lifted (bound) kernel arguments."""
        out: list[str] = []
        skip = set(loop_vars) | set(src_names) | set(BUILTIN_VALUES)

        def walk(e: A.Expr) -> None:
            if (
                isinstance(e, A.Call)
                and isinstance(e.func, A.Ident)
                and e.func.name == "array_get_elem"
            ):
                return  # the array name and index vars are consumed
            if isinstance(e, A.Ident):
                if e.name not in skip and e.name not in out:
                    out.append(e.name)
                return
            for attr in _EXPR_CHILDREN:
                child = getattr(e, attr, None)
                if isinstance(child, A.Expr) and attr != "func":
                    walk(child)
            if isinstance(e, A.Call):
                for x in e.args:
                    walk(x)

        walk(expr)
        return out

    def _register_kernel(
        self, fdef: A.FuncDef, n_elems: int
    ) -> Optional[KernelRef]:
        """Gate + register a synthesized (discovery) kernel."""
        inst = Instance(fdef.name, fdef.name, fdef, (), kernel_elems=n_elems)
        if not _vectorizes_env_free(inst, self.prog.checked.resolved):
            return None
        self.prog.instances[fdef.name] = inst
        self.prog.report.setdefault("__fused__", []).append(fdef.name)
        return KernelRef(fdef.name, [], _estimate_ops(fdef), line=fdef.line)

    def _discover_pass(self, f: A.FuncDef) -> bool:
        for block in self._blocks(f):
            for idx, s in enumerate(block.stmts):
                if not isinstance(s, A.For):
                    continue
                if s.line in self.no_fuse:
                    continue
                if self._discover_map(f, block, idx, s):
                    return True
                if self._discover_fold(f, block, idx, s):
                    return True
        return False

    def _loop_vars_dead_after(self, f: A.FuncDef, loop: A.For, names) -> bool:
        for v in names:
            if _count_ident(f, v) != _count_ident_in_stmt(loop, v):
                return False
        return True

    def _dst_size_matches(self, f: A.FuncDef, dst: str, bounds) -> bool:
        create_stmt = self._create_stmt_of(f, dst)
        if create_stmt is None:
            return False
        call = _create_call(create_stmt)[1]
        if len(call.args) < 6:
            return False
        dim, size = call.args[0], call.args[1]
        if not (isinstance(dim, A.IntLit) and dim.value == len(bounds)):
            return False
        if not (isinstance(size, A.BraceList) and len(size.items) == len(bounds)):
            return False
        assigned = _assigned_names(f.body)
        for b, sz in zip(bounds, size.items):
            if _pp(b) != _pp(sz):
                return False
            if _idents(b) & assigned:
                return False
        return True

    def _discover_map(self, f, block, idx, s: A.For) -> bool:
        m = self._match_counter(s)
        if m is None:
            return False
        var, bound, stmts = m
        loop_vars, bounds = [var], [bound]
        if len(stmts) == 1 and isinstance(stmts[0], A.For):
            m2 = self._match_counter(stmts[0])
            if m2 is None:
                return False
            var2, bound2, stmts = m2
            if var2 == var or var in _idents(bound2):
                return False
            loop_vars, bounds = [var, var2], [bound, bound2]
        if len(stmts) != 1:
            return False
        put = _call_of(stmts[0], "array_put_elem")
        if put is None or len(put.args) != 3 or put.line in self.no_fuse:
            return False
        dst, ixl, expr = put.args
        if not (isinstance(dst, A.Ident) and isinstance(ixl, A.BraceList)):
            return False
        if [
            x.name if isinstance(x, A.Ident) else None for x in ixl.items
        ] != loop_vars:
            return False
        try:
            srcs = self._analyze_elem_expr(expr, loop_vars)
        except _Bail:
            return False
        if len(srcs) > 2:
            return False
        if not self._loop_vars_dead_after(f, s, loop_vars):
            return False
        if not self._dst_size_matches(f, dst.name, bounds):
            return False
        resolved = self.prog.checked.resolved
        ret_ty = resolved(expr.ty) if expr.ty is not None else None
        if ret_ty is None:
            return False
        src_names = [n for n, _ in srcs]
        scalars = self._free_scalars(expr, loop_vars, src_names)
        try:
            kexpr = self._rewrite_elem_expr(expr, loop_vars, src_names)
            params: list[A.FuncParam] = []
            for sc in scalars:
                ty = next(
                    (
                        x.ty
                        for e2 in _iter_exprs(expr)
                        if isinstance(x := e2, A.Ident) and x.name == sc
                    ),
                    None,
                )
                if ty is None:
                    raise _Bail("untyped scalar")
                params.append(A.FuncParam(sc, resolved(ty), line=s.line))
            if srcs:
                for k, (_, ety) in enumerate(srcs):
                    if ety is None:
                        raise _Bail("untyped element read")
                    params.append(
                        A.FuncParam(f"__v{k}", resolved(ety), line=s.line)
                    )
            else:
                params.append(A.FuncParam("__v0", ret_ty, line=s.line))
        except _Bail:
            return False
        params.append(A.FuncParam("__ix", INDEX, line=s.line))
        name = self._fresh_name()
        fdef = A.FuncDef(
            name, tuple(params),
            ret_ty, A.Block([A.Return(kexpr, line=s.line)], line=s.line),
            line=s.line,
        )
        kref = self._register_kernel(fdef, max(1, len(srcs)))
        if kref is None:
            return False
        kref.bound = [
            A.Ident(sc, line=s.line) for sc in scalars
        ]
        kref.ty = expr.ty
        if len(srcs) == 2:
            call = A.Call(
                A.Ident("array_zip", line=s.line),
                [
                    kref,
                    A.Ident(src_names[0], line=s.line),
                    A.Ident(src_names[1], line=s.line),
                    copy.deepcopy(dst),
                ],
                line=s.line,
            )
            kind = "discover:zip"
        else:
            src = (
                A.Ident(src_names[0], line=s.line)
                if srcs
                else copy.deepcopy(dst)
            )
            call = A.Call(
                A.Ident("array_map", line=s.line),
                [kref, src, copy.deepcopy(dst)],
                line=s.line,
            )
            kind = "discover:map"
        block.stmts[idx] = A.ExprStmt(call, line=s.line)
        self.report.discovered_loops += 1
        self.report.add(
            kind, s.line,
            f"element loop over {dst.name!r} -> {call.func.name}",
        )
        return True

    def _discover_fold(self, f, block, idx, s: A.For) -> bool:
        m = self._match_counter(s)
        if m is None:
            return False
        var, bound, stmts = m
        if len(stmts) != 1:
            return False
        st = stmts[0]
        if not (isinstance(st, A.ExprStmt) and isinstance(st.expr, A.Assign)):
            return False
        asg = st.expr
        if asg.line in self.no_fuse:
            return False
        if not isinstance(asg.target, A.Ident):
            return False
        acc = asg.target.name
        if acc == var:
            return False
        comb = None
        rhs = None
        v = asg.value
        if asg.op == "+=":
            comb, rhs = "+", v
        elif asg.op == "=" and isinstance(v, A.BinOp) and v.op == "+":
            if isinstance(v.left, A.Ident) and v.left.name == acc:
                comb, rhs = "+", v.right
            elif isinstance(v.right, A.Ident) and v.right.name == acc:
                comb, rhs = "+", v.left
        elif (
            asg.op == "="
            and isinstance(v, A.Call)
            and isinstance(v.func, A.Ident)
            and v.func.name in ("min", "max")
            and len(v.args) == 2
        ):
            if isinstance(v.args[0], A.Ident) and v.args[0].name == acc:
                comb, rhs = v.func.name, v.args[1]
            elif isinstance(v.args[1], A.Ident) and v.args[1].name == acc:
                comb, rhs = v.func.name, v.args[0]
        if comb is None or rhs is None:
            return False
        if acc in _idents(rhs):
            return False
        # exact associativity+commutativity needs integer arithmetic
        acc_ty = self._resolved(asg.target.ty)
        if not (isinstance(acc_ty, TPrim) and acc_ty.name in ("int", "unsigned")):
            return False
        try:
            srcs = self._analyze_elem_expr(rhs, [var])
        except _Bail:
            return False
        if len(srcs) != 1:
            return False
        if not self._loop_vars_dead_after(f, s, [var]):
            return False
        src_name, elem_ty = srcs[0]
        if elem_ty is None:
            return False
        if not self._dst_size_matches(f, src_name, [bound]):
            return False
        resolved = self.prog.checked.resolved
        rhs_ty = resolved(rhs.ty) if rhs.ty is not None else None
        if not (isinstance(rhs_ty, TPrim) and rhs_ty.name in ("int", "unsigned")):
            return False
        scalars = self._free_scalars(rhs, [var], [src_name])
        try:
            kexpr = self._rewrite_elem_expr(rhs, [var], [src_name])
            params = []
            for sc in scalars:
                ty = next(
                    (
                        x.ty
                        for x in _iter_exprs(rhs)
                        if isinstance(x, A.Ident) and x.name == sc
                    ),
                    None,
                )
                if ty is None:
                    raise _Bail("untyped scalar")
                params.append(A.FuncParam(sc, resolved(ty), line=s.line))
        except _Bail:
            return False
        params.append(A.FuncParam("__v0", resolved(elem_ty), line=s.line))
        params.append(A.FuncParam("__ix", INDEX, line=s.line))
        name = self._fresh_name()
        fdef = A.FuncDef(
            name, tuple(params), rhs_ty,
            A.Block([A.Return(kexpr, line=s.line)], line=s.line), line=s.line,
        )
        kref = self._register_kernel(fdef, 1)
        if kref is None:
            return False
        kref.bound = [A.Ident(sc, line=s.line) for sc in scalars]
        kref.ty = rhs.ty
        fold_call = A.Call(
            A.Ident("array_fold", line=s.line),
            [kref, SectionRef(comb, line=s.line), A.Ident(src_name, line=s.line)],
            line=s.line,
            ty=asg.target.ty,
        )
        if comb == "+":
            new = A.Assign(copy.deepcopy(asg.target), fold_call, "+=", line=s.line)
        else:
            new = A.Assign(
                copy.deepcopy(asg.target),
                A.Call(
                    A.Ident(comb, line=s.line),
                    [copy.deepcopy(asg.target), fold_call],
                    line=s.line,
                    ty=asg.target.ty,
                ),
                "=",
                line=s.line,
            )
        block.stmts[idx] = A.ExprStmt(new, line=s.line)
        self.report.discovered_loops += 1
        self.report.add(
            "discover:fold", s.line,
            f"reduction loop over {src_name!r} -> array_fold({comb})",
        )
        return True

    # ------------------------------------------------------- init elision
    _OVERWRITERS = {
        "array_copy": (2, 1, (0,)),
        "array_map": (3, 2, (1,)),
        "array_zip": (4, 3, (1, 2)),
        "array_scan": (3, 2, (1,)),
    }

    def _init_state_seq(self, stmts, name: str) -> str:
        for s in stmts:
            r = self._init_state_stmt(s, name)
            if r != "CLEAN":
                return r
        return "CLEAN"

    def _init_state_stmt(self, s: A.Stmt, name: str) -> str:
        """Abstract state of *name*'s initial values over *s*:
        ``OVER`` = definitely fully overwritten before any read,
        ``LIVE`` = (possibly) read, ``CLEAN`` = untouched so far."""
        if isinstance(s, A.Block):
            return self._init_state_seq(s.stmts, name)
        if isinstance(s, A.If):
            if name in _idents(s.cond):
                return "LIVE"
            rt = self._init_state_stmt(s.then, name)
            re_ = (
                self._init_state_stmt(s.orelse, name)
                if s.orelse is not None
                else "CLEAN"
            )
            if "LIVE" in (rt, re_):
                return "LIVE"
            if rt == "OVER" and re_ == "OVER":
                return "OVER"
            return "CLEAN"  # maybe-overwritten: a later read still bails
        if isinstance(s, (A.While, A.For)):
            exprs = []
            if isinstance(s, A.While):
                exprs.append(s.cond)
            else:
                if s.init is not None and name in _stmt_idents(s.init):
                    return "LIVE"
                exprs.extend(x for x in (s.cond, s.step) if x is not None)
            for e in exprs:
                if name in _idents(e):
                    return "LIVE"
            body = self._init_state_stmt(s.body, name)
            if body == "LIVE":
                return "LIVE"
            # the loop may run zero times, so OVER does not propagate out;
            # but its body provably never reads the initial values
            return "CLEAN"
        ids = _stmt_idents(s)
        if name not in ids:
            return "CLEAN"
        if _call_of(s, "array_destroy") is not None:
            return "CLEAN"
        for fn, (nargs, dst_i, src_is) in self._OVERWRITERS.items():
            c = _call_of(s, fn)
            if c is None or len(c.args) != nargs:
                continue
            dst = c.args[dst_i]
            if not (isinstance(dst, A.Ident) and dst.name == name):
                continue
            for si in src_is:
                x = c.args[si]
                if isinstance(x, A.Ident) and x.name == name:
                    return "LIVE"
            if _count_ident_in_stmt(s, name) == 1:
                return "OVER"
            return "LIVE"
        return "LIVE"

    def _elide_inits(self, f: A.FuncDef) -> None:
        params = self._param_names(f)
        body = f.body.stmts
        for idx, st in enumerate(list(body)):
            made = _create_call(st)
            if made is None:
                continue
            name, call = made
            if name in params or call.line in self.no_fuse:
                continue
            if len(call.args) < 6 or not isinstance(call.args[4], KernelRef):
                continue
            if not self._kernel_is_pure(call.args[4]):
                continue
            if self._create_stmt_of(f, name) is not st:
                continue
            try:
                pos = next(i for i, x in enumerate(body) if x is st)
            except StopIteration:
                continue
            if self._init_state_seq(body[pos + 1:], name) == "LIVE":
                continue
            call.func = A.Ident(
                "array_create_uninit", line=call.func.line, ty=call.func.ty
            )
            del call.args[4]
            self.report.inits_elided += 1
            self.report.rounds_eliminated += 1
            self.report.add(
                "uninit", call.line,
                f"init of {name!r} is dead -> array_create_uninit",
            )

    # ------------------------------------------------------------ driver
    def fuse_function(self, f: A.FuncDef) -> None:
        for _ in range(200):
            changed = self._discover_pass(f)
            changed = self._fuse_pass(f) or changed
            changed = self._square_pass(f) or changed
            changed = self._dead_array_pass(f) or changed
            if not changed:
                break
        self._elide_inits(f)


def fuse_program(
    prog: InstantiatedProgram, no_fuse_lines=()
) -> FusionReport:
    """Run skeleton discovery & fusion over *prog* in place."""
    fz = _Fuser(prog, no_fuse_lines)
    for f in list(prog.entries.values()):
        fz.fuse_function(f)
    for inst in list(prog.instances.values()):
        # plain monomorphic helpers can contain skeleton calls too;
        # kernels simply have nothing to rewrite
        fz.fuse_function(inst.func)
    return fz.report

"""Grammar-driven fuzzer for the Skil compiler pipeline.

Every trial generates a *well-typed* Skil program from a seeded spec
(kernels with curried lifted arguments, operator sections, a ``$t``
polymorphic kernel and HOF, a ``pardata`` header, data-parallel
skeleton calls) and checks two properties:

1. **printer/parser round trip** — ``print(parse(src))`` is a fixed
   point of ``print . parse`` and still type checks;
2. **instantiation preserves meaning** — the compiled program (parse →
   typecheck → instantiate → codegen → exec on a simulated machine)
   computes the same result as the direct AST interpreter
   (:mod:`repro.check.interp`), for several processor counts.  An
   ``argfold`` op folds an array into a 2-field struct with a selective
   argmax/argmin (ties broken by position, optionally an eligibility
   guard on a lifted bound or on a third, ``int`` flag field), which
   checks the vectorizer's record tournament against the interpreter's
   sequential left fold across shapes, distributions and processor
   counts (ragged partitions included); an ``sinit`` op creates a
   ``float``, ``int`` or ``unsigned`` array through an init kernel with
   a loop, which the vectorizer leaves scalar, and folds it — the
   per-element traversal of ``array_create``;
3. **skeleton fusion preserves meaning** — compiling the same source
   with the discovery & fusion pass forced on yields results equal to
   the pass forced off at every processor count (exact equality: the
   pass never reassociates, so even ``double`` chains stay bit-equal).
   A dedicated ``chain`` op (map through a fresh temporary that is
   destroyed right after) guarantees fusable shapes appear often.

Value discipline keeps the comparison exact where it must be: integer
kernels bound their results with a final ``% 9973`` so nothing ever
overflows ``int64``; ``double`` programs avoid ``v*v`` growth and the
driver compares floats with a tolerance (reduction trees reassociate).

On failure the spec is shrunk — ops dropped, kernels trivialised,
shapes minimised — while the failure (same stage) persists, and the
minimal program is reported with a one-line replay command.
"""

from __future__ import annotations

import random
import time
import traceback
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from repro.check.interp import Interp, InterpArray
from repro.check.report import CheckResult, Failure

__all__ = ["ProgramSpec", "generate_spec", "render", "run_trial", "run_fuzz",
           "associative_record_folds"]

_MOD = 9973  #: bound for integer kernel results (prime, < 2**14)


# ---------------------------------------------------------------------------
# program specs
# ---------------------------------------------------------------------------
@dataclass
class KernelSpec:
    name: str
    kind: str  #: "init" | "map" | "zip" | "conv"
    n_lifted: int
    body: str  #: Skil expression over the kernel's parameters
    poly: bool = False  #: declared over ``$t`` instead of the element type


@dataclass
class OpSpec:
    kind: str  #: "map" | "zip" | "copy" | "scan" | "fold" | "chain" | "argfold" | "sinit"
    args: tuple = ()


@dataclass
class ProgramSpec:
    seed: int
    elem: str  #: "int" | "double"
    dim: int
    shape: tuple[int, ...]
    distr: str
    n_arrays: int
    kernels: list[KernelSpec] = field(default_factory=list)
    ops: list[OpSpec] = field(default_factory=list)
    use_pardata: bool = False
    use_hof: bool = False
    return_array: bool = False


def _lit(rng: random.Random) -> str:
    return str(rng.randint(1, 9))


def _atom(rng: random.Random, pool: list[str]) -> str:
    if rng.random() < 0.25:
        return _lit(rng)
    return rng.choice(pool)


def _int_body(rng: random.Random, pool: list[str]) -> str:
    """A bounded integer expression: ``((A * B + C) % 9973)`` shaped."""
    a, b, c = _atom(rng, pool), _atom(rng, pool), _atom(rng, pool)
    core = f"(({a} * {b} + {c}) % {_MOD})"
    if rng.random() < 0.3:
        d, e = _atom(rng, pool), _atom(rng, pool)
        alt = f"(({d} - {e}) % {_MOD})"
        cmp_op = rng.choice(["<", ">", "<=", ">=", "==", "!="])
        return f"(({a} {cmp_op} {b}) ? {core} : {alt})"
    return core


def _dbl_body(rng: random.Random, pool: list[str], v: str | None) -> str:
    """A growth-bounded double expression: *v* only times a constant."""
    others = [x for x in pool if x != v] or pool
    k = _lit(rng)
    c = _atom(rng, others)
    if v is not None and rng.random() < 0.8:
        core = f"({v} * {k} + {c})"
    else:
        core = f"({_atom(rng, others)} * {k} - {c})"
    if rng.random() < 0.25:
        a, b = _atom(rng, pool), _atom(rng, pool)
        cmp_op = rng.choice(["<", ">", "<=", ">="])
        return f"(({a} {cmp_op} {b}) ? {core} : ({c} + {k}))"
    return core


def _ix_pool(dim: int) -> list[str]:
    return [f"ix[{d}]" for d in range(dim)]


def generate_spec(seed: int) -> ProgramSpec:
    rng = random.Random(seed)
    elem = "int" if rng.random() < 0.7 else "double"
    dim = rng.choice([1, 1, 2])
    if dim == 1:
        shape = (rng.randint(6, 18),)
        distr = rng.choice(["DISTR_DEFAULT", "DISTR_RING"])
    else:
        shape = (rng.randint(4, 7), rng.randint(4, 7))
        distr = rng.choice(["DISTR_DEFAULT", "DISTR_RING", "DISTR_TORUS2D"])
    spec = ProgramSpec(
        seed=seed,
        elem=elem,
        dim=dim,
        shape=shape,
        distr=distr,
        n_arrays=rng.randint(2, 4),
        use_pardata=rng.random() < 0.3,
        use_hof=rng.random() < 0.6,
        return_array=rng.random() < 0.25,
    )

    ixs = _ix_pool(dim)

    def body_for(kind: str, n_lifted: int, poly: bool) -> str:
        lifted = [f"c{i}" for i in range(n_lifted)]
        if kind == "init":
            pool = ixs + lifted
            v = None
        elif kind == "zip":
            pool = ["x", "y"] + ixs + lifted
            v = "x"
        else:  # map / conv
            pool = ["v"] + ixs + lifted
            v = "v"
        if poly:
            # a $t kernel may not mention Index components (they are int)
            pool = [x for x in pool if not x.startswith("ix")] or lifted + ["v"]
            k = rng.choice(lifted) if lifted else _lit(rng)
            base = "v" if kind in ("map", "conv") else "x"
            return f"({base} * {k} + {rng.choice(pool)})"
        if elem == "int":
            return _int_body(rng, pool)
        return _dbl_body(rng, pool, v)

    # one init kernel per array, a few map/zip/conv kernels
    n_map = rng.randint(1, 3)
    n_zip = rng.randint(0, 2)
    n_conv = rng.randint(1, 2)
    for i in range(spec.n_arrays):
        spec.kernels.append(
            KernelSpec(f"init{i}", "init", 0, body_for("init", 0, False))
        )
    poly_budget = 1 if elem == "int" else 0
    for i in range(n_map):
        n_lift = rng.randint(0, 2)
        poly = poly_budget > 0 and rng.random() < 0.4 and n_lift > 0
        if poly:
            poly_budget -= 1
        spec.kernels.append(
            KernelSpec(f"mapk{i}", "map", n_lift, body_for("map", n_lift, poly), poly)
        )
    for i in range(n_zip):
        n_lift = rng.randint(0, 1)
        spec.kernels.append(
            KernelSpec(f"zipk{i}", "zip", n_lift, body_for("zip", n_lift, False))
        )
    for i in range(n_conv):
        spec.kernels.append(
            KernelSpec(f"convk{i}", "conv", 0, body_for("conv", 0, False))
        )

    maps = [k for k in spec.kernels if k.kind == "map"]
    zips = [k for k in spec.kernels if k.kind == "zip"]
    convs = [k for k in spec.kernels if k.kind == "conv"]
    arrays = list(range(spec.n_arrays))
    combiners = ["(+)", "min", "max"] if elem == "int" else ["(+)", "min", "max"]

    n_ops = rng.randint(2, 6)
    n_chains = 0
    for _ in range(n_ops):
        kind = rng.choice(["map", "map", "zip", "copy", "scan", "chain"])
        if kind == "zip" and not zips:
            kind = "map"
        if kind == "scan" and dim != 1:
            kind = "copy"
        if kind == "map":
            k = rng.choice(maps)
            lifted = tuple(_lit(rng) for _ in range(k.n_lifted))
            spec.ops.append(
                OpSpec("map", (k.name, lifted, rng.choice(arrays), rng.choice(arrays)))
            )
        elif kind == "zip":
            k = rng.choice(zips)
            lifted = tuple(_lit(rng) for _ in range(k.n_lifted))
            spec.ops.append(
                OpSpec(
                    "zip",
                    (
                        k.name,
                        lifted,
                        rng.choice(arrays),
                        rng.choice(arrays),
                        rng.choice(arrays),
                    ),
                )
            )
        elif kind == "copy":
            if spec.n_arrays < 2:
                continue
            src, dst = rng.sample(arrays, 2)
            spec.ops.append(OpSpec("copy", (src, dst)))
        elif kind == "scan":
            if spec.n_arrays < 2:
                continue
            src, dst = rng.sample(arrays, 2)
            spec.ops.append(OpSpec("scan", (rng.choice(combiners), src, dst)))
        elif kind == "chain":
            # two maps through a fresh temporary that is destroyed right
            # after: the exact shape the fusion pass collapses to one map
            k1, k2 = rng.choice(maps), rng.choice(maps)
            l1 = tuple(_lit(rng) for _ in range(k1.n_lifted))
            l2 = tuple(_lit(rng) for _ in range(k2.n_lifted))
            spec.ops.append(
                OpSpec(
                    "chain",
                    (k1.name, l1, k2.name, l2,
                     rng.choice(arrays), rng.choice(arrays), n_chains),
                )
            )
            n_chains += 1

    n_folds = rng.randint(1, 3)
    for i in range(n_folds):
        spec.ops.append(
            OpSpec(
                "fold",
                (i, rng.choice(convs).name, rng.choice(combiners), rng.choice(arrays)),
            )
        )
    # the record family draws from its own stream so that adding it left
    # every other family's programs unchanged for the same seed
    arng = random.Random(f"argfold-{seed}")
    if not spec.return_array and arng.random() < 0.4:
        total = int(np.prod(shape))
        spec.ops.append(
            OpSpec(
                "argfold",
                (
                    arng.choice(arrays),
                    arng.random() < 0.5,  # key on abs (val)
                    arng.choice([">", "<"]),  # argmax / argmin
                    arng.choice(["<=", ">="]),  # ties: first / last position
                    # guard: none, a lifted position bound, or an int flag
                    # field whose values 1 and 2 must both read as true
                    arng.choice([None, arng.randrange(total), "flag"]),
                ),
            )
        )
    # scalar-init creates: also their own stream
    srng = random.Random(f"sinit-{seed}")
    if not spec.return_array and srng.random() < 0.3:
        spec.ops.append(
            OpSpec(
                "sinit",
                (
                    srng.choice(["float", "int", "unsigned"]),
                    srng.randint(1, 9),  # index multiplier
                    srng.randint(5, 13),  # modulus
                    srng.randint(2, 4),  # loop trips
                ),
            )
        )
    return spec


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------
_HOF_TEXT = "$a combine ($a f ($a, $a), $a x, $a y) { return f (x, y); }"


def _fold_vars(spec: ProgramSpec) -> list[str]:
    return [f"f{op.args[0]}" for op in spec.ops if op.kind == "fold"]


def _used_arrays(spec: ProgramSpec) -> set[int]:
    used = set()
    for op in spec.ops:
        if op.kind == "map":
            used.update(op.args[2:4])
        elif op.kind == "zip":
            used.update(op.args[2:5])
        elif op.kind in ("copy",):
            used.update(op.args)
        elif op.kind == "scan":
            used.update(op.args[1:3])
        elif op.kind == "fold":
            used.add(op.args[3])
        elif op.kind == "chain":
            used.update(op.args[4:6])
        elif op.kind == "argfold":
            used.add(op.args[0])
    if spec.return_array:
        used.add(0)
    if not used:
        used.add(0)
    return used


def _used_kernels(spec: ProgramSpec) -> set[str]:
    used = set()
    for op in spec.ops:
        if op.kind in ("map", "zip"):
            used.add(op.args[0])
        elif op.kind == "fold":
            used.add(op.args[1])
        elif op.kind == "chain":
            used.add(op.args[0])
            used.add(op.args[2])
    for i in _used_arrays(spec):
        used.add(f"init{i}")
    return used


def _argfold_op(spec: ProgramSpec) -> OpSpec | None:
    return next((op for op in spec.ops if op.kind == "argfold"), None)


def _sinit_op(spec: ProgramSpec) -> OpSpec | None:
    return next((op for op in spec.ops if op.kind == "sinit"), None)


def _render_sinit_decls(spec: ProgramSpec, op: OpSpec) -> list[str]:
    """An init kernel outside the vectorizer's subset (a loop) and the
    identity conversion its fold needs.  Values are small non-negative
    integers, exact in every element type."""
    t, mult, mod, trips = op.args
    last = f"ix[{spec.dim - 1}]"
    return [
        f"{t} sinit (Index ix) {{",
        f"  {t} s = 0;",
        "  int i;",
        f"  for (i = 0; i < {trips}; i++) "
        f"s = s + (ix[0] * {mult} + {last} + i) % {mod};",
        "  return s;",
        "}",
        f"{t} sid ({t} v, Index ix) {{ return v; }}",
    ]


def _render_argfold_decls(spec: ProgramSpec, op: OpSpec) -> list[str]:
    """The record type, its conversion kernel and the selective fold."""
    _, key_abs, cmp_op, tie, guard = op.args
    flag = guard == "flag"
    pos = "ix[0]" if spec.dim == 1 else f"ix[0] * {spec.shape[1]} + ix[1]"
    key = "abs ({}.val)" if key_abs else "{}.val"
    kx, ky = key.format("x"), key.format("y")
    lifted = "int lim, " if guard is not None and not flag else ""
    lines = [
        f"struct _arec {{{spec.elem} val; int pos;{' int ok;' if flag else ''}}};",
        "typedef struct _arec arec;",
        "arec mkrec (" + spec.elem + " v, Index ix) {",
        "  arec r;",
        "  r.val = v;",
        f"  r.pos = {pos};",
    ]
    if flag:
        lines.append(f"  r.ok = ({pos}) % 3;")
    lines += [
        "  return r;",
        "}",
        f"arec pickrec ({lifted}arec x, arec y) {{",
    ]
    if flag:
        lines += ["  if (x.ok && !y.ok) return x;", "  if (!x.ok) return y;"]
    elif guard is not None:
        lines += ["  if (x.pos < lim) return y;", "  if (y.pos < lim) return x;"]
    lines += [
        f"  if ({kx} {cmp_op} {ky}) return x;",
        f"  if ({ky} {cmp_op} {kx}) return y;",
        f"  if (x.pos {tie} y.pos) return x;",
        "  return y;",
        "}",
    ]
    return lines


def render(spec: ProgramSpec) -> str:
    """Deterministically render a spec to Skil source text."""
    elem = spec.elem
    lines: list[str] = []
    if spec.use_pardata:
        lines.append("pardata dvec <$t>;")
        lines.append("")
    argfold = _argfold_op(spec)
    if argfold is not None:
        lines += _render_argfold_decls(spec, argfold)
    sinit = _sinit_op(spec)
    if sinit is not None:
        lines += _render_sinit_decls(spec, sinit)

    used_k = _used_kernels(spec)
    for k in spec.kernels:
        if k.name not in used_k:
            continue
        t = "$t" if k.poly else elem
        lifted = [f"{t} c{i}" for i in range(k.n_lifted)]
        if k.kind == "init":
            params = ["Index ix"]
            ret = elem
        elif k.kind in ("map", "conv"):
            params = lifted + [f"{t} v", "Index ix"]
            ret = t
        else:  # zip
            params = lifted + [f"{t} x", f"{t} y", "Index ix"]
            ret = t
        lines.append(
            f"{ret} {k.name} ({', '.join(params)}) {{ return {k.body}; }}"
        )
    fold_vars = _fold_vars(spec)
    use_hof = spec.use_hof and len(fold_vars) >= 2 and not spec.return_array
    if use_hof:
        lines.append(_HOF_TEXT)
    lines.append("")

    ret_t = f"array<{elem}>" if spec.return_array else elem
    lines.append(f"{ret_t} entry () {{")
    used_a = sorted(_used_arrays(spec))
    chain_ids = [op.args[6] for op in spec.ops if op.kind == "chain"]
    names = ", ".join(
        [f"a{i}" for i in used_a] + [f"c{i}" for i in chain_ids]
    )
    lines.append(f"  array<{elem}> {names};")
    for v in fold_vars:
        lines.append(f"  {elem} {v};")
    if use_hof:
        lines.append(f"  {elem} t0;")
    if argfold is not None:
        lines.append("  arec r0;")
    if sinit is not None:
        lines.append(f"  array<{sinit.args[0]}> s0;")
        lines.append(f"  {sinit.args[0]} g0;")

    size = "{" + ", ".join(str(s) for s in spec.shape) + "}"
    zeros = "{" + ", ".join("0" for _ in spec.shape) + "}"
    negs = "{" + ", ".join("-1" for _ in spec.shape) + "}"
    for i in used_a:
        lines.append(
            f"  a{i} = array_create ({spec.dim}, {size}, {zeros}, {negs}, "
            f"init{i}, {spec.distr});"
        )

    for op in spec.ops:
        if op.kind == "map":
            name, lifted, src, dst = op.args
            fn = f"{name} ({', '.join(lifted)})" if lifted else name
            lines.append(f"  array_map ({fn}, a{src}, a{dst});")
        elif op.kind == "zip":
            name, lifted, a, b, dst = op.args
            fn = f"{name} ({', '.join(lifted)})" if lifted else name
            lines.append(f"  array_zip ({fn}, a{a}, a{b}, a{dst});")
        elif op.kind == "copy":
            src, dst = op.args
            if src != dst:
                lines.append(f"  array_copy (a{src}, a{dst});")
        elif op.kind == "scan":
            comb, src, dst = op.args
            if src != dst:
                lines.append(f"  array_scan ({comb}, a{src}, a{dst});")
        elif op.kind == "fold":
            i, conv, comb, arr = op.args
            lines.append(f"  f{i} = array_fold ({conv}, {comb}, a{arr});")
        elif op.kind == "chain":
            k1, l1, k2, l2, src, dst, cid = op.args
            f1 = f"{k1} ({', '.join(l1)})" if l1 else k1
            f2 = f"{k2} ({', '.join(l2)})" if l2 else k2
            lines.append(
                f"  c{cid} = array_create ({spec.dim}, {size}, {zeros}, "
                f"{negs}, init{src}, {spec.distr});"
            )
            lines.append(f"  array_map ({f1}, a{src}, c{cid});")
            lines.append(f"  array_map ({f2}, c{cid}, a{dst});")
            lines.append(f"  array_destroy (c{cid});")
        elif op.kind == "argfold":
            arr, guard = op.args[0], op.args[4]
            pick = "pickrec" if guard in (None, "flag") else f"pickrec ({guard})"
            lines.append(f"  r0 = array_fold (mkrec, {pick}, a{arr});")
        elif op.kind == "sinit":
            lines.append(
                f"  s0 = array_create ({spec.dim}, {size}, {zeros}, {negs}, "
                f"sinit, {spec.distr});"
            )
            lines.append("  g0 = array_fold (sid, (+), s0);")
            lines.append("  array_destroy (s0);")

    if spec.return_array:
        for i in used_a[1:]:
            lines.append(f"  array_destroy (a{i});")
        lines.append("  return a0;")
    else:
        # the record's value and its (unique) position, both observable
        terms = ["(r0.val * 64 + r0.pos)"] if argfold is not None else []
        if sinit is not None:
            terms.append(f"(({elem}) g0)")
        if use_hof:
            lines.append(f"  t0 = combine ((+), {fold_vars[0]}, {fold_vars[1]});")
            for v in fold_vars[2:]:
                lines.append(f"  t0 = combine (min, t0, {v});")
            lines.append(f"  return ({' + '.join(['t0'] + terms)});"
                         if terms else "  return t0;")
        elif fold_vars or terms:
            expr = " + ".join(fold_vars + terms)
            lines.append(f"  return ({expr});")
        else:
            lines.append("  return 0;" if elem == "int" else "  return 0.0;")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the trial: round trip + differential execution
# ---------------------------------------------------------------------------
def _compare(expected, actual, elem: str) -> str | None:
    """None when equal (within tolerance for doubles), else a message."""
    if isinstance(expected, InterpArray):
        exp = expected.data
        act = actual.global_view() if hasattr(actual, "global_view") else actual
        act = np.asarray(act)
        if exp.shape != act.shape:
            return f"array shape mismatch: {exp.shape} vs {act.shape}"
        if elem == "int":
            if not np.array_equal(exp, act):
                bad = np.argwhere(exp != act)[:3]
                return (
                    f"array values differ at {bad.tolist()}: "
                    f"expected {exp[tuple(bad[0])]}, got {act[tuple(bad[0])]}"
                )
        elif not np.allclose(exp, act, rtol=1e-8, atol=1e-8):
            diff = np.max(np.abs(exp - act))
            return f"array values differ (max abs diff {diff})"
        return None
    if elem == "int":
        if int(expected) != int(actual):
            return f"scalar mismatch: expected {expected}, got {actual}"
        return None
    if not np.isclose(float(expected), float(actual), rtol=1e-8, atol=1e-8):
        return f"scalar mismatch: expected {expected}, got {actual}"
    return None


def _check_source(src: str, elem: str, ps: tuple[int, ...]) -> str | None:
    """Run all trial properties over *src*; None if OK, else a message."""
    from repro.lang.parser import parse
    from repro.lang.printer import print_program
    from repro.lang.typecheck import check
    from repro.lang.compiler import compile_skil
    from repro.machine.machine import Machine
    from repro.skeletons import SkilContext

    # 1. printer/parser round trip
    s1 = print_program(parse(src))
    try:
        p2 = parse(s1)
    except Exception as exc:
        return f"printed program no longer parses: {exc}\n--- printed ---\n{s1}"
    s2 = print_program(p2)
    if s1 != s2:
        return (
            "printer round trip is not a fixed point\n"
            f"--- first print ---\n{s1}\n--- second print ---\n{s2}"
        )
    try:
        check(p2)
    except Exception as exc:
        return f"printed program no longer type checks: {exc}\n--- printed ---\n{s1}"

    # 2. instantiated execution vs the AST interpreter oracle
    checked = check(parse(src))
    expected = Interp(checked).run("entry")
    mod = compile_skil(src)
    for p in ps:
        ctx = SkilContext(Machine(p))
        actual = mod.run("entry", ctx=ctx)
        msg = _compare(expected, actual, elem)
        if msg is not None:
            return f"p={p}: {msg}"

    # 3. the skeleton discovery & fusion pass preserves meaning exactly
    # (no tolerance: fusion composes kernels without reassociating)
    mod_u = compile_skil(src, fusion=False)
    mod_f = compile_skil(src, fusion=True)
    for p in ps:
        out_u = mod_u.run("entry", ctx=SkilContext(Machine(p)))
        out_f = mod_f.run("entry", ctx=SkilContext(Machine(p)))
        v_u = (
            np.asarray(out_u.global_view())
            if hasattr(out_u, "global_view")
            else out_u
        )
        v_f = (
            np.asarray(out_f.global_view())
            if hasattr(out_f, "global_view")
            else out_f
        )
        if isinstance(v_u, np.ndarray):
            ok = (
                isinstance(v_f, np.ndarray)
                and v_u.shape == v_f.shape
                and np.array_equal(v_u, v_f)
            )
        else:
            ok = np.asarray(v_u).item() == np.asarray(v_f).item()
        if not ok:
            return (
                f"p={p}: fused program disagrees with unfused\n"
                f"unfused: {v_u!r}\nfused:   {v_f!r}"
            )
    return None


@contextmanager
def associative_record_folds():
    """Silence ``array_fold``'s missing-associativity warning.

    ``pickrec`` is associative by construction, but Skil has no way to
    declare it, so every generated record fold would warn.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", "array_fold: the folding function", UserWarning
        )
        yield


def _trial_ps(spec: ProgramSpec) -> tuple[int, ...]:
    """The processor counts a trial runs its program on."""
    return (1, 2) if spec.seed % 2 == 0 else (1, 3 if spec.dim == 1 else 4)


def _coverage_keys(spec: ProgramSpec) -> list[str]:
    """What a passing trial exercised: its ops, whether its record fold
    met partitions of unequal size, and its scalar-init element type."""
    from repro.arrays.darray import default_grid
    from repro.arrays.distribution import BlockDistribution
    from repro.machine.machine import Machine

    keys = [f"op.{op.kind}" for op in spec.ops]
    if _argfold_op(spec) is not None:
        for p in _trial_ps(spec):
            grid = default_grid(Machine(p), spec.dim, spec.distr)
            sizes = BlockDistribution(spec.shape, grid).part_sizes()
            if sizes.min() != sizes.max():
                keys.append("argfold.ragged")
                break
    sinit = _sinit_op(spec)
    if sinit is not None:
        keys.append(f"create.scalar.{sinit.args[0]}")
    return keys


def run_trial(seed: int) -> tuple[str, str] | None:
    """One fuzz trial.  Returns None on success, (stage, detail) on failure."""
    spec = generate_spec(seed)
    return _run_spec(spec)


def _run_spec(spec: ProgramSpec) -> tuple[str, str] | None:
    from repro.obs.metrics import isolated_metrics

    src = render(spec)
    ps = _trial_ps(spec)
    try:
        # the compiler front end reports into the process-global
        # registry; isolate it so trials don't leak into each other
        with isolated_metrics(), associative_record_folds():
            msg = _check_source(src, spec.elem, ps)
    except Exception:
        return ("exception", traceback.format_exc(limit=8))
    if msg is not None:
        return ("mismatch", msg)
    return None


# ---------------------------------------------------------------------------
# shrinking
# ---------------------------------------------------------------------------
def _shrink_candidates(spec: ProgramSpec):
    """Yield progressively smaller specs (each a full candidate)."""
    # drop one op at a time (from the back: later ops depend on earlier)
    for i in reversed(range(len(spec.ops))):
        yield replace(spec, ops=spec.ops[:i] + spec.ops[i + 1 :])
    # trivialise kernel bodies
    for i, k in enumerate(spec.kernels):
        trivial = {
            "init": "ix[0]" if spec.elem == "int" else "(ix[0] * 1 + 1)",
            "map": "v",
            "conv": "v",
            "zip": "(x + y)",
        }[k.kind]
        if k.body != trivial and not k.poly:
            ks = list(spec.kernels)
            ks[i] = replace(k, body=trivial)
            yield replace(spec, kernels=ks)
    # shed the optional structure
    if spec.use_pardata:
        yield replace(spec, use_pardata=False)
    if spec.use_hof:
        yield replace(spec, use_hof=False)
    if spec.return_array:
        yield replace(spec, return_array=False)
    # shrink the shape
    min_shape = (6,) if spec.dim == 1 else (4, 4)
    if spec.shape != min_shape:
        yield replace(spec, shape=min_shape)
    if spec.distr != "DISTR_DEFAULT":
        yield replace(spec, distr="DISTR_DEFAULT")


def shrink(spec: ProgramSpec, stage: str, budget: int = 120) -> ProgramSpec:
    """Greedy spec-level shrink keeping a failure of the same *stage*."""
    attempts = 0
    improved = True
    while improved and attempts < budget:
        improved = False
        for cand in _shrink_candidates(spec):
            attempts += 1
            if attempts >= budget:
                break
            res = _run_spec(cand)
            if res is not None and res[0] == stage:
                spec = cand
                improved = True
                break
    return spec


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------
def run_fuzz(
    seed: int = 0,
    budget: int = 100,
    time_budget: float | None = None,
    verbose: bool = False,
) -> CheckResult:
    """Run *budget* fuzz trials derived from *seed* (time-boxed)."""
    res = CheckResult("fuzz")
    t0 = time.monotonic()
    for i in range(budget):
        if time_budget is not None and time.monotonic() - t0 > time_budget:
            break
        trial_seed = seed * 1_000_003 + i
        res.trials += 1
        out = run_trial(trial_seed)
        if out is None:
            for key in _coverage_keys(generate_spec(trial_seed)):
                res.coverage[key] = res.coverage.get(key, 0) + 1
            continue
        stage, detail = out
        minimal = shrink(generate_spec(trial_seed), stage)
        res.failures.append(
            Failure(
                pillar="fuzz",
                seed=trial_seed,
                title=f"fuzz trial failed ({stage})",
                detail=detail,
                reproducer=render(minimal),
                replay=(
                    f"PYTHONPATH=src python -m repro.check fuzz "
                    f"--seed {trial_seed} --budget 1 --raw-seed"
                ),
            )
        )
        if verbose:
            print(f"fuzz seed {trial_seed}: {stage}")
    return res


def run_fuzz_raw(seed: int, budget: int = 1) -> CheckResult:
    """Replay exact trial seeds (what a failure's replay command uses)."""
    res = CheckResult("fuzz")
    for i in range(budget):
        trial_seed = seed + i
        res.trials += 1
        out = run_trial(trial_seed)
        if out is not None:
            stage, detail = out
            minimal = shrink(generate_spec(trial_seed), stage)
            res.failures.append(
                Failure(
                    pillar="fuzz",
                    seed=trial_seed,
                    title=f"fuzz trial failed ({stage})",
                    detail=detail,
                    reproducer=render(minimal),
                    replay=(
                        f"PYTHONPATH=src python -m repro.check fuzz "
                        f"--seed {trial_seed} --budget 1 --raw-seed"
                    ),
                )
            )
    return res

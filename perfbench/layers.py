"""Where the layer spans go: the public functions of each ``repro`` layer.

Functions are wrapped where they are bound at call time.  Methods are
replaced on their class, so every call site sees the wrapper.  A
module-level function is replaced in *every* loaded ``repro`` module
that holds it, because ``from m import f`` copies the binding into the
importing module; wrapping only the defining module would miss those
calls.  Functions imported inside a function body (``try_vectorize`` in
``repro.lang.codegen``, ``fuse_program`` in the compiler) read the
defining module at call time and so see the wrapper too.

Skeleton argument functions (the app kernels) are never wrapped: the
skeletons read attributes and code off them, and a skeleton's self time
is meant to include the kernels it runs.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from dataclasses import dataclass, field

from perfbench.spans import LayerTracer, is_generator_like

__all__ = ["MODULES", "install", "Installed"]

#: layer prefix -> (module, function names) for module-level functions
FUNCTIONS: list[tuple[str, str, tuple[str, ...]]] = [
    ("apps", "repro.apps.shortest_paths", ("shpaths", "random_distance_matrix")),
    ("apps", "repro.apps.gauss", ("gauss_simple", "gauss_full", "random_system")),
    ("apps", "repro.apps.matmul", ("matmul",)),
    ("baselines", "repro.baselines.parix_c",
     ("make_c_machine", "shpaths_c", "gauss_c", "matmul_c")),
    ("baselines", "repro.baselines.dpfl",
     ("dpfl_context", "shpaths_dpfl", "gauss_dpfl", "matmul_dpfl")),
    ("arrays", "repro.arrays.darray", ("default_grid",)),
    ("arrays", "repro.arrays.pardata", ("pooled_buffer", "release_buffer")),
    ("lang", "repro.lang.compiler", ("compile_skil",)),
    ("lang.runtime", "repro.lang.runtime", (
        "make_kernel", "section", "dtype_of", "register_struct", "struct_dtype",
        "new_struct", "log2", "sqrt", "array_create", "array_create_uninit",
        "array_destroy", "array_map", "array_fold", "array_copy",
        "array_broadcast_part", "array_permute_rows", "array_gen_mult",
        "array_gen_mult_square", "array_zip", "array_scan",
    )),
    ("obs.analysis", "repro.obs.analysis", ("analyze_machine", "analyze_stream")),
    ("obs.export", "repro.obs.export", ("write_chrome_trace",)),
]

#: compiler phases: span name -> (module, function)
PHASES: dict[str, tuple[str, str]] = {
    "lang.parse": ("repro.lang.parser", "parse"),
    "lang.typecheck": ("repro.lang.typecheck", "check"),
    "lang.instantiate": ("repro.lang.instantiate", "instantiate_program"),
    "lang.fusion": ("repro.lang.fusion", "fuse_program"),
    "lang.codegen": ("repro.lang.codegen", "generate_python"),
    "lang.vectorize": ("repro.lang.vectorize", "try_vectorize"),
}

#: layer prefix -> (module, class names): every public method is wrapped
CLASSES: list[tuple[str, str, tuple[str, ...]]] = [
    ("skeletons", "repro.skeletons.base", ("SkilContext",)),
    ("arrays", "repro.arrays.darray", ("DistArray",)),
    ("arrays", "repro.arrays.distribution", (
        "Bounds", "Distribution", "BlockDistribution", "CyclicDistribution",
        "BlockCyclicDistribution",
    )),
    ("machine.network", "repro.machine.network", ("Network",)),
    ("lang.runtime", "repro.lang.compiler", ("SkilModule",)),
    ("obs", "repro.obs.span", ("SpanTracer",)),
    ("obs", "repro.obs.timeline", ("Timeline",)),
    ("obs", "repro.obs.stream", (
        "StreamTimeline", "StreamObserver", "StreamSpanTracer", "SkeletonAgg",
        "ReservoirSampler", "SpanRing", "JsonlSpillWriter",
    )),
    ("obs", "repro.obs.metrics", ("MetricsRegistry", "Counter", "Gauge", "Histogram")),
]

#: every module the wrappers touch; imported before :func:`install`
MODULES = sorted(
    {m for _, m, _ in FUNCTIONS}
    | {m for m, _ in PHASES.values()}
    | {m for _, m, _ in CLASSES}
)


@dataclass
class Installed:
    """The wrappers in place; :meth:`remove` restores the originals."""

    undo: list[tuple[object, str, object]] = field(default_factory=list)
    #: ``try_vectorize`` attempts and successes (a non-None kernel)
    vectorize_calls: int = 0
    vectorize_hits: int = 0

    def remove(self) -> None:
        for owner, name, original in reversed(self.undo):
            setattr(owner, name, original)
        self.undo.clear()


def _rebind(installed: Installed, original, replacement) -> None:
    """Replace *original* under every name any loaded repro module binds it."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                installed.undo.append((mod, attr, original))
                setattr(mod, attr, replacement)


def _wrap_class(tracer: LayerTracer, installed: Installed, prefix: str, cls) -> None:
    for name, attr in list(vars(cls).items()):
        if name.startswith("_") and name != "__init__":
            continue
        if isinstance(attr, (staticmethod, classmethod)):
            inner = attr.__func__
            wrapped = type(attr)(tracer.wrap(f"{prefix}.{cls.__name__}.{name}", inner))
        elif inspect.isfunction(attr):
            if is_generator_like(attr):
                continue
            label = name if prefix == "skeletons" else f"{cls.__name__}.{name}"
            wrapped = tracer.wrap(f"{prefix}.{label}", attr)
        else:
            continue  # properties, constants
        installed.undo.append((cls, name, attr))
        setattr(cls, name, wrapped)


def install(tracer: LayerTracer) -> Installed:
    """Wrap every layer function listed above; returns the undo handle."""
    for m in MODULES:
        importlib.import_module(m)
    installed = Installed()
    for prefix, mod_name, names in FUNCTIONS:
        mod = sys.modules[mod_name]
        for name in names:
            original = getattr(mod, name)
            _rebind(installed, original, tracer.wrap(f"{prefix}.{name}", original))
    for span, (mod_name, name) in PHASES.items():
        original = getattr(sys.modules[mod_name], name)
        fn = original
        if span == "lang.vectorize":
            fn = _counting_vectorize(installed, original)
        _rebind(installed, original, tracer.wrap(span, fn))
    for prefix, mod_name, names in CLASSES:
        mod = sys.modules[mod_name]
        for name in names:
            _wrap_class(tracer, installed, prefix, getattr(mod, name))
    return installed


def _counting_vectorize(installed: Installed, try_vectorize):
    def counted(*args, **kwargs):
        src = try_vectorize(*args, **kwargs)
        installed.vectorize_calls += 1
        installed.vectorize_hits += src is not None
        return src

    return counted

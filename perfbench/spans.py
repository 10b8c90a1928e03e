"""Layer spans around the public functions of ``phasetoda``.

``Tracer.install()`` replaces each traced function or method with a wrapper
that times the call and charges it to a layer such as ``algebra.mul``.  A
function is replaced in every ``phasetoda`` module that holds it, because
modules import names (``det_exact`` is bound in ``toda.context`` as well as
in ``algebra.matrix``); a method is replaced on its class, under every name
that refers to it (``__rmul__`` is ``__mul__``).  Nothing inside the
program changes: the spans sit on the boundaries between its layers.

Spans are aggregated in memory as they close.  A layer's self time is the
time inside its spans minus the time inside the spans they caused.  A call
made while the same layer is already innermost (``__sub__`` calling
``__neg__`` and ``__add__``) belongs to the open span and is not a call of
its own; ``entries`` still counts it, for the cross-check against cProfile.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

from phasetoda import algebra, combinatorics, phase, symfunc, toda


class Layer:
    __slots__ = ("name", "calls", "self_s", "counts", "watch", "with_child", "raised")

    def __init__(self, name: str, watch: tuple = ()):
        self.name = name
        self.calls = 0
        self.self_s = 0.0
        self.counts: dict = {}
        # child layers whose presence under a span of this layer is counted
        self.watch = watch
        self.with_child = dict.fromkeys(watch, 0)
        self.raised: dict = {}


class Tracer:
    def __init__(self):
        self.layers: dict = {}
        self.entries: dict = {}  # original function -> calls or resumptions
        self._stack: list = []  # open spans: [layer, start, child time, kids]
        self._undo: list = []

    # -- spans ----------------------------------------------------------------

    def layer(self, name: str, watch: tuple = ()) -> Layer:
        if name not in self.layers:
            self.layers[name] = Layer(name, watch)
        return self.layers[name]

    def _open(self, layer: Layer) -> list:
        stack = self._stack
        if stack:
            parent = stack[-1]
            if parent[0].watch and layer.name in parent[0].watch:
                parent[3].add(layer.name)
        frame = [layer, 0.0, 0.0, set() if layer.watch else None]
        stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def _close(self, frame: list, call: bool = True) -> None:
        end = perf_counter()
        stack = self._stack
        stack.pop()
        layer = frame[0]
        duration = end - frame[1]
        layer.calls += call
        layer.self_s += duration - frame[2]
        if frame[3]:
            for name in frame[3]:
                layer.with_child[name] += 1
        if stack:
            stack[-1][2] += duration

    def _in(self, layer: Layer) -> bool:
        return bool(self._stack) and self._stack[-1][0] is layer

    def wrap_call(self, fn, layer: Layer, count=None):
        """Wrapper of fn that charges each call to layer; count(args, result)
        adds to the layer's counters."""
        entries = self.entries
        entries.setdefault(fn, 0)

        def traced(*args, **kwargs):
            entries[fn] += 1
            if self._in(layer):
                return fn(*args, **kwargs)
            frame = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                name = type(exc).__name__
                layer.raised[name] = layer.raised.get(name, 0) + 1
                raise
            finally:
                self._close(frame)
            if count is not None:
                count(layer.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_count(self, fn, layer: Layer, key: str):
        """Wrapper of fn that only counts its calls under layer.counts[key]."""
        entries = self.entries
        entries.setdefault(fn, 0)
        counts = layer.counts
        counts.setdefault(key, 0)

        def counted(*args, **kwargs):
            entries[fn] += 1
            counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def wrap_iter(self, fn, layer: Layer):
        """Wrapper of a function returning an iterator: each call starts an
        enumeration, each step of the iterator is a span of layer, and each
        item yielded is an object."""
        entries = self.entries
        entries.setdefault(fn, 0)
        resumptions = inspect.isgeneratorfunction(fn)
        counts = layer.counts
        counts.setdefault("objects", 0)

        def steps(it):
            while True:
                if resumptions:
                    entries[fn] += 1
                if self._in(layer):
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                else:
                    frame = self._open(layer)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(frame, call=False)
                counts["objects"] += 1
                yield item

        def traced(*args, **kwargs):
            if not resumptions:
                entries[fn] += 1
            layer.calls += 1
            return steps(iter(fn(*args, **kwargs)))

        traced.__wrapped__ = fn
        return traced

    # -- patching ---------------------------------------------------------------

    def patch_function(self, fn, wrapper) -> None:
        """Replace fn by wrapper in every loaded phasetoda module."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "phasetoda" or modname.startswith("phasetoda.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def patch_method(self, cls, fn, wrapper) -> None:
        for attr, value in list(vars(cls).items()):
            if value is fn:
                self._undo.append((cls, attr, value))
                setattr(cls, attr, wrapper)

    def install(self) -> None:
        for (owner, fn), layer, kind, count in _targets(self):
            if kind == "iter":
                wrapper = self.wrap_iter(fn, layer)
            elif kind == "count":
                wrapper = self.wrap_count(fn, layer, count)
            elif kind == "scalar":
                wrapper = _scalar_wrapper(self, fn)
            else:
                wrapper = self.wrap_call(fn, layer, count)
            if inspect.isclass(owner):
                self.patch_method(owner, fn, wrapper)
            else:
                self.patch_function(fn, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- report -----------------------------------------------------------------

    def report(self) -> dict:
        """Plain-data snapshot of every layer."""
        return {
            name: {
                "calls": layer.calls,
                "self_s": layer.self_s,
                "counts": dict(layer.counts),
                "with_child": dict(layer.with_child),
                "raised": dict(layer.raised),
            }
            for name, layer in self.layers.items()
        }


# -- counters -----------------------------------------------------------------


def _count_mul(counts: dict, args: tuple, result) -> None:
    a, b = args
    terms_b = len(b.terms) if isinstance(b, algebra.MultiPoly) else 1
    counts["term_products"] = counts.get("term_products", 0) + len(a.terms) * terms_b
    if isinstance(result, algebra.MultiPoly):
        counts["terms_out"] = counts.get("terms_out", 0) + len(result.terms)


class MissingTarget(LookupError):
    """A function or method the tracer must wrap no longer exists."""


def _method(cls, name: str):
    fn = vars(cls).get(name)
    if fn is None:
        raise MissingTarget(f"cannot trace {cls.__module__}.{cls.__qualname__}.{name}: no such method")
    return cls, fn


def _function(module, name: str):
    fn = getattr(module, name, None)
    if fn is None:
        raise MissingTarget(f"cannot trace {getattr(module, '__name__', module)}.{name}: no such function")
    return module, fn


def _module_of(fn):
    return sys.modules.get(getattr(fn, "__module__", ""), None)


_SCALAR_METHODS = ("fock_pairing", "schur_sum", "determinant")


def _targets(tracer: Tracer):
    """(owner and function, layer, kind, counter) of everything to wrap; kind
    is 'call', 'iter' (returns an iterator), 'count' (no span, the counter
    names the count) or 'scalar' (one layer per method).

    Functions are found through the package's public names, so a function
    that moves between modules is still found.  One that no longer exists
    raises MissingTarget, so that a renamed function fails the traced run
    instead of leaving its layer reading zero."""
    L = tracer.layer
    mp, rp, ctx = algebra.MultiPoly, algebra.RatioPoly, toda.TauContext
    mul, add = L("algebra.mul"), L("algebra.add")
    out = [(_method(mp, "__mul__"), mul, "call", _count_mul)]
    out += [(_method(mp, n), add, "call", None) for n in ("__add__", "__sub__", "__rsub__", "__neg__")]
    out.append((_method(mp, "divide_exact"), L("algebra.divide_exact"), "call", None))
    out.append((_method(mp, "subs"), L("algebra.subs"), "call", None))
    ratio = L("algebra.ratio")
    out += [
        (_method(rp, n), ratio, "call", None)
        for n in ("__init__", "__add__", "__sub__", "__rsub__", "__neg__", "__mul__",
                  "__truediv__", "__eq__", "diff", "den")
    ]
    out.append((_function(algebra, "reduce_pair"), ratio, "call", None))
    det, det_exact = L("algebra.det_exact"), _function(algebra, "det_exact")
    out.append((det_exact, det, "call", None))
    # fraction-free elimination is private to the determinant module: count
    # its calls under det_exact without opening a span
    out.append((_function(_module_of(det_exact[1]), "_det_bareiss"), det, "count", "bareiss_calls"))

    out.append((_method(ctx, "dressed"), L("toda.dressed"), "call", None))
    out.append((_method(ctx, "minor"), L("toda.minor", watch=("algebra.det_exact",)), "call", None))
    out.append((_function(toda, "restricted_context"), L("toda.restricted_context"), "call", None))
    out.append((_function(toda, "tau"), L("toda.tau"), "call", None))
    out.append((_function(toda, "wave_numerator"), L("toda.wave_numerator"), "call", None))
    out.append((_function(toda, "shifted_tau"), L("toda.shifted_tau"), "call", None))
    out.append((_function(toda, "bilinear_check"), L("toda.bilinear"), "call", None))
    linear = L("toda.linear")
    out += [
        (_function(toda, n), linear, "call", None)
        for n in ("hat_wave_matrix", "hat_wave_inverse", "full_wave_matrix", "full_wave_inverse",
                  "lax_matrices", "flow_generators", "check_initial_value_relation",
                  "check_wave_inverses", "check_linear_flow", "check_zakharov_shabat",
                  "verify_linear_problem")
    ]

    build = L("phase.build_state")
    out += [(_function(phase, n), build, "call", None) for n in ("build_state", "build_conj_state")]
    out.append((_function(phase, "pair"), L("phase.pair"), "call", None))
    out.append((_function(phase, "verify_rtt"), L("phase.verify_rtt"), "call", None))
    out.append(
        (_function(phase, "limit_correspondence"),
         L("phase.limit", watch=("toda.restricted_context",)), "call", None)
    )
    corr = L("phase.correlator")
    out += [
        (_function(phase, n), corr, "call", None)
        for n in ("correlator_one_hole", "correlator_seeded", "correlator_npoint", "boundary_correlator")
    ]
    single = L("phase.single_det")
    out += [
        (_function(phase, n), single, "call", None)
        for n in ("one_hole_det", "npoint_det", "single_det_form", "one_hole_stack_check",
                  "one_point_stack_check", "recursion_expand_check")
    ]
    out.append((_function(phase, "scalar_product"), None, "scalar", None))

    for n in ("schur", "hk", "zeta_all", "char_poly", "miwa_map"):
        out.append((_function(symfunc, n), L(f"symfunc.{n}"), "call", None))

    enum = L("combinatorics.enumerate")
    out += [
        (_function(combinatorics, n), enum, "iter", None)
        for n in ("enumerate_plane_partitions", "enumerate_path_configs", "enumerate_tableaux",
                  "upper_diagonal", "lower_diagonal")
    ]
    bij = L("combinatorics.bijection")
    out += [
        (_function(combinatorics, n), bij, "call", None)
        for n in ("path_to_pp", "pp_to_path", "pp_half_to_tableau", "tableau_to_pp_half",
                  "combine_halves", "occupation_to_partition", "partition_to_occupation")
    ]
    weighted = L("combinatorics.weighted_sum")
    out += [
        (_function(combinatorics, n), weighted, "call", None)
        for n in ("weighted_sum_f", "weighted_sum_g", "weighted_sum_psi1", "weighted_sum_psi2")
    ]
    out.append((_function(combinatorics, "partitions_in_box"), L("combinatorics.partitions_in_box"), "call", None))
    return out


def _scalar_wrapper(tracer: Tracer, fn):
    """scalar_product is charged to one layer per method."""
    wrapped = {m: tracer.wrap_call(fn, tracer.layer(f"phase.scalar_product.{m}")) for m in _SCALAR_METHODS}

    def by_method(n, m, u_values, v_values, method="fock_pairing"):
        return wrapped.get(method, fn)(n, m, u_values, v_values, method)

    by_method.__wrapped__ = fn
    return by_method

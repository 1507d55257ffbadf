"""Span tracer for the traced benchmark run.

The tracer wraps public functions and operators of knotdeform at run time,
from outside the package, and records one span per call: name, start, end
and parent.  A name is patched where its caller looks it up: riley.py
imports ``evaluate_word`` into its own namespace, so the wrapper goes on
``knotdeform.riley.evaluate_word``; a method goes on its class.  The
patches are installed only around a traced operation and removed after
it, so untraced operations and the result checks run unwrapped code.

A patch is of one of two kinds, and either kind may add size counters
(letters, term products, ...) from the arguments or the result:

* span  -- opens a span; its self time is its duration minus the time
           covered by its child spans;
* count -- counts calls and nothing else.  Used for the operators called
           millions of times per run (``RingElement.__mul__``, the sparse
           polynomial product), whose time stays in the caller's self time,
           and for the probes installed around untraced operations.

Spans stay in memory and are written out once, at the end of the run.
"""

import gzip
import json
import time
from collections import defaultdict
from contextlib import contextmanager

_MISSING = object()


class Tracer:
    def __init__(self):
        self.names = []  # span name table; spans refer to names by index
        self._name_ids = {}
        self.spans = []  # (op index, name id, start, end, parent span index)
        self._stack = []  # [span index, name, start, seconds covered by children]
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.sizes = defaultdict(int)
        self.op = -1
        self.reducers = {}  # TraceReducer instances seen in the current op

    def _name_id(self, name):
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name):
        self._stack.append([len(self.spans), name, time.perf_counter(), 0.0])
        self.spans.append(None)

    def close(self):
        end = time.perf_counter()
        idx, name, start, children = self._stack.pop()
        duration = end - start
        parent = self._stack[-1][0] if self._stack else -1
        self.spans[idx] = (self.op, self._name_id(name), start, end, parent)
        self.self_s[name] += duration - children
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][3] += duration
        return duration, children

    @contextmanager
    def probing(self, patches):
        """Install the patches for the duration of the block."""
        undo = [_install(self, patch) for patch in patches]
        try:
            yield
        finally:
            for restore in reversed(undo):
                restore()

    @contextmanager
    def traced_op(self, index, patches):
        """Install the patches, open the op's root span, undo both after."""
        self.op = index
        self.reducers.clear()
        with self.probing(patches):
            self.open("op")
            try:
                yield
            finally:
                duration, covered = self.close()
            self.sizes["trace.op_us"] += round(duration * 1e6)
            self.sizes["trace.covered_us"] += round(covered * 1e6)
            self.sizes["charvariety.memo_size"] += sum(
                len(r._memo) for r in self.reducers.values()
            )

    def write(self, path):
        """Spans as gzip'd JSON lines: a header with the name table, then
        [op, name id, start us, end us, parent] per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = min((s[2] for s in self.spans if s), default=0.0)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for op, name, start, end, parent in filter(None, self.spans):
                fh.write(
                    f"[{op},{name},{(start - t0) * 1e6:.1f},"
                    f"{(end - t0) * 1e6:.1f},{parent}]\n"
                )


class Patch:
    """Wrap ``owner.attr`` under ``name``.

    ``kind`` is "span" or "count".  ``pre(tracer, args)`` and
    ``post(tracer, args, result)`` may add size counters.
    """

    __slots__ = ("owner", "attr", "name", "kind", "pre", "post")

    def __init__(self, owner, attr, name, kind="span", pre=None, post=None):
        self.owner, self.attr, self.name, self.kind = owner, attr, name, kind
        self.pre, self.post = pre, post


def _install(tracer, patch):
    owner, attr = patch.owner, patch.attr
    own = vars(owner).get(attr, _MISSING)
    original = getattr(owner, attr)
    setattr(owner, attr, _wrapper(tracer, patch, original))

    def restore():
        if own is _MISSING:
            delattr(owner, attr)  # the attribute was inherited
        else:
            setattr(owner, attr, own)

    return restore


def _wrapper(tracer, patch, fn):
    name, pre, post = patch.name, patch.pre, patch.post
    calls = tracer.calls
    if patch.kind == "count":
        if pre is None:

            def counted(*args):
                calls[name] += 1
                return fn(*args)

        else:

            def counted(*args):
                calls[name] += 1
                pre(tracer, args)
                result = fn(*args)
                if post is not None:
                    post(tracer, args, result)
                return result

        return counted

    def spanned(*args, **kwargs):
        if pre is not None:
            pre(tracer, args)
        tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close()
        if post is not None:
            post(tracer, args, result)
        return result

    return spanned


def _add(key, fn):
    def hook(tracer, args, result=None):
        tracer.sizes[key] += fn(args, result)

    return hook


def _poly_term_products(tracer, args):
    a, b = args
    if not isinstance(b, int):
        tracer.sizes["polynomials.mul.term_products"] += len(a.terms) * len(b.terms)


def _remember_reducer(tracer, args):
    tracer.reducers[id(args[0])] = args[0]


def _riley_cache():
    from knotdeform import riley

    return riley._riley_data  # the lru_cache behind riley_data


def _cache_mark(tracer, args):
    tracer.sizes["riley.cache_hits"] -= _riley_cache().cache_info().hits


def _cache_hits(tracer, args, result):
    tracer.sizes["riley.cache_hits"] += _riley_cache().cache_info().hits


def cache_probes(kd):
    """Count patches for the untraced run of each op.

    riley.cache_hits counts the hits of riley_data's cache on the
    benchmark's own riley_data calls.  riley_roots and curve_model call
    riley_data again for the same knot by design, so those hits are not
    counted.  The probe sits on the untraced run, where the op meets the
    cache as the earlier ops left it; the traced repeat may run on an empty
    cache of its own (Workload.fresh_caches).
    """
    return [Patch(kd, "riley_data", "riley.cache_probe", "count",
                  pre=_cache_mark, post=_cache_hits)]


def _instances(args, report):
    return sum(report.checked.values())


def knotdeform_patches(kd):
    """Every patch of the traced run, for the imported package ``kd``."""
    from knotdeform import charvariety, deform, polynomials, pseudorep, riley, series

    def spans(name, *owners, attr=None, **hooks):
        attr = attr or name.rsplit(".", 1)[1]
        return [Patch(owner, attr, name, **hooks) for owner in owners]

    letters = _add("words.letters", lambda args, _: len(args[0]))
    disc_bits = _add("polynomials.disc_bits", lambda _, r: abs(r).bit_length())
    phi_terms = _add("polynomials.phi_terms", lambda _, r: len(r[0].terms))
    trace_terms = _add("charvariety.terms", lambda _, r: len(r.terms))
    instances = _add("pseudorep.instances", _instances)

    patches = [
        # words: the W chain (riley), the relator check (deform), traces
        *spans("words.evaluate_word", riley, deform, pre=letters),
        # polynomials
        *spans("polynomials.symmetric_reduce", riley, post=phi_terms),
        *spans("polynomials.discriminant", riley, post=disc_bits),
        *spans("polynomials.substitute_u", polynomials),
        Patch(kd.LaurentBiPoly, "__mul__", "polynomials.mul", "count",
              pre=_poly_term_products),
        Patch(kd.BiPoly, "__mul__", "polynomials.mul", "count",
              pre=_poly_term_products),
        # riley: kd.* is where the benchmark itself looks names up
        *spans("riley.riley_data", riley, deform, charvariety, kd),
        *spans("riley.riley_roots", kd),
        *spans("riley.trace_of", kd.Representation),
        # charvariety
        *spans("charvariety.curve_model", kd, charvariety),
        *spans("charvariety.reduce", kd.TraceReducer, pre=_remember_reducer,
               post=trace_terms),
        *spans("charvariety.evaluate", kd.TracePolynomial),
        *spans("charvariety.evaluate_int", kd.TracePolynomial),
        # series
        *spans("series.newton_root", deform),
        *spans("series.eval_bipoly", series, deform),
        *spans("series.series_invert", series, deform),
        *spans("series.series_sqrt", deform),
        *spans("series.mul", kd.TruncSeries, attr="__mul__"),
        *spans("series.mul", kd.TruncSeries, attr="__rmul__"),
        # rings: counted only, the call rate is too high for spans
        Patch(kd.RingElement, "__mul__", "rings.mul", "count"),
        Patch(kd.RingElement, "__rmul__", "rings.mul", "count"),
        # deform
        *spans("deform.deformation_data", kd),
        *spans("deform.hensel_u", deform),
        *spans("deform.deformation_matrices", deform),
        *spans("deform.verify_deformation", deform),
        *spans("deform.character_check", kd),
        *spans("deform.ramified_check", kd),
        *spans("deform.specialization_point", kd),
        *spans("deform.specialize", kd),
        # pseudorep
        *spans("pseudorep.trace_table", kd),
        *spans("pseudorep.equivalence_harness", kd),
        *spans("pseudorep.check_axioms_P", kd, pseudorep, post=instances),
        *spans("pseudorep.check_axioms_C", pseudorep, post=instances),
    ]
    return patches

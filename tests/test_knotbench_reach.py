"""The benchmark's reach into the package.

knotbench/ reaches into knotdeform by name: its tracer wraps each
(owner, attr) of ``knotdeform_patches`` and ``cache_probes``, and the
riley ladder and reference.py rebuild or clear riley's ``_riley_data``
through the attributes of its lru_cache, and the tracer's
``charvariety.memo_size`` counter reads ``len(reducer._memo)``.  A
refactor that moves one of these names breaks the traced benchmark run;
this test fails first.
"""

from pathlib import Path

import knotdeform as kd

KNOTBENCH = Path(__file__).resolve().parent.parent / "knotbench"


def test_benchmark_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(KNOTBENCH))
    from tracer import cache_probes, knotdeform_patches

    patches = knotdeform_patches(kd) + cache_probes(kd)
    missing = [
        f"{getattr(p.owner, '__name__', p.owner)}.{p.attr}"
        for p in patches
        if not callable(getattr(p.owner, p.attr, None))
    ]
    assert not missing
    for attr in ("__wrapped__", "cache_clear"):
        assert hasattr(kd.riley._riley_data, attr)


def test_trace_reducer_memo_is_a_dict_that_grows():
    reducer = kd.TraceReducer()
    assert isinstance(reducer._memo, dict) and not reducer._memo
    reducer.reduce("a b a^-1 b")
    assert len(reducer._memo) > 0

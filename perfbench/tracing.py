"""Layer tracing from outside the package.

The benchmark measures ``nefqvf`` without changing it: :func:`install`
replaces the public functions of each layer with wrappers that record a
span (name, start, end, parent, operation) and a few work counts, and
returns a function that puts the originals back.  Every name is patched
where its callers look it up: ``cli`` binds ``from .ldlr import ...`` and
``from .spiked import ...``, ``spiked`` keeps its tests in ``_TESTS`` and
calls the bound ``_SECH.sample``, and ``ldlr.channel_compare`` calls the
module-level ``ldlr_exact``.  Spans stay in memory; :meth:`Tracer.write`
stores them at the end of a run.

A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import json
import math
from collections import Counter
from time import perf_counter


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """In-memory span and counter store for one traced pass at a time."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, op, name, start, end, self_s)
        self.counts: Counter = Counter()
        self.op: str | None = None
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._next_id = 0

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    def wrap(self, fn, name: str, count=None):
        """``fn`` recorded as span ``name``; ``count(args, kwargs)`` adds to
        the counter ``name.<key>`` for each ``key: amount`` it returns."""
        stack, spans, counts = self._stack, self.spans, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[name + ".calls"] += 1
            if count is not None:
                for key, amount in count(args, kwargs).items():
                    counts[f"{name}.{key}"] += amount
            self._next_id += 1
            frame = [self._next_id, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append((frame[0], parent, self.op, name, start, end,
                              end - start - frame[1]))

        return traced

    def summary(self) -> dict[str, float]:
        """Self time in ms per span name, plus every counter."""
        out = Counter()
        for span in self.spans:
            out[f"{span[3]}.self_ms"] += span[6] * 1e3
        out.update(self.counts)
        return dict(out)

    def write(self, path, header: dict) -> None:
        """Write a header line, then one JSON line per span of the last pass."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, parent, op, name, start, end, self_s in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "op": op, "name": name,
                    "start_s": start, "end_s": end, "self_s": self_s,
                }) + "\n")


class _Patches:
    def __init__(self):
        self._saved: list[tuple] = []

    def attr(self, holders, attr: str, new) -> None:
        for holder in holders:
            self._saved.append((setattr, holder, attr, getattr(holder, attr)))
            setattr(holder, attr, new)

    def item(self, mapping: dict, key, new) -> None:
        self._saved.append((dict.__setitem__, mapping, key, mapping[key]))
        mapping[key] = new

    def undo(self) -> None:
        for setter, holder, key, old in reversed(self._saved):
            setter(holder, key, old)
        self._saved.clear()


def install(tracer: Tracer):
    """Wrap every traced layer function; return a callable that unwraps."""
    from nefqvf import cli, families, ldlr, orthopoly, spiked, translation
    from scipy.sparse.linalg import ArpackError, ArpackNoConvergence

    patches = _Patches()

    def layer(holders, attr, name, count=None):
        original = getattr(holders[0], attr)
        for holder in holders[1:]:
            if getattr(holder, attr) is not original:
                raise RuntimeError(f"{holder!r}.{attr} is not the {name} function")
        wrapped = tracer.wrap(original, name, count)
        patches.attr(holders, attr, wrapped)

    Fam = families.Family
    layer([Fam], "sample", "families.sample",
          lambda a, k: {"draws": _arg(a, k, 3, "count")})
    layer([Fam], "z_score", "families.z_score")

    layer([orthopoly, cli], "build_basis", "orthopoly.build_basis")
    layer([orthopoly.TruncSeries], "__call__", "orthopoly.series_eval")

    layer([translation, cli, ldlr, spiked], "build_translation_table",
          "translation.build_translation_table")

    layer([ldlr, cli], "ldlr_exact", "ldlr.ldlr_exact",
          lambda a, k: {"terms": math.comb(_arg(a, k, 0, "model").N + _arg(a, k, 1, "D"),
                                           _arg(a, k, 1, "D"))})
    layer([ldlr, cli], "ldlr_exact_additive", "ldlr.ldlr_exact_additive")
    layer([ldlr, cli], "channel_compare", "ldlr.channel_compare")
    layer([ldlr, cli], "overlap_bound_mc", "ldlr.overlap_bound_mc",
          lambda a, k: {"samples": _arg(a, k, 2, "samples")})
    layer([ldlr, cli], "sbm_ks_scan", "ldlr.sbm_ks_scan",
          lambda a, k: {"samples": _arg(a, k, 3, "samples") * len(_arg(a, k, 2, "grid"))})

    layer([spiked, cli], "sample_wig", "spiked.sample_wig")
    layer([spiked.WigInstance], "matrix", "spiked.matrix")
    layer([spiked], "score_transform", "spiked.score_transform",
          lambda a, k: {"entries": _arg(a, k, 0, "y").size})
    layer([spiked], "top_eigenvalue", "spiked.top_eigenvalue")
    layer([spiked, cli], "entrywise_ldlr_exact", "spiked.entrywise")
    layer([spiked, cli], "entrywise_ldlr_mc_bound", "spiked.entrywise")

    # a fallback is an eigsh raise that top_eigenvalue catches
    eigsh = spiked.eigsh

    @functools.wraps(eigsh)
    def counted_eigsh(*args, **kwargs):
        tracer.counts["spiked.eigsh.calls"] += 1
        try:
            return eigsh(*args, **kwargs)
        except (ArpackError, ArpackNoConvergence):
            tracer.counts["spiked.top_eigenvalue.fallbacks"] += 1
            raise

    patches.attr([spiked], "eigsh", counted_eigsh)

    # a short circuit is a mixed-test verdict reached without an eigen-solve,
    # however the matrix is built
    mixed = tracer.wrap(spiked.mixed_test, "spiked.mixed_test")

    @functools.wraps(mixed)
    def counted_mixed(*args, **kwargs):
        before = tracer.counts["spiked.top_eigenvalue.calls"]
        verdict = mixed(*args, **kwargs)
        if tracer.counts["spiked.top_eigenvalue.calls"] == before:
            tracer.counts["spiked.mixed_test.short_circuits"] += 1
        return verdict

    patches.attr([spiked, cli], "mixed_test", counted_mixed)
    patches.item(spiked._TESTS, "mixed", counted_mixed)
    patches.item(cli._TEST_FNS, "mixed", counted_mixed)

    layer([cli], "main", "cli.main")
    layer([cli], "write_report", "cli.write_report")
    return patches.undo

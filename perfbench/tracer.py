"""Span tracer that wraps the program's public functions from outside.

The program is not edited.  ``Tracer`` replaces each traced function by a
wrapper in every loaded module that bound it, because ``derived``,
``rewriting``, ``zoo``, ``cli`` and ``alexander`` import functions by name
(``from .fpgroup import tietze_simplify``), so patching the defining module
alone would miss those calls.  Methods are patched on their class.

Each call records a span ``[name, start, end, parent, counters]`` in
memory; a layer's self time is its span duration minus the time covered by
its child spans.  Counters (sizes, cache hits) are read from the arguments
and the result after the span has ended.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable


def _tietze(args, kwargs, result) -> dict:
    p, out = args[0], result.presentation
    return {"len_in": p.total_relator_length, "len_out": out.total_relator_length,
            "gens_removed": p.n_generators - out.n_generators}


def _rewrite(args, kwargs, result) -> dict:
    return {"raw_gens": result.n_generators, "raw_relators": result.n_relators,
            "raw_len": result.total_relator_length}


def _snf(args, kwargs, result) -> dict:
    return {"cells": args[0].rows * args[0].cols}


def _todd_coxeter(args, kwargs, result) -> dict:
    return {"cosets": result.n_cosets}


def _series(args, kwargs, result) -> dict:
    return {"stages": len(result.stages)}


def _alexander(args, kwargs, result) -> dict:
    return {"matrix_n": args[0].n_generators - 1}


def _cache_get(args, kwargs, result) -> dict:
    return {"hits": int(result is not None)}


# (defining module, qualified name, counter function or None)
TARGETS: tuple[tuple[str, str, Callable | None], ...] = (
    ("adorn.fpgroup", "tietze_simplify", _tietze),
    ("adorn.fpgroup", "parse_presentation", None),
    ("adorn.rewriting", "rewrite_presentation", _rewrite),
    ("adorn.abelian", "smith_normal_form", _snf),
    ("adorn.abelian", "abelianization_data", None),
    ("adorn.abelian", "abelianization", None),
    ("adorn.cosets", "todd_coxeter", _todd_coxeter),
    ("adorn.cosets", "commutator_coset_table", None),
    ("adorn.derived", "derived_series", _series),
    ("adorn.derived", "verify_filtration", None),
    ("adorn.alexander", "fox_derivative", None),
    ("adorn.alexander", "alexander_polynomial", _alexander),
    ("adorn.zoo", "make", None),
    ("adorn.zoo", "free_product_verdict", None),
    ("adorn.cli", "main", None),
    ("adorn.cli", "FileStepCache.get", _cache_get),
    ("adorn.cli", "FileStepCache.put", None),
)


def span_name(module: str, qualname: str) -> str:
    return f"{module.rpartition('.')[2]}.{qualname}"


class Tracer:
    """Context manager: while active, every call of a target records a span."""

    def __init__(self):
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable, counter: Callable | None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                rec[4] = counter(args, kwargs, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        replace: dict[int, Callable] = {}
        originals: dict[int, Any] = {}
        for modname, qualname, counter in TARGETS:
            owner: Any = importlib.import_module(modname)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = owner.__dict__[attr] if path else getattr(owner, attr)
            wrapper = self._wrap(span_name(modname, qualname), fn, counter)
            replace[id(fn)] = wrapper
            originals[id(fn)] = fn
            if path:  # a method: patch the class that defines it
                setattr(owner, attr, wrapper)
                self._undo.append((owner, attr, fn))
        for mod in list(sys.modules.values()):
            space = getattr(mod, "__dict__", None)
            if not isinstance(space, dict):
                continue
            for key, value in list(space.items()):
                if id(value) in replace and value is originals[id(value)]:
                    setattr(mod, key, replace[id(value)])
                    self._undo.append((mod, key, value))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def clear(self) -> None:
        self.spans.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, summed counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, counters) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
            for key, value in (counters or {}).items():
                row[key] += value
                row[f"max_{key}"] = max(row[f"max_{key}"], value)
        return out

    def write(self, path: str) -> None:
        """Spans as JSON lines: name, start, end, parent index, counters."""
        with open(path, "w") as fh:
            for name, start, end, parent, counters in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "counters": counters}) + "\n")

"""Per-layer spans and counters for cycliso, installed from outside the package.

The tracer replaces each traced function wherever the ``cycliso.*``
modules hold a reference to it: module globals (``cli`` and
``congruence`` import names directly), class dicts and dicts held in
globals (such as a builder table).  A layer that a later version moves or
deletes is reported as absent rather than failing the run.

Spans nest: each records its name, start, end and the span that was open
when it began.  Busy time of a name sums the spans that have no ancestor
of the same name; self time subtracts the spans directly beneath.
"""

import functools
import importlib
import sys
import time
from collections import Counter

# (module, attribute path, kind).  The layer is the module; "count" only
# counts calls, which keeps hot inner functions cheap to trace.
LAYERS = (
    ("cli", "main", "span"),
    ("monoid", "build_by_restrictions", "build"),
    ("monoid", "build_by_closure", "build"),
    ("monoid", "monoid_closure", "span"),
    ("monoid", "rank_search", "rank"),
    ("green", "green_J", "span"),
    ("green", "green_LRH", "span"),
    ("green", "green_oracle", "span"),
    ("cycle", "CycleMetric.is_partial_isometry", "count"),
    ("presentations", "check_satisfaction", "span"),
    ("congruence", "enumerate_quotient", "quotient"),
    ("congruence", "verify_defines", "span"),
    ("congruence", "check_tietze_bridge", "span"),
)


def layer_name(module, path):
    return f"{module}.{path.rsplit('.', 1)[-1]}"


def _resolve(module, path):
    """The object cycliso.<module>.<path> as defined, or None."""
    try:
        owner = importlib.import_module(f"cycliso.{module}")
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    return None if owner is None else vars(owner).get(attr)


def _cycliso_modules():
    return [
        (name, mod)
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "cycliso" or name.startswith("cycliso."))
    ]


def _containers():
    """Every namespace in the cycliso modules that may hold a function."""
    for name, mod in _cycliso_modules():
        yield mod
        for value in vars(mod).values():
            if isinstance(value, type) and value.__module__ == name:
                yield value
            elif isinstance(value, dict) and value is not vars(mod):
                yield value


def cache_clear_all():
    """Empty every lru_cache in the cycliso modules, so commands start cold."""
    for _, mod in _cycliso_modules():
        for value in list(vars(mod).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self._open = []
        self.counts = Counter()
        self.absent = []
        self._undo = []  # (container, key, original)

    def span(self, name, fn):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, open_[-1] if open_ else None]
            open_.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                open_.pop()

        return wrapper

    def _count(self, name, fn):
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counted_span(self, name, fn):
        return self._count(name, self.span(name, fn))

    def _build(self, name, fn):
        """Builders are cached; count a build only when the cache missed."""
        inner = self.span(name, fn)
        info = getattr(fn, "cache_info", None)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = info().misses if info else 0
            monoid = inner(*args, **kwargs)
            if info is None or info().misses > before:
                counts[name + ".calls"] += 1
                counts["monoid.size"] += len(monoid)
            return monoid

        if info:
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    def _rank(self, name, fn):
        inner = self.span(name, fn)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            report = inner(*args, **kwargs)
            counts[name + ".closures"] += (report.singles_checked or 0) + (
                report.pairs_checked or 0
            )
            return report

        return wrapper

    def _quotient(self, name, fn):
        inner = self.span(name, fn)
        counts = self.counts
        budget_error = getattr(sys.modules[fn.__module__], "BudgetExceededError", ())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            try:
                table = inner(*args, **kwargs)
            except budget_error as exc:
                counts[name + ".inconclusive"] += 1
                counts[name + ".slots_used"] += exc.slots_used
                counts[name + ".merges"] += exc.merges
                raise
            counts[name + ".classes"] += table.size
            counts[name + ".slots_used"] += table.slots_used
            counts[name + ".merges"] += table.merges
            return table

        return wrapper

    def install(self):
        """Wrap every layer in LAYERS that exists; note the ones that do not."""
        for module, path, kind in LAYERS:
            name = layer_name(module, path)
            original = _resolve(module, path)
            if original is None:
                self.absent.append(name)
                continue
            make = {
                "span": self._counted_span,
                "count": self._count,
                "build": self._build,
                "rank": self._rank,
                "quotient": self._quotient,
            }[kind]
            self._replace(original, make(name, original))

    def _replace(self, original, replacement):
        for container in list(_containers()):
            items = container if isinstance(container, dict) else vars(container)
            for key, value in list(items.items()):
                if value is original:
                    self._undo.append((container, key, original))
                    _assign(container, key, replacement)

    def restore(self):
        while self._undo:
            container, key, original = self._undo.pop()
            _assign(container, key, original)

    def busy_s(self, name):
        total = 0.0
        for record in self.spans:
            if record[0] == name and not self._has_ancestor(record, name):
                total += record[2] - record[1]
        return total

    def self_s(self, name):
        """Duration of the name's spans minus that of their direct children."""
        total = 0.0
        for record in self.spans:
            if record[0] == name:
                total += record[2] - record[1]
            elif record[3] is not None and self.spans[record[3]][0] == name:
                total -= record[2] - record[1]
        return total

    def _has_ancestor(self, record, name):
        parent = record[3]
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False


def _assign(container, key, value):
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)

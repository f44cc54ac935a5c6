"""Spans and work counts around the public functions of each layer.

The tracer replaces each listed function at every module binding site
it is reachable through (``cli`` imports ``cauchy_check`` by name,
``interlace`` imports ``is_real_rooted`` by name, and so on), so calls
made inside the package are seen as well as calls made from outside.
Leaving the ``with`` block puts every original object back.

Each call becomes a span (case id, span id, parent id, name, start,
end).  Self time is the span's duration minus the time covered by its
child spans.  ``_intops`` is private and not wrapped, so its cost lands
in the self time of whichever public function called it.

Work counts are derived only from the arguments and return values of
the public calls, never from clocks, so two traced runs of one seed
give identical counts.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

PACKAGE = "interlacekit"


def _coeff_bits(counts, args, poly):
    counts["hermitian.char_poly.coeff_bits"] += max(
        c.numerator.bit_length() + c.denominator.bit_length() for c in poly.coeffs
    )


def _halvings(before, after) -> int:
    """Bisections that shrink the interval ``before`` to ``after``.

    Bisection halves the width exactly, so the width ratio is a power of
    two.  An interval pinned to a point landed on a dyadic midpoint; the
    denominator of its relative position gives the bisection depth.
    """
    width = before[1] - before[0]
    if width == 0:
        return 0
    if after[1] == after[0]:
        return Fraction(after[0] - before[0], width).denominator.bit_length() - 1
    ratio = Fraction(width, after[1] - after[0])
    return ratio.numerator.bit_length() - ratio.denominator.bit_length()


def _isolated_roots(counts, args, roots):
    counts["realroots.isolate_roots.roots"] += len(roots.intervals)


def _refine_halvings(counts, args, refined):
    counts["realroots.refine_to.halvings"] += sum(
        _halvings(a, b) for a, b in zip(args[0].intervals, refined.intervals)
    )


def _real_rooted(counts, args, result):
    counts["realroots.is_real_rooted.false_ratio"] += result is False


def _separated(a, b) -> bool:
    if a[0] == a[1] == b[0] == b[1]:
        return False
    return a[1] <= b[0] or b[1] <= a[0]


def _chain_work(counts, args, report):
    """Halvings and ties read off an Interlaces certificate.

    The certificate lists the final bracket of every chain slot, f and g
    alternating, each root repeated by its multiplicity.  Adjacent slots
    whose brackets are not separated were settled as equal roots.
    """
    cert = report.chain_certificate
    if cert is None:
        return
    brackets = {}
    for owner, roots in (("f", args[0]), ("g", args[1])):
        slots = [i for i, m in enumerate(roots.multiplicities) for _ in range(m)]
        entries = [e for e in cert if e.owner == owner]
        for idx, entry in zip(slots, entries):
            brackets[owner, idx] = (roots.intervals[idx], (entry.lo, entry.hi))
    counts["interlace.interlaces_by_roots.halvings"] += sum(
        _halvings(before, after) for before, after in brackets.values()
    )
    counts["interlace.interlaces_by_roots.ties"] += sum(
        not _separated((a.lo, a.hi), (b.lo, b.hi)) for a, b in zip(cert, cert[1:])
    )


# (module, public name, observer of arguments and result or None)
TARGETS = (
    ("cli", "main", None),
    ("hermitian", "char_poly", _coeff_bits),
    ("hermitian", "cauchy_check", None),
    ("hermitian", "eigen_intervals", None),
    ("hermitian", "principal_submatrix", None),
    ("hermitian", "bordered_identity", None),
    ("realroots", "isolate_roots", _isolated_roots),
    ("realroots", "refine_to", _refine_halvings),
    ("realroots", "is_real_rooted", _real_rooted),
    ("realroots", "SturmChain", None),
    ("polynomials", "squarefree_part", None),
    ("polynomials", "poly_gcd", None),
    ("interlace", "interlaces_by_roots", _chain_work),
    ("interlace", "interlaces_exact", None),
    ("interlace", "pencil_scan", None),
    ("interlace", "hko_crosscheck", None),
)


def binding_sites() -> list[tuple[object, str, object]]:
    """(module, attribute, original) for every binding of every target."""
    modules = [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]
    sites = []
    for module_name, attr, _ in TARGETS:
        original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], attr)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    sites.append((mod, key, original))
    return sites


class Tracer:
    """In-memory span recorder; use as a context manager around traced work."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.case_attrs: dict[int, dict] = {}
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.self_ns: Counter = Counter()
        self._stack: list[list[int]] = []
        self._next_id = 0
        self._case = -1
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for module_name, attr, observe in TARGETS:
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], attr)
            wrappers[id(original)] = self._wrap(f"{module_name}.{attr}", original, observe)
        try:
            for mod, key, original in binding_sites():
                setattr(mod, key, wrappers[id(original)])
                self._patched.append((mod, key, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patched:
            mod, key, original = self._patched.pop()
            setattr(mod, key, original)

    def _open(self) -> list[int]:
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        frame = [self._next_id, parent, time.perf_counter_ns(), 0]
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: list[int], end: int, charged: int) -> None:
        """End a span; ``charged`` is what the parent counts as child time."""
        span_id, parent, start, child_ns = frame
        self._stack.pop()
        self.self_ns[name] += end - start - child_ns
        self.spans.append((self._case, span_id, parent, name, start, end))
        if self._stack:
            self._stack[-1][3] += charged

    def _wrap(self, name, original, observe):
        def traced(*args, **kwargs):
            self.calls[name] += 1
            frame = self._open()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                end = time.perf_counter_ns()
                self._close(name, frame, end, end - frame[2])
                raise
            end = time.perf_counter_ns()
            if observe is not None:
                observe(self.counts, args, result)
            # The observer's time is bench work: keep it out of the
            # caller's self time too.
            self._close(name, frame, end, time.perf_counter_ns() - frame[2])
            return result

        traced.__wrapped__ = original
        return traced

    @contextmanager
    def case(self, attrs: dict):
        """Root span of one case run; ``attrs`` carries its size and kind."""
        self._case = len(self.case_attrs)
        self.case_attrs[self._case] = attrs
        frame = self._open()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._close("case", frame, end, end - frame[2])

    def write(self, path: str, seed: int) -> None:
        """Spans as [case, id, parent, name, start_ns, end_ns] rows."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "seed": seed,
                    "columns": ["case", "id", "parent", "name", "start_ns", "end_ns"],
                    "cases": {str(k): v for k, v in self.case_attrs.items()},
                    "spans": self.spans,
                },
                fh,
                separators=(",", ":"),
            )
            fh.write("\n")


# Per-layer metrics, named <module>.<function>.<quantity>.
PER_LAYER = (
    ("hermitian.char_poly.calls", "count"),
    ("hermitian.char_poly.self_ms", "ms"),
    ("hermitian.char_poly.coeff_bits", "bits"),
    ("hermitian.cauchy_check.calls", "count"),
    ("hermitian.cauchy_check.self_ms", "ms"),
    ("hermitian.eigen_intervals.calls", "count"),
    ("hermitian.principal_submatrix.self_ms", "ms"),
    ("hermitian.bordered_identity.self_ms", "ms"),
    ("realroots.isolate_roots.calls", "count"),
    ("realroots.isolate_roots.self_ms", "ms"),
    ("realroots.isolate_roots.roots", "count"),
    ("realroots.refine_to.calls", "count"),
    ("realroots.refine_to.self_ms", "ms"),
    ("realroots.refine_to.halvings", "count"),
    ("realroots.is_real_rooted.calls", "count"),
    ("realroots.is_real_rooted.self_ms", "ms"),
    ("realroots.is_real_rooted.false_ratio", "ratio"),
    ("realroots.SturmChain.builds", "count"),
    ("realroots.SturmChain.self_ms", "ms"),
    ("polynomials.squarefree_part.calls", "count"),
    ("polynomials.squarefree_part.self_ms", "ms"),
    ("polynomials.poly_gcd.calls", "count"),
    ("polynomials.poly_gcd.self_ms", "ms"),
    ("interlace.interlaces_by_roots.calls", "count"),
    ("interlace.interlaces_by_roots.self_ms", "ms"),
    ("interlace.interlaces_by_roots.halvings", "count"),
    ("interlace.interlaces_by_roots.ties", "count"),
    ("interlace.interlaces_exact.self_ms", "ms"),
    ("interlace.pencil_scan.self_ms", "ms"),
    ("interlace.hko_crosscheck.self_ms", "ms"),
    ("cli.main.self_ms", "ms"),
    ("cli.report_kb", "KiB"),
)


def layer_metrics(calls: Counter, counts: Counter, self_ns: Counter,
                  counted_cases: int, timed_cases: int, report_bytes: int) -> dict:
    """PER_LAYER values as (value, unit).

    Calls and counts are per case of the pass they were counted in;
    ``coeff_bits`` and ``false_ratio`` are per call; self time is per
    case over every traced case.
    """

    def share(value, base):
        return value / base if base else 0.0

    out = {}
    for name, unit in PER_LAYER:
        function, _, quantity = name.rpartition(".")
        if quantity in ("calls", "builds"):
            value = share(calls[function], counted_cases)
        elif quantity == "self_ms":
            value = share(self_ns[function], timed_cases) / 1e6
        elif quantity in ("coeff_bits", "false_ratio"):
            value = share(counts[name], calls[function])
        elif quantity == "report_kb":
            value = share(report_bytes, counted_cases) / 1024
        else:
            value = share(counts[name], counted_cases)
        out[name] = (value, unit)
    return out

"""Per-layer tracing installed from outside the library.

``install`` wraps the public functions of each layer (ring, exterior,
poisson, complexes, linalg, genpos, toric, cli) in spans.  A span's self
time is its duration minus the time its child spans cover; counts are taken
in the same wrappers.  Every module-level binding of a wrapped function is
replaced, since ``from .x import f`` gives each importing module its own
name for ``f``; class attributes that alias one function (``__radd__ =
__add__``) are replaced one by one for the same reason.

Spans of every layer but ``ring`` are kept in memory and written once, by
``write_spans``.  The ring operations run millions of times per job, so they
are aggregated (count and self time per name) in the same wrappers instead
of stored one by one; they call no other layer.

Time the tracer spends on its own counting (scanning a matrix for
nonzeros, deriving minor counts from a certificate) is measured and
excluded from every span's self time; it is reported as overhead.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import logsymplectic
from logsymplectic import cli, complexes, exterior, genpos, linalg, poisson, ring, toric

import workloads
from workloads import nonzeros

# The workloads module is listed too: its jobs call library functions through
# names it imported itself.
MODULES = (logsymplectic, ring, exterior, poisson, linalg, genpos, complexes, toric, cli,
           workloads)

LAYERS = ("ring", "exterior", "poisson", "complexes", "linalg", "genpos", "toric", "cli")


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # per open span: [covered child time, span id]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.spans: list[tuple] = []  # (id, parent id, job, name, start, end)
        self.overhead_s = 0.0
        self.job_s = 0.0  # summed duration of the job spans
        self.job = -1
        self._job_start = 0.0
        self._next_id = 0
        self._ranked: dict[int, object] = {}
        self._lex_rank: dict[tuple[int, int], dict[tuple[int, ...], int]] = {}

    # -- job boundaries ----------------------------------------------------

    def begin_job(self) -> None:
        self.job += 1
        self._ranked = {}
        self.stack.append([0.0, self._new_id()])
        self._job_start = perf_counter()

    def end_job(self, kind: str) -> None:
        end = perf_counter()
        _covered, span_id = self.stack.pop()
        duration = end - self._job_start
        self.job_s += duration
        self.spans.append((span_id, None, self.job, f"job.{kind}", self._job_start, end))

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _charge_overhead(self, start: float) -> None:
        spent = perf_counter() - start
        self.overhead_s += spent
        if self.stack:
            self.stack[-1][0] += spent

    # -- wrappers ----------------------------------------------------------

    def span(self, fn, name, pre=None, post=None):
        """Wrap ``fn`` in a span.  ``name`` is a string or a function of the
        call's arguments; ``pre(args)`` and ``post(args, result)`` count."""
        tracer = self
        stack = self.stack
        self_s = self.self_s
        counts = self.counts
        fixed = isinstance(name, str)
        stored = not (fixed and name.startswith("ring."))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:  # outside a job: set-up and checks are not traced
                return fn(*args, **kwargs)
            label = name if fixed else name(*args, **kwargs)
            if pre is not None:
                t0 = perf_counter()
                pre(*args, **kwargs)
                tracer._charge_overhead(t0)
            frame = [0.0, tracer._new_id() if stored else 0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self_s[label] += duration - frame[0]
                counts[label] += 1
                parent = stack[-1]
                parent[0] += duration
                if stored:
                    tracer.spans.append((frame[1], parent[1], tracer.job, label, start, end))
            if post is not None:
                t0 = perf_counter()
                post(result, *args, **kwargs)
                tracer._charge_overhead(t0)
            return result

        return wrapper

    def counter(self, fn, name):
        """Wrap ``fn`` to count calls only, without a span."""
        counts = self.counts
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- counts taken at the layer boundaries ------------------------------

    def _rank_pre(self, a, column_order=None):
        rows = len(a)
        cols = len(a[0]) if rows else 0
        self.counts["linalg.rank.entries"] += rows * cols
        self.counts["linalg.rank.nnz"] += nonzeros(a)
        if id(a) in self._ranked:
            self.counts["linalg.rank.repeats"] += 1
        self._ranked[id(a)] = a  # keeps ``a`` alive so its id is not reused

    def _complex_post(self, result, *args, **kwargs):
        cx = getattr(result, "complex", result)
        for (k, w), mat in cx.diffs.items():
            src, tgt = cx.slice_dim(k, w), cx.slice_dim(k + 1, w)
            self.counts["complexes.columns"] += src
            self.counts["complexes.dense_entries"] += src * tgt
            self.counts["complexes.nnz"] += nonzeros(mat)

    def _certificate_post(self, cert, m, n, t):
        """Minors a lexicographic scan evaluates to reach this certificate:
        up to and including the witness row set of each passing column set,
        all C(k, t) row sets of each failing one."""
        k = _size(m)
        ranks = self._lex_rank.get((k, t))
        if ranks is None:
            combos = itertools.combinations(range(1, k + 1), t)
            ranks = self._lex_rank[(k, t)] = {c: i + 1 for i, c in enumerate(combos)}
        self.counts["genpos.column_sets"] += len(cert.witnesses) + len(cert.failures)
        self.counts["genpos.witnessed"] += len(cert.witnesses)
        self.counts["genpos.minors"] += sum(ranks[r] for r in cert.witnesses.values())
        self.counts["genpos.minors"] += len(cert.failures) * math.comb(k, t)

    # -- output --------------------------------------------------------------

    def inclusive_s(self) -> dict[str, float]:
        """Per layer, the time inside its outermost spans, children of other
        layers included."""
        layer_of = {span[0]: span[3].split(".")[0] for span in self.spans}
        parent_of = {span[0]: span[1] for span in self.spans}
        out = {"ring": sum(v for k, v in self.self_s.items() if k.startswith("ring."))}
        for span_id, parent, _job, _name, start, end in self.spans:
            layer = layer_of[span_id]
            while parent is not None and layer_of[parent] != layer:
                parent = parent_of[parent]
            if parent is None:
                out[layer] = out.get(layer, 0.0) + end - start
        return out

    def write_spans(self, path: Path) -> None:
        keys = ("id", "parent", "job", "name", "start", "end")
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _t_class(k: int, t: int) -> str:
    if t == k:
        return "genpos.top_t"
    return "genpos.small_t" if t <= 3 else "genpos.other"


def _size(m) -> int:
    return len(m.rows) if hasattr(m, "rows") else len(m)


def _replace_everywhere(orig, wrapped) -> None:
    for module in MODULES:
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, wrapped)


def _replace_method(cls, name: str, make) -> None:
    """Wrap the function behind ``cls.name`` and every alias of it in the
    class."""
    orig = cls.__dict__[name]
    wrapped = make(orig)
    for attr, value in list(vars(cls).items()):
        if value is orig:
            setattr(cls, attr, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer.  There is no uninstall:
    the traced part of a run is its last part."""
    span = tracer.span

    # ring: the arithmetic of LaurentPoly, aggregated
    poly = ring.LaurentPoly
    _replace_method(poly, "__init__", lambda f: tracer.counter(f, "ring.poly_new"))
    _replace_method(poly, "__mul__", lambda f: span(f, "ring.mul"))
    _replace_method(poly, "__add__", lambda f: span(f, "ring.add"))
    _replace_method(poly, "partial", lambda f: span(f, "ring.partial"))
    for name in ("__neg__", "__sub__", "__rsub__", "__pow__", "shift",
                 "divide_monomial", "divide_exact", "evaluate"):
        _replace_method(poly, name, lambda f: span(f, "ring.other"))

    # exterior: forms and multivectors
    graded = exterior._GradedElement
    _replace_method(graded, "wedge", lambda f: span(f, "exterior.wedge"))
    for name in ("__add__", "__sub__", "__neg__", "scale"):
        _replace_method(graded, name, lambda f: span(f, "exterior.other"))
    # exterior.wedge (the function) delegates to the method wrapped above.
    for fn, name in ((exterior.exterior_derivative, "exterior.d"),
                     (exterior.change_frame, "exterior.change_frame"),
                     (exterior.contract, "exterior.other")):
        _replace_everywhere(fn, span(fn, name))

    # poisson
    _replace_everywhere(poisson.schouten, span(poisson.schouten, "poisson.schouten"))
    for fn in (poisson.jacobi_holds, poisson.pfaffian, poisson.top_power,
               poisson.degeneracy_divisor, poisson.log_matrix, poisson.pi_sharp,
               poisson.pi_flat, poisson.inverse_log_matrix, poisson.phi_forms):
        _replace_everywhere(fn, span(fn, "poisson.other"))

    # complexes
    for fn in (complexes.build_log_complex, complexes.build_logplus_complex,
               complexes.build_bracket_complex, complexes.build_qi):
        _replace_everywhere(fn, span(fn, "complexes.build", post=tracer._complex_post))
    for fn in (complexes.cohomology_dims, complexes.verify_exactness,
               complexes.verify_d_squared):
        _replace_everywhere(fn, span(fn, "complexes.cohomology"))
    for fn in (complexes.conjugation_report, complexes.filtration_report,
               complexes.filtration_level_of):
        _replace_everywhere(fn, span(fn, "complexes.other"))

    # linalg
    _replace_everywhere(linalg.rank, span(linalg.rank, "linalg.rank", pre=tracer._rank_pre))
    _replace_everywhere(linalg.mat_mul, span(linalg.mat_mul, "linalg.mat_mul"))
    for fn in (linalg.zeros, linalg.identity, linalg.is_zero_matrix, linalg.inverse,
               linalg.det, linalg.solve_columns):
        _replace_everywhere(fn, span(fn, "linalg.other"))

    # genpos: named by t, counted from the certificates of the core test
    _replace_everywhere(genpos.is_relative_t_general, span(
        genpos.is_relative_t_general,
        lambda m, n, t: _t_class(_size(m), t),
        post=tracer._certificate_post,
    ))
    _replace_everywhere(genpos.is_standard_t_general, span(
        genpos.is_standard_t_general, lambda m, t: _t_class(_size(m), t)))
    _replace_everywhere(genpos.poisson_t_general, span(
        genpos.poisson_t_general, lambda p, t: _t_class(p.var_spec.total_vars, t)))
    _replace_everywhere(genpos.verify_certificate,
                        span(genpos.verify_certificate, "genpos.verify"))

    # toric
    _replace_everywhere(toric.certify, span(toric.certify, "toric.certify"))
    for fn in (toric.make_toric, toric.betti_torus, toric.log_hodge_numbers,
               toric.deformation_tangent_dim):
        _replace_everywhere(fn, span(fn, "toric.other"))

    # cli: argument parsing and JSON I/O around the library calls
    _replace_everywhere(cli.main, span(cli.main, "cli"))

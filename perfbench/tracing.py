"""Spans around the calls into floqmet's public functions, kept in memory.

Tracing replaces each traced function at every place a floqmet module binds
it (``metrology.diagonalize`` as well as ``spectral.diagonalize``), so calls
made inside the package are seen without editing any source file.  Each span
records its name, the op it belongs to, its parent span, and its start and
end; counters record work done at the same boundaries.  ``uninstall`` puts
every original function back.
"""
from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

from floqmet import cli, metrology, propagator, reference, sambe, spectral

LEVELS = 2  # both floqmet models are two-level systems

# (16/3 + 8) n^3 real flops: Householder tridiagonalisation (4n^3/3) and the
# back-transformation of the eigenvectors (2n^3), each complex multiply-add
# counted as four real ones; the tridiagonal solve itself is left out.
EIGH_FLOP_COEFF = 16.0 / 3.0 + 8.0

MODULES = ("sambe", "spectral", "propagator", "metrology", "reference", "cli")

# Inclusive-time metrics: metric name -> span name.
SPAN_METRICS = {
    "sambe.build_s": "sambe.build_floquet_matrix",
    "spectral.diagonalize_s": "spectral.diagonalize",
    "spectral.amplitude_table_s": "spectral.amplitude_table",
    "propagator.evolve_s": "propagator.evolve",
    "metrology.session_s": "metrology.EstimationSession",
    "metrology.generator_set_s": "metrology.generator_set",
    "metrology.cfi_s": "metrology.cfi",
    "metrology.qfi_s": "metrology.qfi",
    "metrology.incompatibility_s": "metrology.incompatibility",
    "metrology.report_s": "metrology.estimation_report",
    "reference.propagate_direct_s": "reference.propagate_direct",
    "cli.run_scan_s": "cli.run_scan",
    "cli.write_table_s": "cli.write_table",
}


class Tracer:
    """Collects spans and counters while ``op`` names the op being timed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, op, parent, start, end]
        self.counts: dict[str, float] = defaultdict(float)
        self.op: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._op_hashes: dict[int, set] = defaultdict(set)

    # -- instrumentation ---------------------------------------------------
    def _wrap(self, name, fn, hook=None, span=True):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            if hook is not None:
                hook(args, kwargs)
            if not span:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            record = [name, tracer.op, tracer._stack[-1] if tracer._stack else -1,
                      time.perf_counter(), 0.0]
            tracer.spans.append(record)
            tracer._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                record[4] = time.perf_counter()
                tracer._stack.pop()

        return traced

    def _replace(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_function(self, name, fn, hook=None) -> None:
        wrapped = self._wrap(name, fn, hook)
        modules = [m for key, m in list(sys.modules.items())
                   if key == "floqmet" or key.startswith("floqmet.")]
        for module in modules:
            for attr in [a for a, v in vars(module).items() if v is fn]:
                self._replace(module, attr, wrapped)

    def install(self) -> None:
        session = metrology.EstimationSession
        self._patch_function("sambe.build_floquet_matrix", sambe.build_floquet_matrix)
        self._patch_function("spectral.diagonalize", spectral.diagonalize)
        self._patch_function("spectral.amplitude_table", spectral.amplitude_table,
                             self._count_table)
        self._patch_function("propagator.evolve", propagator.evolve)
        self._replace(session, "__init__",
                      self._wrap("metrology.EstimationSession", session.__init__))
        self._replace(session, "generator_set",
                      self._wrap("metrology.generator_set", session.generator_set))
        self._replace(session, "cfi", self._wrap("metrology.cfi", session.cfi))
        self._patch_function("metrology.qfi", metrology.qfi)
        self._patch_function("metrology.incompatibility", metrology.incompatibility)
        self._patch_function("metrology.estimation_report", metrology.estimation_report)
        self._patch_function("reference.propagate_direct", reference.propagate_direct,
                             self._count_steps)
        self._patch_function("cli.run_scan", cli.run_scan)
        self._patch_function("cli.write_table", cli.write_table)
        self._replace(np.linalg, "eigh",
                      self._wrap("numpy.linalg.eigh", np.linalg.eigh,
                                 self._count_eigh, span=False))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- counters ------------------------------------------------------------
    def _count_eigh(self, args, kwargs) -> None:
        a = np.ascontiguousarray(args[0] if args else kwargs["a"])
        n = a.shape[-1]
        if n <= LEVELS:  # the oracle's 2x2 steps, not a Sambe diagonalization
            return
        self.counts["eigh_calls"] += 1
        self.counts["eigh_flop"] += EIGH_FLOP_COEFF * n ** 3
        self._op_hashes[self.op].add(hashlib.blake2b(a.data, digest_size=16).digest())

    def _count_table(self, args, kwargs) -> None:
        # entries are complex128 of shape (dim, 2 n_cut + 1, N, N)
        spectrum = args[0] if args else kwargs["spectrum"]
        self.counts["table_bytes"] += 16 * spectrum.dim * spectrum.n_sectors * spectrum.levels ** 2

    _propagate_signature = inspect.signature(reference.propagate_direct)

    def _count_steps(self, args, kwargs) -> None:
        bound = self._propagate_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        if bound.arguments["t"] > 0:
            self.counts["oracle_steps"] += bound.arguments["cfg"].step_count

    # -- results -------------------------------------------------------------
    def layer_metrics(self, op_durations: list[float]) -> dict:
        """Per-op layer metrics over the ops traced so far."""
        ops = len(op_durations)
        totals: dict[str, float] = defaultdict(float)
        module_self: dict[str, float] = defaultdict(float)
        child_time: dict[int, float] = defaultdict(float)
        covered = 0.0
        for name, _op, parent, start, end in self.spans:
            duration = end - start
            totals[name] += duration
            if parent < 0:
                covered += duration
            else:
                child_time[parent] += duration
        for index, (name, _op, _parent, start, end) in enumerate(self.spans):
            module_self[name.split(".")[0]] += (end - start) - child_time[index]

        metrics = {metric: totals[span] / ops for metric, span in SPAN_METRICS.items()}
        for module in MODULES:
            metrics[f"{module}.self_s"] = module_self[module] / ops
        metrics["trace.uncovered_s"] = (sum(op_durations) - covered) / ops
        calls = self.counts["eigh_calls"]
        distinct = sum(len(hashes) for hashes in self._op_hashes.values())
        metrics["spectral.eigh_calls_per_op"] = calls / ops
        # no Sambe diagonalization in an op wastes none
        metrics["spectral.eigh_useful_ratio"] = distinct / calls if calls else 1.0
        metrics["spectral.eigh_gflop_per_op"] = self.counts["eigh_flop"] / ops / 1e9
        metrics["spectral.table_mb"] = self.counts["table_bytes"] / ops / 1e6
        direct = totals["reference.propagate_direct"]
        metrics["reference.steps_per_s"] = (self.counts["oracle_steps"] / direct
                                            if direct else 0.0)
        return metrics

"""Per-layer metrics of the traced run: which calls are traced and what each reports.

A layer is a mubtomo module. Each traced public function becomes a span
named ``<module>.<function>``; every reader of ``io_formats`` is the span
``io_formats.read`` and every writer ``io_formats.write``. ``finite_field``
and ``wigner_from_density`` take under 1% of every op and are not traced.
"""

from __future__ import annotations

import os
from collections import defaultdict

import numpy as np

import harness
from mubtomo import classical_radon, cli, cv_wigner, io_formats, qudit_mub, qudit_tomography

LIBRARY = [
    (qudit_mub, "build_mub_set"),
    (qudit_mub, "mub_deviation"),
    (qudit_tomography, "measure_probabilities"),
    (qudit_tomography, "reconstruct_density"),
    (qudit_tomography, "sample_counts"),
    (qudit_tomography, "project_to_physical"),
    (cv_wigner, "quadrature_sinogram"),
    (cv_wigner, "reconstruct_density_continuous"),
    (classical_radon, "radon_forward"),
    (classical_radon, "inverse_radon"),
    (cli, "main"),
]

LAYERS = ("qudit_mub", "qudit_tomography", "cv_wigner", "classical_radon", "io_formats", "cli")

# (name, unit, better, the end-to-end metric and workload it should move).
# ``.s`` is self seconds per traced op; counts are computed from the traced
# calls' arguments and results after the op has ended.
PER_LAYER = [
    ("qudit_mub.build_mub_set.s", "s", "lower",
     "op_s_p50, ops_per_s on qudit-exact; little on qudit-shots-cli"),
    ("qudit_mub.mub_deviation.s", "s", "lower",
     "op_s_p50, ops_per_s on qudit-exact"),
    ("qudit_mub.basis_set_bytes", "B", "lower",
     "peak_rss_mb on qudit-exact"),
    ("qudit_tomography.measure_probabilities.s", "s", "lower",
     "op_s_p50 on qudit-exact"),
    ("qudit_tomography.reconstruct_density.s", "s", "lower",
     "op_s_p50 on qudit-exact"),
    ("qudit_tomography.sample_counts.s", "s", "lower",
     "op_s_p50 on qudit-shots-cli; zero on qudit-exact"),
    ("qudit_tomography.sample_counts.draws_per_s", "1/s", "higher",
     "op_s_p50 on qudit-shots-cli"),
    ("qudit_tomography.project_to_physical.s", "s", "lower",
     "op_s_p50 on qudit-shots-cli"),
    ("qudit_tomography.project_to_physical.clipped_mass", "1", "lower",
     "recon_error on qudit-shots-cli"),
    ("cv_wigner.quadrature_sinogram.s", "s", "lower",
     "op_s_p50 on cv-quads-cli"),
    ("cv_wigner.quadrature_sinogram.rows_per_s", "1/s", "higher",
     "op_s_p50 on cv-quads-cli"),
    ("cv_wigner.reconstruct_density_continuous.s", "s", "lower",
     "op_s_p50 on cv-quads-cli (FBP child span excluded)"),
    ("cv_wigner.raw_trace_dev", "1", "lower",
     "recon_error on cv-quads-cli"),
    ("classical_radon.radon_forward.s", "s", "lower",
     "op_s_p50 on radon-roundtrip"),
    ("classical_radon.radon_forward.mass_dropped", "1", "lower",
     "recon_error on radon-roundtrip"),
    ("classical_radon.inverse_radon.s", "s", "lower",
     "op_s_p50 on cv-quads-cli and radon-roundtrip"),
    ("io_formats.read.s", "s", "lower",
     "op_s_p50 on the -cli workloads; zero on the others"),
    ("io_formats.write.s", "s", "lower",
     "op_s_p50 on the -cli workloads; zero on the others"),
    ("io_formats.bytes_written", "B", "lower",
     "op_s_p50 on the -cli workloads; zero on the others"),
    ("cli.main.s", "s", "lower",
     "op_s_p50 on the -cli workloads (library and I/O spans excluded)"),
    *((f"{layer}.failed", "count", "lower", "failed ops on every workload") for layer in LAYERS),
    ("trace.op_s", "s", "lower",
     "mean traced op time: the .s metrics plus trace.unattributed_s add up to it"),
    ("trace.unattributed_s", "s", "lower",
     "seconds per traced op that no span covers"),
    ("trace.overhead_s", "s", "lower",
     "tracing overhead: traced minus untraced op_s_p50 in the same run"),
]


def targets() -> list:
    """(module, function, span name) of every traced function."""
    out = [(mod, attr, f"{mod.__name__.rsplit('.', 1)[-1]}.{attr}") for mod, attr in LIBRARY]
    for attr in sorted(vars(io_formats)):
        if attr.startswith("read_") or attr == "peek_kind":
            out.append((io_formats, attr, "io_formats.read"))
        elif attr.startswith("write_"):
            out.append((io_formats, attr, "io_formats.write"))
    return out


def _negative_mass(matrix) -> float:
    eig = np.linalg.eigvalsh(0.5 * (matrix + matrix.conj().T))
    return float(-eig[eig < 0].sum())


def _mass_dropped(grid, sino) -> float:
    rows = sino.values.sum(axis=1) * sino.ds
    return float(1.0 - rows.mean() / grid.mass())


class LayerTotals:
    """Per-layer sums over the traced ops of one run."""

    def __init__(self):
        self.ops = 0
        self.op_s = 0.0
        self.unattributed_s = 0.0
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.failed = defaultdict(int)
        self.sums = defaultdict(float)

    def add(self, spans, start: float, end: float):
        """Fold in one traced op that ran over [start, end]."""
        self.ops += 1
        self.op_s += end - start
        self.unattributed_s += harness.unattributed(spans, start, end)
        seconds = harness.self_times(spans)
        for span in spans:
            self.self_s[span.name] += seconds[span.id]
            if span.failed or (span.name == "cli.main" and span.result != 0):
                self.failed[span.layer] += 1
                continue
            self.calls[span.name] += 1
            self._count(span)

    def _count(self, span):
        name, result, sums = span.name, span.result, self.sums
        if name == "qudit_mub.build_mub_set":
            sums["basis_set_bytes"] = max(sums["basis_set_bytes"],
                                          sum(U.nbytes for U in result.bases))
        elif name == "qudit_tomography.sample_counts":
            sums["draws"] += result.shots_per_basis * (result.dim + 1)
        elif name == "qudit_tomography.project_to_physical":
            sums["clipped_mass"] += _negative_mass(span.args[0])
        elif name == "cv_wigner.quadrature_sinogram":
            sums["rows"] += result.n_theta
        elif name == "cv_wigner.reconstruct_density_continuous":
            sums["raw_trace_dev"] += abs(result[1] - 1.0)
        elif name == "classical_radon.radon_forward":
            sums["mass_dropped"] += _mass_dropped(span.args[0], result)
        elif name == "io_formats.write":
            sums["bytes_written"] += os.path.getsize(span.args[0])

    def metrics(self, overhead_s: float) -> dict:
        """Every PER_LAYER metric; zero where the layer did not run."""
        ops = max(self.ops, 1)

        def rate(count, name):
            return self.sums[count] / self.self_s[name] if self.self_s[name] > 0 else 0.0

        def mean(total, name):
            return self.sums[total] / self.calls[name] if self.calls[name] else 0.0

        out = {f"{name}.s": seconds / ops for name, seconds in self.self_s.items()}
        out.update({f"{layer}.failed": self.failed[layer] for layer in LAYERS})
        out.update({
            "qudit_mub.basis_set_bytes": self.sums["basis_set_bytes"],
            "qudit_tomography.sample_counts.draws_per_s":
                rate("draws", "qudit_tomography.sample_counts"),
            "qudit_tomography.project_to_physical.clipped_mass":
                mean("clipped_mass", "qudit_tomography.project_to_physical"),
            "cv_wigner.quadrature_sinogram.rows_per_s":
                rate("rows", "cv_wigner.quadrature_sinogram"),
            "cv_wigner.raw_trace_dev":
                mean("raw_trace_dev", "cv_wigner.reconstruct_density_continuous"),
            "classical_radon.radon_forward.mass_dropped":
                mean("mass_dropped", "classical_radon.radon_forward"),
            "io_formats.bytes_written": self.sums["bytes_written"] / ops,
            "trace.op_s": self.op_s / ops,
            "trace.unattributed_s": self.unattributed_s / ops,
            "trace.overhead_s": overhead_s,
        })
        return {name: out.get(name, 0.0) for name, *_ in PER_LAYER}

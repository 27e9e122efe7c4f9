"""The repository benchmark: three workloads driven through public entry points.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload and prints its metrics; ``--workload
all`` runs every workload untraced and traced, one process each, and
prints the full report.  The workloads, metrics and layer map are recorded
in ``BENCHMARK.json`` at the repository root and in ``design.json`` here.

The benchmark lives outside ``src/``: it imports ``repro`` from the
checkout it sits in and wraps the public calls into each layer from its
own files (see :mod:`perfbench.tracing`), so it measures the program
without changing it.
"""

from __future__ import annotations

import os
import sys

#: The checkout root (the directory holding ``perfbench/`` and ``src/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Where the program's sources live inside the checkout.
SRC = os.path.join(ROOT, "src")


def ensure_src_on_path() -> None:
    """Make ``import repro`` resolve to this checkout's sources.

    Raises :class:`FileNotFoundError` when the checkout holds no program
    (for example a directory with only the benchmark's own files), so the
    runner can exit with an error instead of measuring nothing.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise FileNotFoundError(
            f"no program sources under {SRC}: run the benchmark from a "
            f"checkout of the repository")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)

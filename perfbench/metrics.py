"""What ``BENCHMARK.json`` cannot hold: how per-layer names map to spans.

Metric names, units and directions are read from ``BENCHMARK.json``.
"""

from __future__ import annotations

# Span classes that may end a ``<module>.<function>.<class>.p50_s`` name.
CLASSES = ("n100", "n200", "n400", "n600", "n800", "tol6", "tol9", "tol12")

# Growth: log-log slope of p50 self time from the smallest to the largest size.
GROWTH = {
    "stepfn.build.growth": ("stepfn.build", 100, 600),
    "stepfn.linear_combine.growth": ("stepfn.linear_combine", 100, 600),
    "quiver.validate_gentle.growth": ("quiver.validate_gentle", 100, 800),
}

# Counts summed over the coverage ops of the traced run.
COUNTS = ("stepfn.pieces_out", "quiver.threads_out", "integrate.evals", "integrate.misses")

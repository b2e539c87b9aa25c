"""Shared helpers for the figure-reproduction benchmarks.

Every benchmark runs its (deterministic) simulation exactly once via
``benchmark.pedantic(..., rounds=1, iterations=1)`` — the interesting
output is the *simulated* result, which each benchmark prints in the
paper's terms and asserts shape properties on.  Run with ``-s`` to see
the reproduced tables.
"""


def run_once(benchmark, fn, *args, **kwargs):
    """Execute ``fn`` once under pytest-benchmark and return its result."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

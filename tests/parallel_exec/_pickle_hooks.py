"""Run test task kinds over a list through the span scheduler.

The batch front ends give the scheduler a pickle hook pair: a span's
payload is its slice of the items, and the worker's returned list is
the span's per-item values.  Tests drive their own task kinds the same
way, one initial span per chunk of items.
"""

from repro.parallel_exec import run_spans_report


def run_chunks_of(kind, chunks, *, workers, wrap=None, **options):
    """Run ``chunks`` (lists of items) as one planned span each.

    ``wrap(start, items)`` builds the task payload from a span's items
    when a task kind wants more than the bare slice (a flag file, say).
    Returns the :class:`~repro.parallel_exec.SpanRunReport`.
    """
    items, spans = [], []
    for chunk in chunks:
        spans.append((len(items), len(items) + len(chunk)))
        items.extend(chunk)
    if wrap is None:
        wrap = lambda start, part: part  # noqa: E731
    return run_spans_report(
        kind, len(items), workers=workers, spans=spans,
        payload=lambda start, stop: wrap(start, items[start:stop]),
        collect=lambda start, stop, values: values,
        transport="pickle", **options)

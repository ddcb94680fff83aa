"""One batch pipeline: pickle and shm runs share one span plan.

``run_many`` plans spans once and the transport only picks the hook
pair, so a seeded ragged batch must give the same digests — equal to
hashlib or the pure-Python reference — on every algorithm, engine,
worker count and transport, starting from the same number of spans.
``chunk_size`` caps the items of every span either transport dispatches.
"""

import dataclasses
import hashlib
import json
import random

import pytest

from repro.keccak import kangarootwelve, parallelhash128, parallelhash256
from repro.keccak.kangarootwelve import turboshake128
from repro.parallel_exec import plan_spans, scheduler, shm
from repro.programs import run_many, run_many_report
from repro.programs.batch_driver import supported_algorithms

needs_shm = pytest.mark.skipif(not shm.HAVE_SHM,
                               reason="no multiprocessing.shared_memory")

LENGTH = 40


def _reference(algorithm, message):
    if algorithm == "sha3_256":
        return hashlib.sha3_256(message).digest()
    if algorithm == "shake128":
        return hashlib.shake_128(message).digest(LENGTH)
    if algorithm == "shake256":
        return hashlib.shake_256(message).digest(LENGTH)
    if algorithm == "k12_leaf":
        return turboshake128(message, 32, domain=0x0B)
    tree = {"k12": kangarootwelve, "parallelhash128": parallelhash128,
            "parallelhash256": parallelhash256}[algorithm]
    return tree(message, LENGTH, engine="reference")


def _ragged_batch(seed, count):
    """``count`` messages of 0–4 KiB, the empty message included."""
    rng = random.Random(seed)
    return [b""] + [rng.randbytes(rng.randrange(4097))
                    for _ in range(count - 1)]


@needs_shm
@pytest.mark.parametrize("engine", ["soa", "compiled"])
@pytest.mark.parametrize("algorithm", supported_algorithms())
def test_every_transport_matches_the_reference(algorithm, engine):
    seed = sum(map(ord, algorithm + engine))
    messages = _ragged_batch(seed, 7)
    expected = [_reference(algorithm, m) for m in messages]
    for workers in (1, 2):
        initial = {}
        for transport in ("pickle", "shm"):
            report = run_many_report(messages, algorithm=algorithm,
                                     length=LENGTH, workers=workers,
                                     engine=engine, transport=transport)
            assert report.ok
            assert report.results == expected, (workers, transport)
            # Steals add spans while the run executes; the plan is what
            # is left after taking them out.
            initial[transport] = report.stats.chunks - report.stats.steals
        assert initial["pickle"] == initial["shm"] >= 1


# -- chunk_size caps every dispatched span -------------------------------------


@pytest.fixture
def dispatched(monkeypatch):
    """Item count of every span the scheduler dispatches, steals and
    retries included, as the parent hands it to the dispatch core."""
    sizes = []
    real_drive = scheduler.drive

    def spy_drive(pool, work, policy, hooks, stats, quarantine):
        def payload(span):
            sizes.append(span[1] - span[0])
            return hooks.payload(span)

        real_drive(pool, work, policy, dataclasses.replace(
            hooks, payload=payload), stats, quarantine)

    monkeypatch.setattr(scheduler, "drive", spy_drive)
    return sizes


@needs_shm
@pytest.mark.parametrize("transport", ["pickle", "shm"])
@pytest.mark.parametrize("engine", ["soa", "auto"])
def test_no_dispatched_span_exceeds_chunk_size(dispatched, transport,
                                               engine):
    messages = _ragged_batch(5, 40)
    report = run_many_report(messages, workers=2, chunk_size=5,
                             engine=engine, transport=transport)
    assert report.results == [hashlib.sha3_256(m).digest()
                              for m in messages]
    assert sum(dispatched) == len(messages)  # a clean run: no retries
    assert len(dispatched) == report.stats.chunks
    assert max(dispatched) <= 5


@needs_shm
@pytest.mark.parametrize("transport", ["pickle", "shm"])
def test_spans_stolen_on_resume_stay_under_the_cap(dispatched, tmp_path,
                                                    transport):
    # Drop one finished span from a manifest: the resume has a single
    # span left for two idle workers, so the first dispatch steals half.
    path = str(tmp_path / "manifest.json")
    messages = _ragged_batch(9, 16)
    options = dict(workers=2, chunk_size=8, engine="soa",
                   transport=transport, checkpoint=path)
    expected = run_many_report(messages, **options).results
    with open(path) as handle:
        saved = json.load(handle)
    assert sorted(saved["completed"]) == ["0:8", "8:16"]
    del saved["completed"]["0:8"]
    with open(path, "w") as handle:
        json.dump(saved, handle)
    dispatched.clear()

    report = run_many_report(messages, **options)
    assert report.results == expected
    assert report.stats.checkpoint_hits == 1
    assert report.stats.steals >= 1
    assert sum(dispatched) == 8 and max(dispatched) < 8


def test_chunk_size_below_one_is_rejected():
    for chunk_size in (0, -3):
        with pytest.raises(ValueError, match="chunk size"):
            run_many([b"abc"], workers=1, chunk_size=chunk_size)


def test_cap_applies_to_the_plan_and_wins_over_lanes():
    sizes = [100] * 10
    assert plan_spans(sizes, 1, lane_width=6, max_items=3) \
        == [(0, 3), (3, 6), (6, 9), (9, 10)]
    # Without a cap the plan keeps whole lane groups.
    assert plan_spans(sizes, 1, lane_width=6) == [(0, 6), (6, 10)]
    spans = plan_spans([4000] * 50, 2, max_items=7)
    assert max(stop - start for start, stop in spans) <= 7
    assert spans[0][0] == 0 and spans[-1][1] == 50
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))

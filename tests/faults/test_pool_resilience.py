"""Shard-engine resilience: watchdog, bounded retries, partial salvage.

The one true watchdog lives in the process-pool branch of
:func:`run_pool_resilient` — a hung worker is *killed* (the pool is
terminated), the item retried, and after the retry budget the failure
surfaces as a structured, picklable :class:`WorkerError` naming the shard.
"""

import pickle
import time

import numpy as np
import pytest

from repro.core.compressor import CereSZ
from repro.core.parallel import (
    compress_sharded,
    decompress_sharded,
    read_shard_table,
    run_pool_resilient,
)
from repro.errors import CompressionError, ContainerError, WorkerError
from repro.faults.report import ShardFailure
from repro.obs.metrics import MetricsRegistry

EPS = 1e-3


# Module-level so the multiprocessing pool can pickle them.
def _double(x):
    return x * 2


def _sleep_if_two(x):
    if x == 2:
        time.sleep(30)
    return x * 10


def _fail_if_two(x):
    if x == 2:
        raise ValueError("shard 2 always dies")
    return x * 10


class TestInlineAndThreads:
    def test_inline_success_path(self):
        results, failures = run_pool_resilient(_double, [1, 2, 3], jobs=1)
        assert results == [2, 4, 6]
        assert failures == ()

    def test_transient_failure_recovered_by_retry(self):
        calls = {"n": 0}

        def flaky(x):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise ValueError("transient")
            return x + 1

        results, failures = run_pool_resilient(
            flaky, [7], jobs=1, retries=2, backoff=0.001
        )
        assert results == [8]
        assert failures == ()
        assert calls["n"] == 3

    def test_terminal_failure_raises_worker_error(self):
        with pytest.raises(WorkerError) as exc_info:
            run_pool_resilient(
                _fail_if_two, [0, 1, 2, 3], jobs=1, retries=1, backoff=0.001
            )
        err = exc_info.value
        assert err.shard == 2  # item index (which here equals the value)
        assert err.attempts == 2  # 1 try + 1 retry
        assert len(err.failures) == 1
        assert err.failures[0].kind == "error"
        assert "ValueError" in err.failures[0].error

    def test_salvage_returns_partial_results(self):
        results, failures = run_pool_resilient(
            _fail_if_two, [0, 1, 2, 3], jobs=1, retries=0, salvage=True
        )
        assert results == [0, 10, None, 30]
        assert len(failures) == 1
        assert failures[0].index == 2

    def test_thread_pool_retry_recovers(self):
        calls = {"n": 0}

        def flaky(x):
            if x == 1:
                calls["n"] += 1
                if calls["n"] == 1:
                    raise ValueError("first attempt dies")
            return x * 3

        results, failures = run_pool_resilient(
            flaky, [0, 1, 2, 3], jobs=4, retries=1, backoff=0.001
        )
        assert results == [0, 3, 6, 9]
        assert failures == ()

    def test_negative_retries_rejected(self):
        with pytest.raises(CompressionError, match="retries"):
            run_pool_resilient(_double, [1], jobs=1, retries=-1)

    def test_retry_metrics_counted(self):
        registry = MetricsRegistry()
        with pytest.raises(WorkerError):
            run_pool_resilient(
                _fail_if_two, [1, 2], jobs=1, retries=2, backoff=0.001,
                metrics=registry,
            )
        retries = registry.get("host.pool_retries")
        assert retries is not None and retries.total() == 2


class TestProcessWatchdog:
    def test_hung_worker_killed_retried_then_structured_error(self):
        """The ISSUE 5 acceptance case: a worker that sleeps forever is
        killed by the watchdog, retried, and fails with a structured error
        once the retry budget is spent — in bounded wall time."""
        start = time.monotonic()
        with pytest.raises(WorkerError) as exc_info:
            run_pool_resilient(
                _sleep_if_two, [0, 1, 2, 3], jobs=2,
                processes=True, timeout=0.5, retries=1, backoff=0.01,
            )
        elapsed = time.monotonic() - start
        assert elapsed < 20  # nothing waited out the 30s sleep
        err = exc_info.value
        assert err.shard == 2
        assert err.attempts == 2
        assert err.failures[0].kind == "timeout"
        assert "killed" in err.failures[0].error

    def test_hung_worker_salvaged(self):
        results, failures = run_pool_resilient(
            _sleep_if_two, [0, 1, 2, 3], jobs=2,
            processes=True, timeout=0.5, retries=0, backoff=0.01,
            salvage=True,
        )
        assert results[0] == 0 and results[1] == 10 and results[3] == 30
        assert results[2] is None
        assert failures[0].kind == "timeout"

    def test_timeout_metrics_counted(self):
        registry = MetricsRegistry()
        run_pool_resilient(
            _sleep_if_two, [2], jobs=1,
            processes=True, timeout=0.3, retries=1, backoff=0.01,
            salvage=True, metrics=registry,
        )
        timeouts = registry.get("host.pool_timeouts")
        assert timeouts is not None and timeouts.total() == 2

    def test_healthy_process_pool_matches_inline(self):
        inline, _ = run_pool_resilient(_double, [1, 2, 3, 4], jobs=1)
        pooled, _ = run_pool_resilient(
            _double, [1, 2, 3, 4], jobs=2, processes=True, timeout=30
        )
        assert pooled == inline


class TestPicklability:
    def test_worker_error_round_trips_through_pickle(self):
        err = WorkerError(
            "shard 3 failed",
            shard=3,
            attempts=2,
            failures=(
                ShardFailure(index=3, attempts=2, kind="timeout", error="x"),
            ),
        )
        back = pickle.loads(pickle.dumps(err))
        assert back.shard == 3
        assert back.attempts == 2
        assert back.failures[0].kind == "timeout"
        assert str(back) == str(err)


class TestShardedEndToEnd:
    def _data(self):
        rng = np.random.default_rng(17)
        return rng.normal(size=40_000).cumsum().astype(np.float32)

    def test_resilient_compress_is_byte_identical(self):
        data = self._data()
        plain = compress_sharded(data, eps=EPS, shard_elements=10_000)
        resilient = compress_sharded(
            data, eps=EPS, shard_elements=10_000,
            timeout=60, retries=2, processes=True,
        )
        assert resilient.stream == plain.stream

    def test_resilient_decompress_matches(self):
        data = self._data()
        stream = compress_sharded(data, eps=EPS, shard_elements=10_000).stream
        plain = CereSZ().decompress(stream)
        resilient = decompress_sharded(stream, timeout=60, retries=2)
        assert np.array_equal(resilient, plain)

    @pytest.mark.parametrize(
        "pool",
        [
            dict(jobs=1),
            dict(jobs=2),
            dict(jobs=2, processes=True),
            dict(jobs=2, timeout=30),
        ],
        ids=["inline", "threads", "processes", "watchdog"],
    )
    def test_corrupt_shard_raises_the_same_error_on_any_pool(self, pool):
        """With retries=0 and no salvage there is nothing to retry, so the
        worker's ContainerError propagates unchanged, whichever pool runs
        the shards."""
        data = self._data()
        stream = compress_sharded(
            data, eps=EPS, shard_elements=10_000, checksum=True
        ).stream
        _, _, _, spans = read_shard_table(stream)
        bad = bytearray(stream)
        bad[spans[1][1] - 1] ^= 0xFF  # last record byte of shard 1
        with pytest.raises(ContainerError) as exc_info:
            decompress_sharded(bytes(bad), **pool)
        assert exc_info.value.groups == (4,)

"""Serial/threaded/multiprocess map used by the guidance strategies."""

from repro.parallel.executor import MODES, Executor, default_worker_count

__all__ = ["MODES", "Executor", "default_worker_count"]

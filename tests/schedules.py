"""A seeded schedule explorer: run_experiment on a pool whose one thread moves only when a seeded choice lets it.

GatedPool stands in for concurrent.futures.ThreadPoolExecutor. Its one
real thread runs in lockstep with the trainer: a submitted task waits in a
FIFO queue; at each submit and at each query of a future (cancel, done) a
seeded choice either starts the queue's head, which is then held as
running (no one can take it over), or lets the held task finish, which the
pool thread then makes while the trainer waits. A task whose result is
needed (result, exception, or the pool's shutdown) is finished then. So a
seed fixes the whole interleaving, and a run explores one of the orders in
which a real pool could start and finish its tasks.

The trainer is steered towards waiting with work queued: once the trainer
waits on the held task (done) while other tasks are queued, that task is
held until nothing is queued or its result is needed, so the trainer first
takes over the queued tasks it may help with (metrics.Task.result). And
when the trainer asks for a queued look-ahead update (cancel) while it is
not helping, a seeded choice starts that update, after finishing the tasks
queued before it as a FIFO pool would, and holds it; so the trainer waits
on running updates in later rounds too, not only behind the initial record.

Each pool counts the task states it reached:
  taken_over  a queued task cancelled by the trainer, which then makes it
              (or drops it after an error);
  helped      the held task waited on while tasks were queued (helped_rounds
              counts these by the update's round);
  early       a task found finished the first time its result was asked.

explore(monkeypatch, run, seed) installs the pool, sets the pool gate to 0
and reports two usable CPUs, runs `run()` and returns its outcome with the
pools it opened.
"""

from __future__ import annotations

import concurrent.futures
import queue
import random
import threading
from collections import Counter, deque
from concurrent.futures import Future

from defkt import federation, metrics

STATES = ("taken_over", "helped", "early")


def update_round(args) -> int | None:
    """The round of the look-ahead update a metrics.Task submitted as (context.run, task._run), else None."""
    fn, call = args[0].__self__._call
    return call[2] if fn is federation._sender_update else None


class GatedFuture(Future):
    def __init__(self, pool: GatedPool, update_round: int | None):
        super().__init__()
        self._pool, self._asked, self.update_round = pool, False, update_round

    def _ask(self) -> None:
        if not self._asked:
            self._asked = True
            if super().done() and not super().cancelled():
                self._pool.reached["early"] += 1

    def cancel(self) -> bool:
        self._ask()
        self._pool.probe(self)
        if self in self._pool.queue:
            self._pool.queue.remove(self)
            self._pool.reached["taken_over"] += 1
        return super().cancel()

    def done(self) -> bool:
        self._ask()
        if self is self._pool.held and self._pool.queue:
            self._pool.reached["helped"] += 1
            self._pool.helped_rounds[self.update_round] += 1
            self._pool.waited = self
        self._pool.probe()
        return super().done()

    def result(self, timeout=None):
        self._ask()
        self._pool.run_until(self)
        return super().result()

    def exception(self, timeout=None):
        self._ask()
        self._pool.run_until(self)
        return super().exception()


class GatedPool:
    """One pool thread, started and finished only at the trainer's seeded choices."""

    def __init__(self, rng: random.Random, p_start: float, p_finish: float, p_steer: float):
        self.rng, self.p_start, self.p_finish, self.p_steer = rng, p_start, p_finish, p_steer
        self.queue: deque[GatedFuture] = deque()
        self.held: GatedFuture | None = None
        self.waited: GatedFuture | None = None  # the held task the trainer waits on
        self.futures: list[GatedFuture] = []
        self.reached: Counter = Counter()
        self.helped_rounds: Counter = Counter()  # round of each update reached as helped
        self.shut = False
        self._calls: dict[GatedFuture, tuple] = {}
        self._inbox, self._outbox = queue.Queue(), queue.Queue()
        self.thread = threading.Thread(target=self._work, name="gated-pool", daemon=True)
        self.thread.start()

    def _work(self) -> None:
        while (future := self._inbox.get()) is not None:
            fn, args, kwargs = self._calls.pop(future)
            try:
                value = fn(*args, **kwargs)
            except Exception as exc:  # noqa: BLE001 - handed to the future, as a real pool does
                future.set_exception(exc)
            else:
                future.set_result(value)
            self._outbox.put(None)

    def submit(self, fn, *args, **kwargs) -> GatedFuture:
        assert threading.current_thread() is not self.thread, "a pool task submitted a task"
        future = GatedFuture(self, update_round(args))
        self._calls[future] = (fn, args, kwargs)
        self.futures.append(future)
        self.queue.append(future)
        self.probe()
        return future

    def probe(self, asked: GatedFuture | None = None) -> None:
        """One seeded step: finish the held task, or start the queue's head, or neither.

        When the trainer asks for a queued update (`asked`) and is not waiting on the held task,
        a seeded choice instead starts that update, after finishing the tasks queued before it.
        """
        helping = self.held is not None and self.held is self.waited
        if asked in self.queue and asked.update_round and not helping and self.rng.random() < self.p_steer:
            self.run_until(asked, finished=False)
        elif self.held is not None:
            if self.held is self.waited and self.queue:
                return  # held while the trainer waits on it and work is queued, so the trainer helps
            if self.rng.random() < self.p_finish:
                self._finish_held()
        elif self.queue and self.rng.random() < self.p_start:
            self._start()

    def _start(self) -> None:
        self.held = self.queue.popleft()
        assert self.held.set_running_or_notify_cancel()

    def _finish_held(self) -> None:
        future, self.held = self.held, None
        self._inbox.put(future)
        self._outbox.get(timeout=60)  # queue.Empty if the pool thread died
        assert Future.done(future)  # not GatedFuture.done, which would ask for the task and probe

    def run_until(self, future: GatedFuture, finished: bool = True) -> None:
        """Start and finish tasks in order until `future` is held (or, if finished, done), as a real pool would."""
        while future in self.queue:
            if self.held is not None:
                self._finish_held()
            self._start()
        assert future is self.held or Future.done(future), "waited on a task that is neither queued nor running"
        if finished and future is self.held:
            self._finish_held()

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        assert wait and cancel_futures, "run_experiment's pool is shut down with wait and cancel_futures"
        while self.queue:
            Future.cancel(self.queue.popleft())
        if self.held is not None:
            self._finish_held()
        self._inbox.put(None)
        self.thread.join(timeout=60)
        self.shut = True

    def idle(self) -> bool:
        """Nothing queued, nothing held, every future done and the thread joined."""
        return (self.shut and not self.queue and self.held is None and not self.thread.is_alive()
                and all(Future.done(f) for f in self.futures))


class Exploration:
    """What one seeded run gave: its outcome and the pools it opened."""

    def __init__(self, outcome, pools: list[GatedPool], schedule: tuple[float, float]):
        self.outcome, self.pools, self.schedule = outcome, pools, schedule

    def reached(self) -> Counter:
        return sum((pool.reached for pool in self.pools), Counter())

    def helped_rounds(self) -> Counter:
        return sum((pool.helped_rounds for pool in self.pools), Counter())


def outcome(run):
    """("value", the run's result) or ("error", its type and message)."""
    try:
        return "value", run()
    except Exception as exc:  # noqa: BLE001 - compared with the inline run's error
        return "error", (type(exc), str(exc))


def explore(monkeypatch, run, seed: int) -> Exploration:
    """Run `run()` with every pooled task on a GatedPool whose choices `seed` draws."""
    rng = random.Random(seed)
    # eager starts, slow finishes: tasks are often held; an update the trainer asks for while it is queued is mostly started
    schedule = (rng.uniform(0.3, 1.0), rng.uniform(0.02, 0.6), rng.uniform(0.5, 1.0))
    pools = []

    def gated(max_workers):
        assert max_workers == 1
        pools.append(GatedPool(rng, *schedule))
        return pools[-1]

    with monkeypatch.context() as patch:
        patch.setattr(concurrent.futures, "ThreadPoolExecutor", gated)
        patch.setattr(metrics, "PARALLEL_EVAL_WORK", 0)
        patch.setattr(metrics.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        result = outcome(run)
    return Exploration(result, pools, schedule)

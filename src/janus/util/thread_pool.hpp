#pragma once
/// \file thread_pool.hpp
/// Fixed-size thread pool for batch flow execution (E5: farm throughput),
/// and the WorkerTeam every intra-stage parallel sweep runs on.
/// Deliberately work-stealing-free: a single locked queue keeps scheduling
/// simple, and determinism comes from the task side — results are written
/// by task index and random streams are derived with mix_seed(base, index)
/// (rng.hpp), so outputs never depend on which worker ran a task or in
/// what order tasks finished.

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace janus {

class ThreadPool {
  public:
    /// Spawns `workers` threads (clamped to at least 1). The pool is fixed
    /// size for its lifetime; the destructor drains the queue and joins.
    explicit ThreadPool(int workers);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    std::size_t size() const { return threads_.size(); }

    /// Enqueues a task; returns immediately. Tasks are picked up in FIFO
    /// order but may complete in any order.
    void submit(std::function<void()> task);

    /// Runs fn(slot) once for each slot in [0, slots) concurrently and
    /// blocks until all return. The slot id is stable for the duration of
    /// the call, so callers can hand each slot persistent private scratch
    /// (claim arrays, grid copies) and drain shared worklists from inside
    /// fn; WorkerTeam below is built on it. `slots` is clamped to
    /// [1, size()]. If any slot throws, the exception from the lowest slot
    /// id is rethrown after every slot has settled.
    void run_slots(std::size_t slots,
                   const std::function<void(std::size_t)>& fn);

  private:
    void worker_loop();

    std::vector<std::thread> threads_;
    std::queue<std::function<void()>> queue_;
    mutable std::mutex mutex_;
    std::condition_variable task_ready_;
    bool stopping_ = false;
};

/// The one intra-stage parallel sweep: `slots()` worker slots with stable
/// ids, so each slot can own scratch (cone evaluators, claim arrays, grid
/// copies) that is allocated once and reused across every for_each call.
/// Synthesis levels, timing levels, placement regions and routing panels
/// all run on it.
class WorkerTeam {
  public:
    /// `workers` <= 1 starts no threads: every call runs inline.
    explicit WorkerTeam(int workers);

    /// Scratch-slot count; fn's `slot` argument is always below it.
    std::size_t slots() const { return pool_ ? pool_->size() : 1; }

    /// Runs fn(i, slot) for every i in [0, n) and blocks until all calls
    /// return. Slots pull blocks of `grain` consecutive indices from a
    /// shared cursor; with one slot, or when n fits in one block, every call
    /// runs inline on the calling thread at slot 0. Which slot runs an index
    /// is scheduling-dependent, so fn must write its results indexed by `i`
    /// and use `slot` only for scratch; fn must not call for_each on the
    /// same team (its slots would wait on themselves). If calls throw, the
    /// exception of the lowest failing index is rethrown once every slot
    /// has settled; indices past a failure may or may not run.
    void for_each(std::size_t n,
                  const std::function<void(std::size_t i, std::size_t slot)>& fn,
                  std::size_t grain = 1);

  private:
    std::unique_ptr<ThreadPool> pool_;  ///< null when serial
};

}  // namespace janus

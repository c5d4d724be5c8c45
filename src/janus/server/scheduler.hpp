#pragma once
/// \file scheduler.hpp
/// Admission and scheduling layer for flow execution: the job/parallelism
/// API `FlowEngine::run_batch()` is now a thin wrapper over. A
/// FlowScheduler multiplexes concurrently submitted jobs onto ONE shared
/// util/thread_pool under a two-level priority policy — ECO / interactive
/// work (JobPriority::Eco) is always admitted ahead of queued full flows
/// (JobPriority::Batch), FIFO within a level — which is what lets the flow
/// server (flow_server.hpp) answer incremental timing queries with low
/// latency while multi-minute batch flows are in flight.
///
/// Execution is exception-safe by construction: a job that throws (bad
/// FlowParams, a failing stage) completes as a *failed* JobHandle whose
/// FlowResult carries the exception text in `error` — sibling jobs and the
/// pool itself are never poisoned, and the scheduler drains cleanly.
///
/// Determinism: each job owns its netlist copy and seeds its own RNG
/// streams, and the only state jobs share is the engine's SOP memo, whose
/// covers are pure functions of their keys, so results are byte-identical
/// for any worker count and any admission order — priority changes *when*
/// a job runs, never *what* it computes.

#include <cstddef>
#include <functional>
#include <memory>
#include <string>

#include "janus/flow/flow_engine.hpp"
#include "janus/flow/report.hpp"

namespace janus {

/// Admission class of one scheduled unit of work. Higher runs sooner.
enum class JobPriority : int {
    Batch = 0,  ///< full flows, batch sweeps (default)
    Eco = 1,    ///< incremental ECO / interactive queries: jump the queue
};

/// Scheduler-wide counters (monotonic over the scheduler's lifetime).
struct SchedulerStats {
    std::size_t submitted = 0;      ///< total jobs accepted
    std::size_t completed = 0;      ///< finished, including failures
    std::size_t failed = 0;         ///< completed with a populated error
    std::size_t eco_submitted = 0;  ///< jobs admitted at JobPriority::Eco
    /// Jobs that were admitted ahead of at least one earlier-submitted
    /// batch job still waiting (the priority policy doing work).
    std::size_t eco_preempts = 0;
};

/// Handle to one submitted job: wait()/done() plus access to the result
/// and the per-run stage trace. Cheap to copy (shared state); a default-
/// constructed handle is invalid. Handles outlive the scheduler safely —
/// the scheduler's destructor waits for every submitted job first.
class JobHandle {
  public:
    JobHandle() = default;

    bool valid() const { return state_ != nullptr; }
    /// True once the job has finished (successfully or not). Non-blocking.
    bool done() const;
    /// Blocks until the job finishes and returns its result. A failed job
    /// (an exception escaped the flow) reports through FlowResult::error —
    /// wait() itself never throws. Requires valid().
    const FlowResult& wait();
    /// Blocks like wait() and returns the per-run stage trace (empty for
    /// generic submit_fn work and for jobs that failed before running).
    const StageTrace& trace();

  private:
    friend class FlowScheduler;
    struct State;
    std::shared_ptr<State> state_;
};

/// The admission/scheduling layer. Owns the shared thread pool; the engine
/// reference must outlive the scheduler.
class FlowScheduler {
  public:
    /// Spawns a pool of `workers` threads (clamped to >= 1).
    FlowScheduler(const FlowEngine& engine, int workers);
    /// Waits for every submitted job, then joins the pool.
    ~FlowScheduler();

    FlowScheduler(const FlowScheduler&) = delete;
    FlowScheduler& operator=(const FlowScheduler&) = delete;

    std::size_t workers() const;

    /// Admits one flow job. The job is taken by value: a caller that
    /// moves it in hands its netlist over without a copy, one that passes
    /// an lvalue keeps its object and pays one copy. The full pipeline
    /// runs when a pool worker picks the job, and the implemented netlist
    /// lands in FlowResult::mapped without an extra copy.
    JobHandle submit(FlowJob job, JobPriority priority = JobPriority::Batch);

    /// Admits a generic unit of work under the same priority queue — the
    /// flow server uses this to schedule ECO/timing queries ahead of
    /// pending full flows. The returned handle's FlowResult is empty except
    /// for `error` when `work` threw.
    JobHandle submit_fn(std::function<void()> work, JobPriority priority);

    /// Blocks until every job submitted so far has completed.
    void wait_all();

    SchedulerStats stats() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

}  // namespace janus

#include "janus/server/scheduler.hpp"

#include <condition_variable>
#include <deque>
#include <mutex>
#include <utility>

#include "janus/util/thread_pool.hpp"

namespace janus {

// ------------------------------------------------------------- JobHandle

struct JobHandle::State {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    FlowResult result;
    StageTrace trace;
};

bool JobHandle::done() const {
    std::lock_guard<std::mutex> lock(state_->mu);
    return state_->done;
}

const FlowResult& JobHandle::wait() {
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock, [this] { return state_->done; });
    return state_->result;
}

const StageTrace& JobHandle::trace() {
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock, [this] { return state_->done; });
    return state_->trace;
}

// --------------------------------------------------------- FlowScheduler

struct FlowScheduler::Impl {
    /// One admitted-but-not-yet-started unit of work.
    struct Pending {
        std::uint64_t seq = 0;
        std::shared_ptr<JobHandle::State> state;
        std::function<void(JobHandle::State&)> execute;
    };

    const FlowEngine* engine;
    mutable std::mutex mu;
    std::condition_variable drained;
    std::deque<Pending> eco_queue;    // JobPriority::Eco, FIFO
    std::deque<Pending> batch_queue;  // JobPriority::Batch, FIFO
    SchedulerStats stats;
    std::size_t outstanding = 0;  ///< submitted, not yet completed
    std::uint64_t next_seq = 0;
    // Destroyed first (reverse member order): the pool drains its pump
    // tasks while the queues above are still alive.
    ThreadPool pool;

    Impl(const FlowEngine& eng, int workers) : engine(&eng), pool(workers) {}

    /// Runs on a pool worker, once per admitted job: picks the highest-
    /// priority pending work at *execution* time (not submit time), so an
    /// ECO admitted after ten batch flows still runs on the next free
    /// worker. Exactly as many pump tasks are queued as jobs admitted.
    void pump() {
        Pending p;
        {
            std::lock_guard<std::mutex> lock(mu);
            if (!eco_queue.empty()) {
                p = std::move(eco_queue.front());
                eco_queue.pop_front();
                if (!batch_queue.empty() && batch_queue.front().seq < p.seq) {
                    ++stats.eco_preempts;
                }
            } else if (!batch_queue.empty()) {
                p = std::move(batch_queue.front());
                batch_queue.pop_front();
            } else {
                return;  // unreachable: one pump per admitted job
            }
        }
        p.execute(*p.state);
        // Counters first: a waiter woken by the job's cv must observe the
        // scheduler stats this completion produced.
        {
            std::lock_guard<std::mutex> lock(mu);
            ++stats.completed;
            if (p.state->result.failed()) ++stats.failed;
            if (--outstanding == 0) drained.notify_all();
        }
        {
            std::lock_guard<std::mutex> lock(p.state->mu);
            p.state->done = true;
        }
        p.state->cv.notify_all();
    }

    JobHandle admit(std::function<void(JobHandle::State&)> execute,
                    JobPriority priority) {
        JobHandle handle;
        handle.state_ = std::make_shared<JobHandle::State>();
        Pending p;
        p.state = handle.state_;
        p.execute = std::move(execute);
        {
            std::lock_guard<std::mutex> lock(mu);
            p.seq = next_seq++;
            ++stats.submitted;
            ++outstanding;
            if (priority == JobPriority::Eco) {
                ++stats.eco_submitted;
                eco_queue.push_back(std::move(p));
            } else {
                batch_queue.push_back(std::move(p));
            }
        }
        pool.submit([this] { pump(); });
        return handle;
    }
};

FlowScheduler::FlowScheduler(const FlowEngine& engine, int workers)
    : impl_(std::make_unique<Impl>(engine, workers)) {}

FlowScheduler::~FlowScheduler() { wait_all(); }

std::size_t FlowScheduler::workers() const { return impl_->pool.size(); }

JobHandle FlowScheduler::submit(FlowJob job, JobPriority priority) {
    const FlowEngine* engine = impl_->engine;
    return impl_->admit(
        [engine, job = std::move(job)](JobHandle::State& state) mutable {
            // The design name survives even when the context constructor
            // throws (it consumes the netlist), so failures stay
            // attributable.
            const std::string design = job.netlist.name();
            try {
                FlowContext ctx(std::move(job.netlist), job.node, job.params);
                for (const std::string& s : job.skip_stages) ctx.skip(s);
                try {
                    engine->run_until(ctx, engine->stages().size());
                    // Keep the implemented netlist without an extra copy.
                    ctx.result.mapped =
                        std::make_shared<Netlist>(std::move(ctx.netlist));
                } catch (const std::exception& e) {
                    // A failing stage surfaces as a failed result that
                    // keeps the QoR accumulated before the failure.
                    ctx.result.error = e.what();
                }
                state.result = std::move(ctx.result);
                state.trace = std::move(ctx.trace);
            } catch (const std::exception& e) {
                state.result.design = design;
                state.result.error = e.what();
            } catch (...) {
                state.result.design = design;
                state.result.error = "unknown exception";
            }
        },
        priority);
}

JobHandle FlowScheduler::submit_fn(std::function<void()> work,
                                   JobPriority priority) {
    return impl_->admit(
        [work = std::move(work)](JobHandle::State& state) {
            try {
                work();
            } catch (const std::exception& e) {
                state.result.error = e.what();
            } catch (...) {
                state.result.error = "unknown exception";
            }
        },
        priority);
}

void FlowScheduler::wait_all() {
    std::unique_lock<std::mutex> lock(impl_->mu);
    impl_->drained.wait(lock, [this] { return impl_->outstanding == 0; });
}

SchedulerStats FlowScheduler::stats() const {
    std::lock_guard<std::mutex> lock(impl_->mu);
    return impl_->stats;
}

}  // namespace janus

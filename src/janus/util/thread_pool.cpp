#include "janus/util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <utility>

namespace janus {

ThreadPool::ThreadPool(int workers) {
    const int n = std::max(1, workers);
    threads_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        threads_.emplace_back([this] { worker_loop(); });
    }
}

ThreadPool::~ThreadPool() {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    task_ready_.notify_all();
    for (std::thread& t : threads_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push(std::move(task));
    }
    task_ready_.notify_one();
}

void ThreadPool::worker_loop() {
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            task_ready_.wait(lock,
                             [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty()) return;  // stopping and drained
            task = std::move(queue_.front());
            queue_.pop();
        }
        task();  // tasks must not throw; run_slots wraps user fns
    }
}

void ThreadPool::run_slots(std::size_t slots,
                           const std::function<void(std::size_t)>& fn) {
    const std::size_t k = std::clamp<std::size_t>(slots, 1, threads_.size());
    // Exception bookkeeping: keep the one thrown by the lowest slot so a
    // parallel run reports the same failure a serial loop would hit first.
    std::mutex err_mutex;
    std::exception_ptr first_error;
    std::size_t first_error_slot = std::numeric_limits<std::size_t>::max();
    // The completion count lives under done_mutex and the last slot notifies
    // while still holding it: the caller cannot observe zero, return and
    // destroy these stack locals until that slot has released the lock.
    std::size_t remaining = k;
    std::mutex done_mutex;
    std::condition_variable done_cv;

    for (std::size_t s = 0; s < k; ++s) {
        submit([&, s] {
            try {
                fn(s);
            } catch (...) {
                std::lock_guard<std::mutex> lock(err_mutex);
                if (s < first_error_slot) {
                    first_error_slot = s;
                    first_error = std::current_exception();
                }
            }
            std::lock_guard<std::mutex> lock(done_mutex);
            if (--remaining == 0) done_cv.notify_all();
        });
    }
    std::unique_lock<std::mutex> lock(done_mutex);
    done_cv.wait(lock, [&] { return remaining == 0; });
    lock.unlock();
    if (first_error) std::rethrow_exception(first_error);
}

WorkerTeam::WorkerTeam(int workers) {
    if (workers > 1) pool_ = std::make_unique<ThreadPool>(workers);
}

void WorkerTeam::for_each(std::size_t n,
                          const std::function<void(std::size_t, std::size_t)>& fn,
                          std::size_t grain) {
    grain = std::max<std::size_t>(1, grain);
    const std::size_t blocks = n / grain + (n % grain != 0);
    if (!pool_ || blocks <= 1) {
        for (std::size_t i = 0; i < n; ++i) fn(i, 0);
        return;
    }
    // A slot that finishes its block early takes the next one instead of
    // idling at a per-call barrier. Failures are merged under the mutex so
    // the globally lowest index wins, as a serial loop would report it.
    std::atomic<std::size_t> cursor{0};
    std::mutex err_mutex;
    std::exception_ptr first_error;
    std::size_t first_error_index = std::numeric_limits<std::size_t>::max();
    pool_->run_slots(std::min(blocks, pool_->size()), [&](std::size_t slot) {
        for (std::size_t b = cursor.fetch_add(grain); b < n;
             b = cursor.fetch_add(grain)) {
            const std::size_t e = b + std::min(grain, n - b);
            for (std::size_t i = b; i < e; ++i) {
                try {
                    fn(i, slot);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(err_mutex);
                    if (i < first_error_index) {
                        first_error_index = i;
                        first_error = std::current_exception();
                    }
                }
            }
        }
    });
    if (first_error) std::rethrow_exception(first_error);
}

}  // namespace janus

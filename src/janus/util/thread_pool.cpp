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
        ++in_flight_;
    }
    task_ready_.notify_one();
}

void ThreadPool::wait_idle() {
    std::unique_lock<std::mutex> lock(mutex_);
    all_done_.wait(lock, [this] { return in_flight_ == 0; });
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
        task();  // tasks must not throw; for_each_index wraps user fns
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --in_flight_;
            if (in_flight_ == 0) all_done_.notify_all();
        }
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

void ThreadPool::for_each_index(std::size_t n,
                                const std::function<void(std::size_t)>& fn) {
    if (n == 0) return;
    // Stripe the index space over slot tasks pulling from a shared cursor.
    // The lowest-index-exception contract needs care: each slot records its
    // own lowest failure, and the slots' candidates are merged under the
    // error mutex so the globally lowest index wins.
    std::mutex err_mutex;
    std::exception_ptr first_error;
    std::size_t first_error_index = std::numeric_limits<std::size_t>::max();
    std::atomic<std::size_t> cursor{0};

    run_slots(std::min(n, threads_.size()), [&](std::size_t) {
        for (std::size_t i = cursor.fetch_add(1); i < n;
             i = cursor.fetch_add(1)) {
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(err_mutex);
                if (i < first_error_index) {
                    first_error_index = i;
                    first_error = std::current_exception();
                }
            }
        }
    });
    if (first_error) std::rethrow_exception(first_error);
}

}  // namespace janus

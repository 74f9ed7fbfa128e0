#ifndef FINGRAV_SUPPORT_THREAD_POOL_HPP_
#define FINGRAV_SUPPORT_THREAD_POOL_HPP_

/**
 * @file
 * Minimal persistent thread pool for data-parallel loops.
 *
 * Built for campaign-level placement: ThreadPoolBackend fans independent
 * campaigns over one pool with parallelFor, each campaign stepping its
 * own node on the thread that claimed it.  Workers are created once and
 * woken per job with a generation-counted barrier.
 *
 * Work items are claimed through a shared atomic counter, so the
 * *assignment* of items to threads is non-deterministic — callers must
 * only submit items that are independent and deterministic in isolation
 * (true for hermetic campaigns: each owns its node and every RNG stream
 * and writes only its own result slot).  Exceptions thrown by items are
 * captured and the first one is rethrown on the calling thread after the
 * barrier.
 */

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fingrav::support {

/** Persistent worker pool running parallelFor jobs; caller participates. */
class ThreadPool {
  public:
    /**
     * @param threads  Total concurrency including the calling thread;
     *                 `threads - 1` workers are spawned (0 and 1 mean
     *                 "no workers": parallelFor degenerates to a loop).
     */
    explicit ThreadPool(std::size_t threads);

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    ~ThreadPool();

    /** Total concurrency (workers + the calling thread). */
    std::size_t threads() const { return workers_.size() + 1; }

    /**
     * Run `fn(i)` for every i in [0, n), distributed over the pool.
     * Blocks until all items complete; rethrows the first item exception.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)>& fn);

  private:
    void workerMain();

    /** Claim and run items until the current job is exhausted. */
    void drainJob();

    std::vector<std::thread> workers_;

    std::mutex mu_;
    std::condition_variable cv_start_;
    std::condition_variable cv_done_;
    bool stop_ = false;
    std::uint64_t generation_ = 0;  ///< bumped per job; wakes workers
    std::size_t workers_done_ = 0;

    const std::function<void(std::size_t)>* job_ = nullptr;
    std::size_t job_size_ = 0;
    std::atomic<std::size_t> next_item_{0};

    std::mutex error_mu_;
    std::exception_ptr first_error_;
};

}  // namespace fingrav::support

#endif  // FINGRAV_SUPPORT_THREAD_POOL_HPP_

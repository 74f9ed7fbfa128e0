#include "support/thread_pool.hpp"

#include <condition_variable>

namespace fingrav::support {

ThreadPool::ThreadPool(std::size_t threads)
{
    const std::size_t workers = threads > 1 ? threads - 1 : 0;
    workers_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i)
        workers_.emplace_back([this] { workerMain(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
    }
    cv_start_.notify_all();
    for (auto& w : workers_)
        w.join();
}

void
ThreadPool::workerMain()
{
    std::uint64_t seen = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lk(mu_);
            cv_start_.wait(lk,
                           [&] { return stop_ || generation_ != seen; });
            if (stop_)
                return;
            seen = generation_;
        }
        drainJob();
        {
            std::lock_guard<std::mutex> lk(mu_);
            if (++workers_done_ == workers_.size())
                cv_done_.notify_one();
        }
    }
}

void
ThreadPool::drainJob()
{
    for (;;) {
        const std::size_t i =
            next_item_.fetch_add(1, std::memory_order_relaxed);
        if (i >= job_size_)
            return;
        try {
            (*job_)(i);
        } catch (...) {
            std::lock_guard<std::mutex> lk(error_mu_);
            if (!first_error_)
                first_error_ = std::current_exception();
        }
    }
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)>& fn)
{
    if (workers_.empty() || n <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    {
        std::lock_guard<std::mutex> lk(mu_);
        job_ = &fn;
        job_size_ = n;
        next_item_.store(0, std::memory_order_relaxed);
        workers_done_ = 0;
        first_error_ = nullptr;
        ++generation_;
    }
    cv_start_.notify_all();
    drainJob();
    {
        std::unique_lock<std::mutex> lk(mu_);
        cv_done_.wait(lk, [&] { return workers_done_ == workers_.size(); });
        job_ = nullptr;
        job_size_ = 0;
    }
    if (first_error_)
        std::rethrow_exception(first_error_);
}

void
ThreadPool::roundLoop(const std::function<std::size_t()>& leader,
                      const std::function<void(std::size_t)>& fn)
{
    // One participant per pool thread (a worker-less pool runs the same
    // rounds on the calling thread alone; serial callers loop in place).  Each participant loops over
    // rounds: arrive at the barrier; the last arriver runs the leader
    // section (exclusively, under the barrier mutex — everyone else is
    // asleep) and opens the next round; then every participant claims
    // items through the shared counter.  The barrier mutex orders item
    // writes before the leader's reads, so device state mutated in round
    // r is visible to the leader computing round r+1.
    struct RoundState {
        std::mutex m;
        std::condition_variable cv;
        std::size_t arrived = 0;
        std::uint64_t round = 0;
        std::size_t count = 0;
        bool done = false;
        std::atomic<std::size_t> next{0};
        std::exception_ptr error;
    } st;
    const std::size_t participants = threads();

    parallelFor(participants, [&](std::size_t) {
        std::uint64_t seen = 0;
        for (;;) {
            {
                std::unique_lock<std::mutex> lk(st.m);
                if (++st.arrived == participants) {
                    std::size_t n = 0;
                    if (!st.error) {
                        try {
                            n = leader();
                        } catch (...) {
                            st.error = std::current_exception();
                        }
                    }
                    st.count = n;
                    st.done = (n == 0);
                    st.next.store(0, std::memory_order_relaxed);
                    st.arrived = 0;
                    ++st.round;
                    lk.unlock();
                    st.cv.notify_all();
                } else {
                    st.cv.wait(lk, [&] { return st.round != seen; });
                }
            }
            ++seen;
            if (st.done)
                return;
            for (;;) {
                const std::size_t i =
                    st.next.fetch_add(1, std::memory_order_relaxed);
                if (i >= st.count)
                    break;
                try {
                    fn(i);
                } catch (...) {
                    std::lock_guard<std::mutex> lk(st.m);
                    if (!st.error)
                        st.error = std::current_exception();
                }
            }
        }
    });
    if (st.error)
        std::rethrow_exception(st.error);
}

}  // namespace fingrav::support

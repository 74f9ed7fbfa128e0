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

}  // namespace fingrav::support

#include "common/work_pool.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <system_error>

namespace pdw {

struct WorkPool::Job {
  Job(void* c, void (*fn)(void*, int), int count)
      : ctx(c), call(fn), n(count) {}

  void* const ctx;
  void (*const call)(void*, int);
  const int n;
  std::atomic<int> next{0};  // claim cursor
  // Guarded by the pool's mu_:
  Job* link = nullptr;
  int holders = 0;  // workers that took the job and may still run an item
  std::exception_ptr error;
  std::condition_variable done;  // holders dropped to 0
};

WorkPool& WorkPool::global() {
  static WorkPool* const pool = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    const int cpus =
        sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 1;
    return new WorkPool(std::max(0, cpus - 1));
  }();
  return *pool;
}

WorkPool::WorkPool(int workers) {
  for (int i = 0; i < workers; ++i) {
    try {
      threads_.emplace_back([this] { worker_loop(); });
    } catch (const std::system_error&) {
      break;  // any number of workers is correct; run with those started
    }
  }
}

WorkPool::~WorkPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void WorkPool::drain(Job& j) {
  for (;;) {
    const int i = j.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= j.n) return;
    try {
      j.call(j.ctx, i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!j.error) j.error = std::current_exception();
    }
  }
}

void WorkPool::unlink(Job* j) {
  for (Job** p = &head_; *p != nullptr; p = &(*p)->link)
    if (*p == j) {
      *p = j->link;
      return;
    }
}

void WorkPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    wake_.wait(lock, [this] { return stop_ || head_ != nullptr; });
    if (stop_) return;
    Job& j = *head_;
    ++j.holders;
    lock.unlock();
    drain(j);
    lock.lock();
    unlink(&j);  // its cursor is spent
    if (--j.holders == 0) j.done.notify_one();
  }
}

void WorkPool::run_erased(int n, void* ctx, void (*call)(void*, int)) {
  Job j(ctx, call, n);
  const int helpers = std::min(n - 1, workers());
  if (helpers > 0) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      Job** tail = &head_;
      while (*tail != nullptr) tail = &(*tail)->link;
      *tail = &j;
    }
    for (int k = 0; k < helpers; ++k) wake_.notify_one();
  }
  drain(j);
  std::unique_lock<std::mutex> lock(mu_);
  unlink(&j);  // no new holders from here on
  // The cursor is spent, so every item was claimed: by this thread, which
  // has run its own, or by a holder that may still be running one.
  j.done.wait(lock, [&j] { return j.holders == 0; });
  lock.unlock();
  if (j.error) std::rethrow_exception(j.error);
}

}  // namespace pdw

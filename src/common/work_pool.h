// Process-wide fork-join pool for a few independent work items per call (a
// tile decoder's row bands).
//
// The process has one pool, sized once from its CPU affinity mask: cores - 1
// workers, so the calling thread plus the workers fill the cores the process
// may run on, and a 1-CPU process runs every item on its caller. Any number
// of threads may call run() at once; their jobs share the workers, oldest
// first. Workers block on a condition variable when nothing is queued.
#pragma once

#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace pdw {

class WorkPool {
 public:
  // The process's pool, started on first use and never torn down.
  static WorkPool& global();

  explicit WorkPool(int workers);
  ~WorkPool();

  WorkPool(const WorkPool&) = delete;
  WorkPool& operator=(const WorkPool&) = delete;

  int workers() const { return int(threads_.size()); }

  // Calls fn(i) once for every i in [0, n), on the calling thread and on any
  // idle workers. Items are claimed in index order from an atomic cursor, so
  // a slow item holds up only the thread running it. Returns once every item
  // has finished; if any threw, the first exception is rethrown here, after
  // all of them finished. The job lives on the caller's stack: a call
  // allocates nothing.
  template <typename Fn>
  void run(int n, Fn& fn) {
    run_erased(n, &fn, [](void* f, int i) { (*static_cast<Fn*>(f))(i); });
  }

 private:
  struct Job;

  void run_erased(int n, void* ctx, void (*call)(void*, int));
  void worker_loop();
  void drain(Job& j);   // runs items until the cursor passes n
  void unlink(Job* j);  // drops j from the queue (mu_ held)

  std::mutex mu_;
  std::condition_variable wake_;
  Job* head_ = nullptr;  // queued jobs that may have unclaimed items
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace pdw

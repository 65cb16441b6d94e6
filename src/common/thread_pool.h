// Fixed-size thread pool for batch inference and the sharded database build.
//
// Design constraints, in order of importance:
//   1. No deadlocks under nesting: `ParallelFor` is driven by the *calling*
//      thread (pool workers only help), and a caller waiting on its helpers
//      keeps draining the shared queue instead of sleeping. A task running on
//      a pool worker may therefore itself call `ParallelFor` on the same
//      pool — worst case it runs its iterations on its own thread while the
//      workers are busy.
//   2. Deterministic results: work distribution is dynamic (an atomic index),
//      but callers write into per-index slots, so scheduling never affects
//      the output.
//   3. Zero workers means "run everything inline on the calling thread" —
//      the serial path and the parallel path share all code.

#ifndef CSI_SRC_COMMON_THREAD_POOL_H_
#define CSI_SRC_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace csi {

class ThreadPool {
 public:
  // `num_workers` background threads; 0 disables them (inline execution).
  explicit ThreadPool(int num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()); }

  // Schedules `fn` on a worker (or runs it inline with 0 workers). The
  // returned future carries the result or the thrown exception.
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    Post([task]() { (*task)(); });
    return result;
  }

  // Runs fn(0) .. fn(n-1) and blocks until all calls finished. The calling
  // thread participates; up to num_workers() workers help. If any call
  // throws, the first exception (in completion order) is rethrown here after
  // the loop drains, and remaining iterations are skipped.
  void ParallelFor(int64_t n, const std::function<void(int64_t)>& fn);

 private:
  void Post(std::function<void()> task);
  void WorkerLoop();
  // Pops and runs one queued task on the calling thread; false if the queue
  // was empty. Used by ParallelFor to help instead of blocking idle.
  bool RunOneTask();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

// `pool` may be null: then the loop runs serially on the calling thread.
void ParallelFor(ThreadPool* pool, int64_t n, const std::function<void(int64_t)>& fn);

}  // namespace csi

#endif  // CSI_SRC_COMMON_THREAD_POOL_H_

// Unbounded multi-producer multi-consumer queue built on mutex + condition
// variable. Used as the message channel between router, processor, and
// storage threads in the real (non-simulated) runtime.
//
// Close() wakes all blocked consumers; Pop() then drains remaining items
// before reporting closure, so no message is ever lost on shutdown.

#ifndef GROUTING_SRC_UTIL_MPMC_QUEUE_H_
#define GROUTING_SRC_UTIL_MPMC_QUEUE_H_

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace grouting {

template <typename T>
class MpmcQueue {
 public:
  MpmcQueue() = default;
  MpmcQueue(const MpmcQueue&) = delete;
  MpmcQueue& operator=(const MpmcQueue&) = delete;

  // Returns false if the queue is already closed (item is dropped).
  bool Push(T item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) {
        return false;
      }
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
    return true;
  }

  // Blocks until an item is available or the queue is closed and drained.
  // Returns nullopt only on closed-and-empty.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return !items_.empty() || closed_; });
    if (items_.empty()) {
      return std::nullopt;
    }
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  // Non-blocking pop.
  std::optional<T> TryPop() {
    std::lock_guard<std::mutex> lock(mu_);
    if (items_.empty()) {
      return std::nullopt;
    }
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  size_t Size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace grouting

#endif  // GROUTING_SRC_UTIL_MPMC_QUEUE_H_

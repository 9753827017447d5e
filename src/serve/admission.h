#ifndef O2SR_SERVE_ADMISSION_H_
#define O2SR_SERVE_ADMISSION_H_

#include <atomic>
#include <cstdint>

namespace o2sr::serve {

// Bounded admission for the serving engine: a lock-free in-flight counter
// with a high-water mark. A request is admitted when the current in-flight
// count is below the mark; past it the engine sheds the request with
// RESOURCE_EXHAUSTED instead of queueing unboundedly — under overload,
// answering some requests on time beats answering all of them late.
//
// Admission is a counter, not a queue: the engine is synchronous, so
// "queued" work is exactly the set of concurrently admitted calls, and the
// high-water mark bounds it directly.
class AdmissionController {
 public:
  // `max_inflight` <= 0 means unbounded (admission always succeeds).
  explicit AdmissionController(int64_t max_inflight)
      : max_inflight_(max_inflight) {}

  // True = admitted (caller must Release); false = shed.
  bool TryAdmit() {
    if (max_inflight_ <= 0) {
      inflight_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    int64_t current = inflight_.load(std::memory_order_relaxed);
    while (current < max_inflight_) {
      if (inflight_.compare_exchange_weak(current, current + 1,
                                          std::memory_order_acq_rel)) {
        return true;
      }
    }
    shed_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  void Release() { inflight_.fetch_sub(1, std::memory_order_acq_rel); }

  // RAII admission: `Ticket t(controller); if (!t.admitted()) shed;`.
  class Ticket {
   public:
    explicit Ticket(AdmissionController& controller)
        : controller_(controller), admitted_(controller.TryAdmit()) {}
    ~Ticket() {
      if (admitted_) controller_.Release();
    }
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;
    bool admitted() const { return admitted_; }

   private:
    AdmissionController& controller_;
    bool admitted_;
  };

  int64_t inflight() const {
    return inflight_.load(std::memory_order_relaxed);
  }
  int64_t max_inflight() const { return max_inflight_; }
  uint64_t shed_count() const {
    return shed_.load(std::memory_order_relaxed);
  }

 private:
  int64_t max_inflight_ = 0;
  std::atomic<int64_t> inflight_{0};
  std::atomic<uint64_t> shed_{0};
};

}  // namespace o2sr::serve

#endif  // O2SR_SERVE_ADMISSION_H_

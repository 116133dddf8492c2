#include "backend/backend.h"

#include <atomic>

#include "obs/metrics.h"

namespace gva::backend {

namespace {

/// Records the selection in the metrics registry. Idempotent; under
/// -DGVA_OBS=OFF the gauge compiles to a no-op and selection costs nothing.
void AnnounceSelection(const KernelBackend* b) {
  obs::GlobalMetrics().gauge("backend.selected").Set(
      static_cast<int64_t>(b->id));
}

std::atomic<const KernelBackend*>& ActiveSlot() {
  static std::atomic<const KernelBackend*> slot{nullptr};
  return slot;
}

}  // namespace

#if !defined(GVA_BACKEND_AVX2)
const KernelBackend* Avx2Backend() { return nullptr; }
#endif

std::vector<const KernelBackend*> AvailableBackends() {
  std::vector<const KernelBackend*> backends;
  if (const KernelBackend* b = Avx2Backend()) {
    backends.push_back(b);
  }
  backends.push_back(ScalarBackend());
  return backends;
}

const KernelBackend& ActiveBackend() {
  std::atomic<const KernelBackend*>& slot = ActiveSlot();
  const KernelBackend* b = slot.load(std::memory_order_acquire);
  if (b == nullptr) {
    // First use. Two threads racing here resolve the same CPU to the same
    // table and both store it — benign, and the slot is atomic.
    b = AvailableBackends().front();
    AnnounceSelection(b);
    slot.store(b, std::memory_order_release);
  }
  return *b;
}

void SetActiveBackend(const KernelBackend& backend) {
  AnnounceSelection(&backend);
  ActiveSlot().store(&backend, std::memory_order_release);
}

}  // namespace gva::backend

#include "backend/backend.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/metrics.h"

namespace gva::backend {

namespace {

/// Records the selection in the metrics registry. Idempotent; under
/// -DGVA_OBS=OFF the gauge compiles to a no-op and selection costs nothing.
void AnnounceSelection(const KernelBackend* b) {
  obs::GlobalMetrics().gauge("backend.selected").Set(
      static_cast<int64_t>(b->id));
}

/// Resolves the GVA_BACKEND environment override, defaulting to "auto".
/// An unknown or unavailable value is a hard error: a run that asked for a
/// specific backend and silently got another would report wrong numbers.
const KernelBackend* SelectFromEnvironment() {
  const char* env = std::getenv("GVA_BACKEND");
  const std::string_view name =
      (env == nullptr || env[0] == '\0') ? std::string_view("auto") : env;
  const KernelBackend* b = FindBackend(name);
  if (b == nullptr) {
    std::string have;
    for (const KernelBackend* avail : AvailableBackends()) {
      if (!have.empty()) {
        have += ", ";
      }
      have += avail->name;
    }
    std::fprintf(stderr,
                 "gva: GVA_BACKEND='%.*s' is not a usable backend on this "
                 "host (available: %s, auto)\n",
                 static_cast<int>(name.size()), name.data(), have.c_str());
    std::abort();
  }
  return b;
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

const KernelBackend* FindBackend(std::string_view name) {
  if (name == "auto") {
    return AvailableBackends().front();
  }
  for (const KernelBackend* b : AvailableBackends()) {
    if (name == b->name) {
      return b;
    }
  }
  return nullptr;
}

const KernelBackend& ActiveBackend() {
  std::atomic<const KernelBackend*>& slot = ActiveSlot();
  const KernelBackend* b = slot.load(std::memory_order_acquire);
  if (b == nullptr) {
    // First use. Two threads racing here resolve the same environment to
    // the same table and both store it — benign, and the slot is atomic.
    b = SelectFromEnvironment();
    AnnounceSelection(b);
    slot.store(b, std::memory_order_release);
  }
  return *b;
}

Status SetActiveBackend(std::string_view name) {
  const KernelBackend* b = FindBackend(name);
  if (b == nullptr) {
    std::string have = "auto";
    for (const KernelBackend* avail : AvailableBackends()) {
      have += ", ";
      have += avail->name;
    }
    return Status::InvalidArgument("unknown or unavailable backend '" +
                                   std::string(name) + "' (available: " +
                                   have + ")");
  }
  AnnounceSelection(b);
  ActiveSlot().store(b, std::memory_order_release);
  return Status::Ok();
}

}  // namespace gva::backend

// The AVX2 backend: the same distance kernel (distance_kernel.h) as the
// scalar backend, built with -mavx2 (per-file, see src/CMakeLists.txt) so
// each quarter of a block is one 256-bit operation. The rest of the tree
// stays at the baseline ISA and the binary still runs on pre-AVX2
// hardware: the table is handed out only after a runtime cpuid check.

#if defined(GVA_BACKEND_AVX2)

#include "backend/backend.h"
#include "backend/distance_kernel.h"

namespace gva::backend {

const KernelBackend* Avx2Backend() {
  if (!__builtin_cpu_supports("avx2")) {
    return nullptr;
  }
  static constexpr KernelBackend kTable{
      /*name=*/"avx2",
      /*id=*/BackendId::kAvx2,
      /*znorm_distance_block=*/&ZNormDistanceKernel,
  };
  return &kTable;
}

}  // namespace gva::backend

#endif  // GVA_BACKEND_AVX2

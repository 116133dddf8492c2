// The scalar backend: the distance kernel (distance_kernel.h) built at the
// baseline ISA — SSE2 on x86-64, NEON on aarch64. Always available.

#include "backend/backend.h"
#include "backend/distance_kernel.h"

namespace gva::backend {

const KernelBackend* ScalarBackend() {
  static constexpr KernelBackend kTable{
      /*name=*/"scalar",
      /*id=*/BackendId::kScalar,
      /*znorm_distance_block=*/&ZNormDistanceKernel,
  };
  return &kTable;
}

}  // namespace gva::backend

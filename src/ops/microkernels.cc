#include "ops/microkernels.hh"

#include "ops/microkernels_impl.hh"

namespace recperf {
namespace microkernels {

const IsaKernels &
kernelsFor(KernelIsa isa)
{
    switch (isa) {
      case KernelIsa::Scalar: return scalarKernels();
      case KernelIsa::Avx2: return avx2Kernels();
      case KernelIsa::Avx512: return avx512Kernels();
    }
    return scalarKernels();
}

} // namespace microkernels
} // namespace recperf

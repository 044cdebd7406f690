// The SIMD backend of the library's hot-path kernels. simd::backend_name()
// is fixed per translation unit by the ISA it is compiled for, and the
// library compiles its kernel units with extra flags (STF_SIMD_KERNEL_OPTIONS
// in the root CMakeLists.txt); build.cmake compiles this file with the same
// flags, so the name it reports is the one the kernels run.
#include "core/simd.hpp"

const char* perfbench_kernel_simd_backend() {
  return stf::core::simd::backend_name();
}

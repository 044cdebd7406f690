# Build file of the benchmark package. run.py configures the root project
# with -DCMAKE_PROJECT_INCLUDE=<this file>, so it is read inside the root
# project() call; the deferred call below then defines the benchmark's
# targets after the root CMakeLists.txt has defined every library target
# and compile definition (STF_CONTRACTS, STF_TELEMETRY, STF_SIMD_COMPILE),
# which the benchmark inherits unchanged. Binaries land in
# <build>/perfbench.
set(PERFBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")

function(perfbench_add_targets)
  add_executable(perfbench_driver "${PERFBENCH_DIR}/driver.cpp"
                                  "${PERFBENCH_DIR}/simd_probe.cpp")
  if(STF_SIMD_KERNEL_OPTIONS)
    set_source_files_properties("${PERFBENCH_DIR}/simd_probe.cpp"
      PROPERTIES COMPILE_OPTIONS "${STF_SIMD_KERNEL_OPTIONS}")
  endif()
  target_link_libraries(perfbench_driver
    PRIVATE service store net sigtest core)
  target_compile_definitions(perfbench_driver
    PRIVATE PERFBENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}")

  add_executable(perfbench_selftest "${PERFBENCH_DIR}/selftest.cpp")

  set_target_properties(perfbench_driver perfbench_selftest PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY "${CMAKE_BINARY_DIR}/perfbench")
endfunction()

cmake_language(DEFER DIRECTORY "${CMAKE_SOURCE_DIR}"
  CALL perfbench_add_targets)

# The host-time benchmark's targets. Included at the end of the repository
# root's CMakeLists.txt by add_to_build.cmake, so the benchmark links the src/
# libraries built with the root's settings:
#
#   cmake -S . -B .bench_build/neve \
#         -DCMAKE_PROJECT_neve_INCLUDE=perfbench/add_to_build.cmake && \
#     cmake --build .bench_build/neve --target perfbench
#
# perfbench/run.py does exactly that before every run.
add_executable(perfbench
  ${PERFBENCH_SOURCE_DIR}/src/host_speed.cc
  ${PERFBENCH_SOURCE_DIR}/src/main.cc
  ${PERFBENCH_SOURCE_DIR}/src/probes.cc
  ${PERFBENCH_SOURCE_DIR}/src/results.cc
  ${PERFBENCH_SOURCE_DIR}/src/spans.cc
  ${PERFBENCH_SOURCE_DIR}/src/workloads.cc
)
target_link_libraries(perfbench PRIVATE
  neve_fuzz neve_snap neve_workload neve_sim neve_obs neve_base)

# Build fingerprint, recorded with every result (results.cc): the flags and
# definitions the root applies to every src/ library.
string(TOUPPER "${CMAKE_BUILD_TYPE}" _bt)
get_directory_property(_options COMPILE_OPTIONS)
get_directory_property(_definitions COMPILE_DEFINITIONS)
list(TRANSFORM _definitions PREPEND "-D")
string(JOIN " " _flags ${CMAKE_CXX_FLAGS} ${CMAKE_CXX_FLAGS_${_bt}} ${_options}
       ${_definitions})
target_compile_definitions(perfbench PRIVATE
  PERFBENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}"
  PERFBENCH_CXX_FLAGS="${_flags}"
  PERFBENCH_COMPILER="${CMAKE_CXX_COMPILER_ID} ${CMAKE_CXX_COMPILER_VERSION}")

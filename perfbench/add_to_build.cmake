# Adds the benchmark to the repository's own build, so the simulator it times
# is compiled exactly as the top-level CMakeLists.txt configures it (build
# type, flags, NEVE_LOCK_ORDER, sanitizers). perfbench/run.py configures the
# repository root with
#
#   cmake -S . -B .bench_build/neve \
#         -DCMAKE_PROJECT_neve_INCLUDE=perfbench/add_to_build.cmake
#
# which includes this file right after the root's project() call. The
# benchmark's targets (targets.cmake) are defined at the end of the root
# directory, once the root has set its options and defined every src/
# library. A deferred call expands its arguments when it runs, in the root's
# scope, hence the variable.
set(PERFBENCH_SOURCE_DIR "${CMAKE_CURRENT_LIST_DIR}")
cmake_language(DEFER CALL include "${PERFBENCH_SOURCE_DIR}/targets.cmake")

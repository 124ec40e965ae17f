# Adds gem2bench to the root build without a line in any other
# CMakeLists.txt. run.py configures the repository root with
#
#   cmake -S . -B <dir> -DCMAKE_PROJECT_gem2tree_INCLUDE=<abs path>/attach.cmake
#
# CMake includes this file when the root calls project(gem2tree). The include
# below is deferred to the end of the root's CMakeLists.txt, so the benchmark
# is built with every option and flag of the root build (GEM2_NATIVE_ARCH,
# GEM2_TELEMETRY, GEM2_SANITIZE, the build type).
set(GEM2BENCH_LISTS "${CMAKE_CURRENT_LIST_DIR}/CMakeLists.txt")
cmake_language(DEFER CALL include "${GEM2BENCH_LISTS}")

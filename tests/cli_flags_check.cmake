# Command-line smoke test for the bench and tool binaries, run as a ctest
# (see CMakeLists.txt):
#
#   cmake -DBIN_DIR=<build dir> -DSOURCE_DIR=<repo root> \
#         -P cli_flags_check.cmake
#
# Every bench/ and tools/ binary (except micro_benchmarks, which uses
# google-benchmark's own parser) must
#   * exit 0 on --help, printing usage, without starting any work;
#   * exit non-zero, cleanly (no signal), on an unknown flag;
#   * exit non-zero, cleanly, on a malformed number.
# conformance_fuzz must also reject a malformed --seeds and an unknown
# --families name (either would otherwise sweep nothing and pass), and
# the reproducer line shown in README.md must replay and exit 0.

foreach(var BIN_DIR SOURCE_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=...")
  endif()
endforeach()

# Runs BIN_DIR/<binary> with the remaining arguments (10 s cap) and sets
# `rc` and `out` in the caller's scope.
function(run_cli binary)
  execute_process(
    COMMAND "${BIN_DIR}/${binary}" ${ARGN}
    WORKING_DIRECTORY "${BIN_DIR}"
    TIMEOUT 10
    RESULT_VARIABLE result
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
  set(rc "${result}" PARENT_SCOPE)
  set(out "${stdout}${stderr}" PARENT_SCOPE)
endfunction()

# A clean rejection: a numeric non-zero exit code, not a signal or timeout
# (execute_process reports those as text).
function(expect_rejected binary)
  run_cli(${binary} ${ARGN})
  if(NOT rc MATCHES "^[0-9]+$" OR rc EQUAL 0)
    message(FATAL_ERROR
      "${binary} ${ARGN}: expected a clean non-zero exit, got '${rc}'\n${out}")
  endif()
endfunction()

file(GLOB sources "${SOURCE_DIR}/bench/*.cpp" "${SOURCE_DIR}/tools/*.cpp")
set(nchecked 0)
foreach(src IN LISTS sources)
  get_filename_component(binary "${src}" NAME_WE)
  if(binary STREQUAL "micro_benchmarks")
    continue()
  endif()
  run_cli(${binary} --help)
  if(NOT rc EQUAL 0 OR NOT out MATCHES "^usage: ${binary} ")
    message(FATAL_ERROR "${binary} --help: exit '${rc}'\n${out}")
  endif()
  expect_rejected(${binary} --no-such-flag)
  # Each binary's own numeric flag; golden_gen takes none, so the
  # malformed --queries is an unknown flag there.
  set(malformed --queries=abc)
  if(binary STREQUAL "broadcastd")
    set(malformed --n=-5)
  elseif(binary STREQUAL "live_client")
    set(malformed --windows=1x0)
  elseif(binary STREQUAL "dsi_inspect")
    set(malformed --segments=abc)
  elseif(binary STREQUAL "conformance_fuzz")
    set(malformed --n=-5)
  endif()
  expect_rejected(${binary} ${malformed})
  math(EXPR nchecked "${nchecked} + 1")
endforeach()

expect_rejected(conformance_fuzz --seeds=abc)
expect_rejected(conformance_fuzz --seeds=1 --families=dsx)

# The README's reproducer block, joined across its line continuations.
file(READ "${SOURCE_DIR}/README.md" readme)
string(FIND "${readme}" "REPRODUCE: conformance_fuzz " begin)
if(begin EQUAL -1)
  message(FATAL_ERROR "README.md: no 'REPRODUCE: conformance_fuzz' line")
endif()
math(EXPR begin "${begin} + 28")
string(SUBSTRING "${readme}" ${begin} -1 reproducer)
string(FIND "${reproducer}" "```" end)
string(SUBSTRING "${reproducer}" 0 ${end} reproducer)
string(REPLACE "\\\n" " " reproducer "${reproducer}")
separate_arguments(reproducer UNIX_COMMAND "${reproducer}")
run_cli(conformance_fuzz ${reproducer})
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "README reproducer 'conformance_fuzz ${reproducer}' exited '${rc}'\n${out}")
endif()

message(STATUS "command lines checked: ${nchecked} binaries")

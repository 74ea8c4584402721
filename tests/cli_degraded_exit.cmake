# hebs_cli's degraded-exit contract on the single-frame path (DESIGN.md
# §14): with a worker-task fault armed for the first frame, `transform`
# completes, writes its output and exits 3; without it, it exits 0.
#
#   cmake -DHEBS_CLI=<path/to/hebs_cli> -DWORK_DIR=<dir> \
#         -P tests/cli_degraded_exit.cmake
if(NOT HEBS_CLI OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DHEBS_CLI=<hebs_cli> -DWORK_DIR=<dir> "
                      "-P cli_degraded_exit.cmake")
endif()
file(MAKE_DIRECTORY "${WORK_DIR}")
set(in "${WORK_DIR}/cli_degraded_in.pgm")
set(out "${WORK_DIR}/cli_degraded_out.pgm")

# A 32x32 plain-text PGM covering every level.
set(pgm "P2\n32 32\n255\n")
foreach(i RANGE 1023)
  math(EXPR v "(${i} * 37) % 256")
  string(APPEND pgm "${v}\n")
endforeach()
file(WRITE "${in}" "${pgm}")

set(ENV{HEBS_FAULT} "worker-task:first=1")
execute_process(COMMAND "${HEBS_CLI}" transform "${in}" "${out}"
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 3)
  message(FATAL_ERROR "faulted transform exited ${rc}, expected 3")
endif()

unset(ENV{HEBS_FAULT})
execute_process(COMMAND "${HEBS_CLI}" transform "${in}" "${out}"
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "clean transform exited ${rc}, expected 0")
endif()

# The trace and counter contract, end to end: a traced `hebs_cli video`
# run over the three clip archetypes must write a trace that
# tools/trace/check_trace.py validates against the checked-in schema,
# and a --stats dump that satisfies the counter contract.  A span or
# counter renamed in its registry table without the schema or the
# checker fails here.
#
#   cmake -DHEBS_CLI=<hebs_cli> -DPYTHON=<python3> -DCHECKER=<check_trace.py>
#         -DSCHEMA=<trace_schema.json> -DWORK_DIR=<dir>
#         -P tests/trace_contract.cmake
foreach(var HEBS_CLI PYTHON CHECKER SCHEMA WORK_DIR)
  if(NOT ${var})
    message(FATAL_ERROR "usage: cmake -DHEBS_CLI=<hebs_cli> "
                        "-DPYTHON=<python3> -DCHECKER=<check_trace.py> "
                        "-DSCHEMA=<schema.json> -DWORK_DIR=<dir> "
                        "-P trace_contract.cmake")
  endif()
endforeach()
file(MAKE_DIRECTORY "${WORK_DIR}")
set(trace "${WORK_DIR}/hebs_trace.json")
set(full "${WORK_DIR}/video_stats_full.txt")
set(stats "${WORK_DIR}/video_stats.txt")
file(REMOVE "${trace}" "${full}" "${stats}")

execute_process(COMMAND "${HEBS_CLI}" video --frames 24 --size 64
                        --trace "${trace}" --stats
                RESULT_VARIABLE rc OUTPUT_FILE "${full}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "traced video run exited ${rc} (output in ${full})")
endif()

# Keep only the counter dump ("hebs_* value" lines) for the checker.
file(STRINGS "${full}" lines REGEX "^hebs_")
list(JOIN lines "\n" dump)
file(WRITE "${stats}" "${dump}\n")

execute_process(COMMAND "${PYTHON}" "${CHECKER}" "${trace}"
                        --schema "${SCHEMA}" --stats "${stats}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE check
                ERROR_VARIABLE check)
message(STATUS "${check}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "check_trace.py rejected the traced run")
endif()

# A malformed SPS_REPS makes bench_online exit 2 before any work: no
# stdout and no BENCH_*.json written. Run as
#   cmake -DBENCH=path/to/bench_online -DWORK_DIR=scratch/dir -P this-file
set(cases "SPS_REPS=abc" "SPS_REPS=99999999999" "SPS_REPS=")

set(failures 0)
foreach(case IN LISTS cases)
  file(REMOVE_RECURSE "${WORK_DIR}")
  file(MAKE_DIRECTORY "${WORK_DIR}")
  execute_process(COMMAND "${CMAKE_COMMAND}" -E env "${case}" "${BENCH}"
    WORKING_DIRECTORY "${WORK_DIR}" TIMEOUT 60
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  file(GLOB written "${WORK_DIR}/*")
  if(NOT rc EQUAL 2 OR NOT out STREQUAL "" OR written)
    message(SEND_ERROR "bench_online with ${case}: exit '${rc}', "
                       "stdout '${out}', wrote '${written}'")
    math(EXPR failures "${failures} + 1")
  endif()
endforeach()
file(REMOVE_RECURSE "${WORK_DIR}")
list(LENGTH cases n)
message(STATUS "${failures} of ${n} bad SPS_REPS cases did not exit 2 cleanly")

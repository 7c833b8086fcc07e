# Every malformed or out-of-range sps_cli argument must exit 2 before
# any work: no stdout and no file written, not an abort, a silent 0 or a
# late exit 1. All but the last case fail at parse time; the last passes
# the tasks·max ≥ util·cores precondition but the generator cannot draw
# it. Run as
#   cmake -DSPS_CLI=path/to/sps_cli -DWORK_DIR=scratch/dir -P this-file
set(cases
  "--tasks=0"
  "--cores=abc"
  "--tasks=3 --cores=8"
  "--acceptance --tasks=2 --cores=8"
  "--algo=bogus"
  "--online-policy=bogus --stream-out=stream.txt"
  "--online --exec=bogus"
  "--online --arrivals=bogus"
  "--util=-1"
  "--scale=-2"
  "--sim-ms=-5"
  "--sets=-3"
  "--online-epoch-ms=0"
  "--online-leave=1.5"
  "--online-soft=-1"
  "--spike-prob=7"
  "--storm-burst=3"
  "--ready-queue=pairing"
  "--sim-ms=1e13"
  "--scale=1e23"
  "--sporadic"
  "--trace-stream"
  "--trace-stream=512 --trace-out=t.json"
  "--util=1 --tasks=4 --cores=4")

set(failures 0)
foreach(case IN LISTS cases)
  file(REMOVE_RECURSE "${WORK_DIR}")
  file(MAKE_DIRECTORY "${WORK_DIR}")
  separate_arguments(args UNIX_COMMAND "${case}")
  execute_process(COMMAND "${SPS_CLI}" ${args}
    WORKING_DIRECTORY "${WORK_DIR}" TIMEOUT 60
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  file(GLOB written "${WORK_DIR}/*")
  if(NOT rc EQUAL 2 OR NOT out STREQUAL "" OR written)
    message(SEND_ERROR "sps_cli ${case}: exit '${rc}', stdout '${out}', "
                       "wrote '${written}'")
    math(EXPR failures "${failures} + 1")
  endif()
endforeach()
file(REMOVE_RECURSE "${WORK_DIR}")
list(LENGTH cases n)
message(STATUS "${failures} of ${n} bad-flag cases did not exit 2 cleanly")

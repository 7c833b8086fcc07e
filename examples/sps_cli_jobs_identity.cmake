# sps_cli's stdout must not depend on --jobs: the acceptance sweep
# derives every set's seed from its coordinates, so runs at --jobs 1, 2
# and 4 must print the same bytes after the one line that echoes the
# config ("... jobs=N ..."), which differs by design. Run as
#   cmake -DSPS_CLI=path/to/sps_cli -DWORK_DIR=scratch/dir -P this-file
set(args --algo=spa2 --acceptance --sets=40 --tasks=16 --cores=8)

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(failures 0)
foreach(jobs 1 2 4)
  execute_process(COMMAND "${SPS_CLI}" ${args} --jobs=${jobs}
    WORKING_DIRECTORY "${WORK_DIR}" TIMEOUT 300
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(SEND_ERROR "sps_cli --jobs=${jobs}: exit '${rc}', stderr '${err}'")
    math(EXPR failures "${failures} + 1")
    continue()
  endif()
  # Everything after the line that echoes jobs=.
  string(REGEX MATCHALL "jobs=" echoes "${out}")
  list(LENGTH echoes n)
  string(FIND "${out}" "jobs=${jobs}" at)
  if(NOT n EQUAL 1 OR at EQUAL -1)
    message(SEND_ERROR "sps_cli --jobs=${jobs}: expected one line echoing "
                       "jobs=${jobs}, stdout '${out}'")
    math(EXPR failures "${failures} + 1")
    continue()
  endif()
  string(SUBSTRING "${out}" ${at} -1 rest)
  string(FIND "${rest}" "\n" eol)
  math(EXPR eol "${eol} + 1")
  string(SUBSTRING "${rest}" ${eol} -1 body)
  if(jobs EQUAL 1)
    set(reference "${body}")
  elseif(NOT body STREQUAL reference)
    file(WRITE "${WORK_DIR}/jobs1.out" "${reference}")
    file(WRITE "${WORK_DIR}/jobs${jobs}.out" "${body}")
    message(SEND_ERROR "sps_cli --jobs=${jobs}: stdout differs from "
                       "--jobs=1 (see ${WORK_DIR}/jobs1.out and "
                       "jobs${jobs}.out)")
    math(EXPR failures "${failures} + 1")
  endif()
endforeach()
if(failures EQUAL 0)
  file(REMOVE_RECURSE "${WORK_DIR}")
endif()
message(STATUS "${failures} of 3 --jobs runs differ from --jobs=1")

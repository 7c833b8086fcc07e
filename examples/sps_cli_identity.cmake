# sps_cli's results must not depend on the flags that only choose HOW it
# computes them: --jobs (the acceptance sweep's pool width),
# --ready-queue / --sleep-queue (the per-core queue structures), --shards
# (the threads that run one simulation's core groups), and the wall-clock
# observers --profile and --trace-requests. Each row of the
# table below runs one base command under each of its variants and
# requires exit code 0, the same stdout apart from the one line that
# echoes the varied flag, and byte-identical output files. Run as
#   cmake -DSPS_CLI=path/to/sps_cli -DWORK_DIR=scratch/dir -P this-file

# identity_row(<name> ARGS <flag>... VARIANTS <variant>...
#              [EXCLUDE <regex>] [FILES <file>...])
# A variant is one string of space-separated flags appended to ARGS. Each
# run gets its own directory. EXCLUDE matches the one stdout line per run
# that echoes the variant; FILES are what ARGS writes there, compared
# with the first variant's, as is the rest of stdout.
function(identity_row name)
  cmake_parse_arguments(PARSE_ARGV 1 row "" "EXCLUDE" "ARGS;VARIANTS;FILES")
  set(fails 0)
  set(i 0)
  foreach(variant IN LISTS row_VARIANTS)
    set(dir "${WORK_DIR}/${name}/${i}")
    math(EXPR i "${i} + 1")
    file(MAKE_DIRECTORY "${dir}")
    separate_arguments(flags UNIX_COMMAND "${variant}")
    execute_process(COMMAND "${SPS_CLI}" ${row_ARGS} ${flags}
      WORKING_DIRECTORY "${dir}" TIMEOUT 300
      RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
      message(SEND_ERROR "${name} [${variant}]: exit '${rc}', "
                         "stderr '${err}'")
      math(EXPR fails "${fails} + 1")
      continue()
    endif()
    if(DEFINED row_EXCLUDE)
      set(line "[^\n]*${row_EXCLUDE}[^\n]*\n")
      string(REGEX MATCHALL "${line}" echoes "${out}")
      list(LENGTH echoes n)
      if(NOT n EQUAL 1)
        message(SEND_ERROR "${name} [${variant}]: expected one stdout line "
                           "matching '${row_EXCLUDE}', got ${n}")
        math(EXPR fails "${fails} + 1")
        continue()
      endif()
      string(REGEX REPLACE "${line}" "" out "${out}")
    endif()
    file(WRITE "${dir}/stdout.txt" "${out}")
    if(i EQUAL 1)
      continue()
    endif()
    foreach(f stdout.txt ${row_FILES})
      execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
        "${WORK_DIR}/${name}/0/${f}" "${dir}/${f}" RESULT_VARIABLE differ)
      if(NOT differ EQUAL 0)
        message(SEND_ERROR "${name} [${variant}]: ${f} differs from the "
                           "first variant's (see ${WORK_DIR}/${name})")
        math(EXPR fails "${fails} + 1")
      endif()
    endforeach()
  endforeach()
  message(STATUS "${name}: ${fails} failed checks over ${i} variants")
  math(EXPR total "${failures} + ${fails}")
  set(failures ${total} PARENT_SCOPE)
endfunction()

file(REMOVE_RECURSE "${WORK_DIR}")
set(failures 0)

identity_row(jobs
  ARGS --algo=spa2 --acceptance --sets=40 --tasks=16 --cores=8
  VARIANTS --jobs=1 --jobs=2 --jobs=4
  EXCLUDE "jobs=")

identity_row(queues
  ARGS --util=0.7 --overheads=zero --sim-ms=200
  VARIANTS "--ready-queue=binomial --sleep-queue=binomial"
           "--ready-queue=binomial --sleep-queue=rbtree"
           "--ready-queue=rbtree --sleep-queue=binomial"
           "--ready-queue=rbtree --sleep-queue=rbtree"
  EXCLUDE "queues: ready=")

identity_row(shards
  ARGS --cores=8 --tasks=40 --util=0.7 --sim-ms=200
       --trace-out=trace.json --metrics-out=metrics.json
  VARIANTS --shards=1 --shards=2 --shards=0
  FILES trace.json metrics.json)

# Split-heavy SPA2: 35 core groups, the largest over 30 cores.
identity_row(shards_spa2_split
  ARGS --algo=spa2 --cores=64 --tasks=256 --util=0.97 --overheads=paper
       --seed=4 --sim-ms=500 --trace-out=trace.json --metrics-out=metrics.json
  VARIANTS --shards=1 --shards=2 --shards=0
  FILES trace.json metrics.json)

identity_row(shards_edf_wm
  ARGS --algo=edf-wm --cores=8 --tasks=40 --util=0.9 --arrivals=jittered
       --sim-ms=500 --trace-out=trace.json --metrics-out=metrics.json
  VARIANTS --shards=1 --shards=2 --shards=0
  FILES trace.json metrics.json)

# The online service's wall-clock observers (DESIGN.md §15, §16): with
# the span profiler on, and with request tracing on, stdout and the stats
# dump match the plain run. Their own artifacts (profile.json,
# reqtrace.json) hold wall-clock data and are not compared.
identity_row(observers
  ARGS --online --online-requests=60 --online-soft=0.3 --cores=4
       --analysis-cache=off --stats-out=stats.json
  VARIANTS ""
           "--profile --profile-out=profile.json --heartbeat=2"
           "--trace-requests=8 --reqtrace-out=reqtrace.json"
  FILES stats.json)

if(failures EQUAL 0)
  file(REMOVE_RECURSE "${WORK_DIR}")
endif()

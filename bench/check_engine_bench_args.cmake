# Runs micro_engine_throughput with bad arguments, each case in an empty
# working directory, and fails unless every run exits 2 and writes nothing.
#
#   cmake -DBENCH=<path to micro_engine_throughput> -DWORK_DIR=<scratch dir> \
#         -P check_engine_bench_args.cmake
#
# Each case also carries small valid settings, so a build that ignores the
# bad argument runs a short benchmark (and writes its JSON) instead of the
# full-length default one.
set(small --horizon 1 --max-scale 16 --sweep-points 1 --hot-reps 1)
set(cases "--help" "--bogus:3" "--nodes")

set(index 0)
foreach(bad IN LISTS cases)
  string(REPLACE ":" ";" bad "${bad}")
  set(dir "${WORK_DIR}/case${index}")
  file(REMOVE_RECURSE "${dir}")
  file(MAKE_DIRECTORY "${dir}")
  execute_process(COMMAND "${BENCH}" ${small} ${bad}
                  WORKING_DIRECTORY "${dir}"
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  file(GLOB written "${dir}/*")
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "'${bad}': exit status ${rc}, expected 2\n${err}")
  endif()
  if(NOT err MATCHES "usage: ")
    message(FATAL_ERROR "'${bad}': no usage line on stderr\n${err}")
  endif()
  if(written)
    message(FATAL_ERROR "'${bad}': wrote ${written}")
  endif()
  math(EXPR index "${index} + 1")
endforeach()

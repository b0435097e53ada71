# Every committed bench record at the repository root must match its
# baseline: for each BENCH_<name>.json (the BENCH_*_smoke.json run outputs
# of `ctest -L bench_smoke` excluded), `rdp_cli perf compare
# --baseline=bench/baselines/<name>.json --current=BENCH_<name>.json
# --warn-only --enforce-exact` must exit 0. Timing drift is reported but
# tolerated; params drift, a vanished metric or an exact-class change
# fails, and so does a record with no baseline.
#
# Usage: cmake -DCLI=<rdp_cli> -DROOT=<source dir> -P check_committed_records.cmake
if(NOT DEFINED CLI OR NOT DEFINED ROOT)
  message(FATAL_ERROR "check_committed_records.cmake: need -DCLI= and -DROOT=")
endif()
file(GLOB records RELATIVE "${ROOT}" "${ROOT}/BENCH_*.json")
list(FILTER records EXCLUDE REGEX "_smoke\\.json$")
if(NOT records)
  message(FATAL_ERROR "no committed BENCH_*.json records in ${ROOT}")
endif()
set(failed "")
foreach(record IN LISTS records)
  string(REGEX REPLACE "^BENCH_(.*)\\.json$" "\\1" name "${record}")
  set(baseline "${ROOT}/bench/baselines/${name}.json")
  if(NOT EXISTS "${baseline}")
    list(APPEND failed "${record}: no baseline bench/baselines/${name}.json")
    continue()
  endif()
  execute_process(
    COMMAND "${CLI}" perf compare "--baseline=${baseline}"
            "--current=${ROOT}/${record}" --warn-only --enforce-exact
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message("${out}${err}")
    list(APPEND failed "${record}: perf compare exited ${rc}")
  endif()
endforeach()
if(failed)
  string(REPLACE ";" "\n  " failed "${failed}")
  message(FATAL_ERROR "committed records that do not match their baselines:\n  ${failed}")
endif()
list(LENGTH records count)
message(STATUS "${count} committed records match their baselines")

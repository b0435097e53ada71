# Fails unless a Chrome trace file holds a span of each given name.
#
# Usage: cmake -DTRACE=<trace.json> -DSPANS=<name,name,...> -P check_trace_spans.cmake
if(NOT DEFINED TRACE OR NOT DEFINED SPANS)
  message(FATAL_ERROR "check_trace_spans.cmake: need -DTRACE= and -DSPANS=")
endif()
file(READ "${TRACE}" body)
string(REPLACE "," ";" names "${SPANS}")
foreach(name IN LISTS names)
  string(FIND "${body}" "\"name\":\"${name}\"" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${TRACE} has no span named '${name}'")
  endif()
endforeach()

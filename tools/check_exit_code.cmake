# Runs a command and fails unless it exits with the expected status.
# CTest's PASS_REGULAR_EXPRESSION ignores exit codes and WILL_FAIL only
# distinguishes zero from nonzero, so the pinned-exit-code tests (usage
# errors must be 2, runtime failures 1 -- see rdp_cli.cpp) go through
# this script instead.
#
# Usage: cmake -DCLI=<path> -DEXPECTED=<code> -DARGS="<flag;flag;...>"
#        [-DABSENT=<path>] [-DOUTPUT_REGEX=<regex>] -P check_exit_code.cmake
# ABSENT names a path the command must not create (it is removed first):
# a usage error has to stop before any output is written. OUTPUT_REGEX
# must match the command's stdout.
if(NOT DEFINED CLI OR NOT DEFINED EXPECTED)
  message(FATAL_ERROR "check_exit_code.cmake: need -DCLI= and -DEXPECTED=")
endif()
if(DEFINED ABSENT)
  file(REMOVE_RECURSE "${ABSENT}")
endif()
separate_arguments(arg_list UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND "${CLI}" ${arg_list}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL "${EXPECTED}")
  message(FATAL_ERROR
          "expected exit ${EXPECTED}, got '${rc}' from: ${CLI} ${ARGS}\n"
          "stdout: ${out}\nstderr: ${err}")
endif()
if(DEFINED OUTPUT_REGEX AND NOT out MATCHES "${OUTPUT_REGEX}")
  message(FATAL_ERROR "stdout of ${CLI} ${ARGS} does not match '${OUTPUT_REGEX}':\n${out}")
endif()
if(DEFINED ABSENT AND EXISTS "${ABSENT}")
  message(FATAL_ERROR "${CLI} ${ARGS} created ${ABSENT} before failing")
endif()

# Runs one vlsipc command and checks its exit code and stdout.
#
#   cmake -DGOLDEN=<file> [-DEXPECT_RC=N] -P cli_golden.cmake -- <cmd...>
#       stdout must equal <file> byte for byte (default exit code 0).
#   cmake -DMATCH=<regex> [-DEXPECT_RC=N] [-DALSO=<file>]
#         -P cli_golden.cmake -- <cmd...>
#       stdout followed by stderr (and then <file>, which the command
#       writes; it is removed first) must match <regex>.
#
# A process killed by a signal never passes: its result is a message,
# not the expected exit code.
if(NOT DEFINED EXPECT_RC)
  set(EXPECT_RC 0)
endif()

# The command line is everything after the "--" that follows the script.
set(cmd)
set(in_cmd FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(in_cmd)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(in_cmd TRUE)
  endif()
endforeach()

if(DEFINED ALSO)
  file(REMOVE "${ALSO}")
endif()
execute_process(COMMAND ${cmd} OUTPUT_VARIABLE out ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(DEFINED ALSO)
  file(READ "${ALSO}" also)
  string(APPEND err "${also}")
endif()
if(NOT rc STREQUAL "${EXPECT_RC}")
  message(FATAL_ERROR "exit ${rc}, expected ${EXPECT_RC}: ${cmd}\n${out}${err}")
endif()

if(DEFINED GOLDEN)
  file(READ "${GOLDEN}" expected)
  if(NOT out STREQUAL expected)
    message(FATAL_ERROR "stdout differs from ${GOLDEN}; actual:\n${out}")
  endif()
endif()
if(DEFINED MATCH AND NOT "${out}${err}" MATCHES "${MATCH}")
  message(FATAL_ERROR "output does not match '${MATCH}':\n${out}${err}")
endif()

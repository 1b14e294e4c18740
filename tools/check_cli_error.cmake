# ctest script: input the flag parser accepts but the program rejects deeper
# down must end in a one-line error and exit 2, never in an abort.
#
#   cmake -DCTL=<path-to-meshroutectl> "-DCTL_ARGS=map|--n|0"
#         "-DEXPECT=<substring of the error line>" -P check_cli_error.cmake
#
# CTL_ARGS separates arguments with '|' (a ';' would split the -D value).
if(NOT DEFINED CTL OR NOT DEFINED CTL_ARGS OR NOT DEFINED EXPECT)
  message(FATAL_ERROR "pass -DCTL=<path> -DCTL_ARGS=<a|b|...> -DEXPECT=<text>")
endif()

string(REPLACE "|" ";" args "${CTL_ARGS}")
execute_process(COMMAND ${CTL} ${args}
                OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "meshroutectl ${args} must exit 2, got '${rc}'\n${out}${err}")
endif()
string(FIND "${err}" "error: ${EXPECT}" idx)
if(idx EQUAL -1)
  message(FATAL_ERROR "stderr lacks 'error: ${EXPECT}':\n${err}")
endif()

# Runs `lcmm_compile ARGS --check-report REPORT` and fails unless it exits 0
# and the written report contains the JSON string "EXPECT".
#
#   cmake -DCOMPILE=<lcmm_compile> -DARGS=<arg;arg;...> -DREPORT=<path>
#         -DEXPECT=<string> -P expect_report.cmake
file(REMOVE ${REPORT})
execute_process(COMMAND ${COMPILE} ${ARGS} --check-report ${REPORT}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "lcmm_compile exited with ${rc}")
endif()
file(READ ${REPORT} content)
string(FIND "${content}" "\"${EXPECT}\"" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "${REPORT} does not contain \"${EXPECT}\"")
endif()
message(STATUS "${REPORT} contains \"${EXPECT}\"")

# Runs COMMAND (a ;-separated list) and passes only when it exits with
# status EXIT and its combined stdout/stderr matches the regex MESSAGE:
#
#   cmake -DCOMMAND=<prog;args...> -DEXIT=2 -DMESSAGE=<regex> -P expect_exit.cmake
execute_process(COMMAND ${COMMAND} RESULT_VARIABLE status
                OUTPUT_VARIABLE output ERROR_VARIABLE output)
if(NOT status STREQUAL "${EXIT}")
  message(FATAL_ERROR "exit status ${status}, expected ${EXIT}:\n${output}")
endif()
if(NOT output MATCHES "${MESSAGE}")
  message(FATAL_ERROR "output does not match '${MESSAGE}':\n${output}")
endif()

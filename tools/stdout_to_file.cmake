# Runs EXE with the space-separated ARGS and writes its standard output
# to OUT; fails when the command exits non-zero. ctest cannot redirect a
# test's output, and the golden tests compare files:
#   cmake -DEXE=<program> "-DARGS=<args>" -DOUT=<file> -P stdout_to_file.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${EXE} ${args} OUTPUT_FILE ${OUT}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXE} ${ARGS} exited with ${rc}")
endif()

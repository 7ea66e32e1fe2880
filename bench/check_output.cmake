# Runs one paper bench and fails with a diff when its stdout differs from
# the committed reference.  Registered as a ctest per bench by
# bench/CMakeLists.txt:
#   cmake -DPROG=<binary> -DEXPECTED=<reference> -DACTUAL=<output file>
#         -P check_output.cmake
execute_process(COMMAND ${PROG} OUTPUT_FILE ${ACTUAL} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${PROG} exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${EXPECTED} ${ACTUAL}
                RESULT_VARIABLE differ)
if(differ)
  execute_process(COMMAND diff -u ${EXPECTED} ${ACTUAL})
  message(FATAL_ERROR "stdout of ${PROG} differs from ${EXPECTED}; if the "
          "change is intended, regenerate the reference (EXPERIMENTS.md)")
endif()

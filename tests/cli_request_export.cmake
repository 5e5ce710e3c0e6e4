# Checks that `coursenav request --format=json` exports the graph of the
# request that ran: a deadline request whose options avoid COSI12B must
# print exactly what `coursenav explore --avoid=COSI12B` prints for the same
# window, and no status may list the avoided course among its options.
#
# Run through ctest (cli_request_export_matches_explore), or by hand:
#   cmake -DCOURSENAV=build/tools/coursenav -DWORK_DIR=/tmp/cli_export \
#         -P tests/cli_request_export.cmake

if(NOT COURSENAV OR NOT WORK_DIR)
  message(FATAL_ERROR "need -DCOURSENAV=<binary> and -DWORK_DIR=<dir>")
endif()
file(MAKE_DIRECTORY "${WORK_DIR}")

file(WRITE "${WORK_DIR}/avoid_request.json" [=[
{
  "start": {"term": "Fall 2013", "completed": []},
  "end_term": "Fall 2014",
  "type": "deadline",
  "options": {"avoid": ["COSI12B"]}
}
]=])

function(run_cli out)
  execute_process(COMMAND "${COURSENAV}" ${ARGN}
                  OUTPUT_FILE "${WORK_DIR}/${out}"
                  ERROR_VARIABLE stderr
                  RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "coursenav ${ARGN} exited with ${status}: ${stderr}")
  endif()
endfunction()

run_cli(request.json request --demo
        --request-json=${WORK_DIR}/avoid_request.json --format=json)
run_cli(explore.json explore --demo --start F13 --end F14 --avoid=COSI12B
        --format=json)
# The same window without the avoid set, to show the course would be an
# option there: otherwise the checks below would hold vacuously.
run_cli(unavoided.json explore --demo --start F13 --end F14 --format=json)

file(READ "${WORK_DIR}/request.json" request_export)
file(READ "${WORK_DIR}/unavoided.json" unavoided_export)
string(FIND "${unavoided_export}" "\"COSI12B\"" unavoided_hit)
if(unavoided_hit EQUAL -1)
  message(FATAL_ERROR "COSI12B is no option in F13 -> F14; pick a window "
                      "where it is")
endif()
string(FIND "${request_export}" "\"COSI12B\"" request_hit)
if(NOT request_hit EQUAL -1)
  message(FATAL_ERROR "the request export lists the avoided COSI12B")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${WORK_DIR}/request.json" "${WORK_DIR}/explore.json"
                RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR "request and explore --avoid exports differ")
endif()

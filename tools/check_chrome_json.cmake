# Fails unless FILE is one well-formed JSON document with a traceEvents
# array, the Chrome trace-event shape `dcc_why chrome` writes:
#   cmake -DFILE=trace.json -P check_chrome_json.cmake
file(READ "${FILE}" text)
string(JSON events ERROR_VARIABLE error LENGTH "${text}" traceEvents)
if(error)
  message(FATAL_ERROR "${FILE}: ${error}")
endif()
message(STATUS "${FILE}: ${events} trace events")

# Test driver for the metrics-schema ctest: runs the CLI with
# --metrics-out and validates the emitted JSON with
# check_metrics_schema.py. Invoked as
#   cmake -DPSC_CLI=... -DPYTHON=... -DCHECKER=... -DINPUT=...
#         -DOUTPUT=... -DTRIP_OUTPUT=... [-DREQUIRED_COUNTERS=a;b;c]
#         [-DREQUIRE_SPANS=ON] -P run_metrics_check.cmake
#
# Two reports are checked: a plain `check` (OUTPUT), whose counters must
# include REQUIRED_COUNTERS, and a `--trace` check cut short by
# `--node-budget 1` (TRIP_OUTPUT), whose query must record the
# node-budget trip and, with REQUIRE_SPANS, whose report must hold spans.

function(run_cli output)
  execute_process(
    COMMAND "${PSC_CLI}" check "${INPUT}" "--metrics-out=${output}" --quiet
      ${ARGN}
    RESULT_VARIABLE cli_result)
  if(NOT cli_result EQUAL 0)
    message(FATAL_ERROR "psc check ${ARGN} failed with status ${cli_result}")
  endif()
endfunction()

function(validate)
  execute_process(
    COMMAND "${PYTHON}" "${CHECKER}" ${ARGN}
    RESULT_VARIABLE checker_result)
  if(NOT checker_result EQUAL 0)
    message(FATAL_ERROR
        "check_metrics_schema.py rejected ${ARGN} (status ${checker_result})")
  endif()
endfunction()

run_cli("${OUTPUT}")
set(checker_args "${OUTPUT}")
foreach(counter IN LISTS REQUIRED_COUNTERS)
  list(PREPEND checker_args --require-counter "${counter}")
endforeach()
validate(${checker_args})

run_cli("${TRIP_OUTPUT}" --trace --node-budget 1)
validate(--require-trip node-budget "${TRIP_OUTPUT}")
if(REQUIRE_SPANS)
  file(READ "${TRIP_OUTPUT}" trip_report)
  string(FIND "${trip_report}" "\"spans\":[{" first_span)
  if(first_span EQUAL -1)
    message(FATAL_ERROR "${TRIP_OUTPUT} holds no spans despite --trace")
  endif()
endif()

# ctest smoke: run `hmdctl telemetry` on a small corpus and validate that
# the emitted document is real JSON with the expected top-level structure.
#
# Invoked as:
#   cmake -DHMDCTL=<path-to-hmdctl> -P telemetry_smoke.cmake
if(NOT DEFINED HMDCTL)
  message(FATAL_ERROR "telemetry_smoke: pass -DHMDCTL=<path to hmdctl>")
endif()

execute_process(
  COMMAND ${HMDCTL} telemetry --benign 40 --malware 40 --windows 3 --seed 7
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "hmdctl telemetry exited ${status}:\n${err}")
endif()
string(STRIP "${out}" out)
if(out STREQUAL "")
  message(FATAL_ERROR "hmdctl telemetry produced no output")
endif()

if(CMAKE_VERSION VERSION_GREATER_EQUAL 3.19)
  # string(JSON) both parses the document and checks the expected keys.
  foreach(key IN ITEMS config stream trace metrics)
    string(JSON section ERROR_VARIABLE json_err GET "${out}" ${key})
    if(NOT json_err STREQUAL "NOTFOUND")
      message(FATAL_ERROR
        "telemetry JSON missing or unparsable key '${key}': ${json_err}")
    endif()
  endforeach()
  # All eight pipeline phases must appear as spans in the trace.
  string(JSON spans GET "${out}" trace spans)
  foreach(phase IN ITEMS
      pipeline.acquire pipeline.engineer pipeline.baseline pipeline.attack
      pipeline.predict pipeline.defend pipeline.control pipeline.protect)
    string(FIND "${spans}" "${phase}" found)
    if(found EQUAL -1)
      message(FATAL_ERROR "telemetry trace missing phase span '${phase}'")
    endif()
  endforeach()
  # Per-stage and per-batch exact latency tails.
  string(JSON metrics GET "${out}" metrics)
  foreach(needle IN ITEMS
      drlhmd.runtime.stage_tail_us drlhmd.runtime.batch_tail_us
      "\"p50\"" "\"p99\"" "\"p999\""
      drlhmd.runtime.verdicts drlhmd.pipeline.phase_seconds
      drlhmd.serve.queue_depth drlhmd.serve.dropped_total
      drlhmd.serve.enqueued drlhmd.serve.e2e_us)
    string(FIND "${metrics}" "${needle}" found)
    if(found EQUAL -1)
      message(FATAL_ERROR "telemetry metrics missing '${needle}'")
    endif()
  endforeach()
  # Tails are the one latency recorder: no legacy histogram section.
  string(JSON legacy ERROR_VARIABLE legacy_err GET "${metrics}" histograms)
  if(legacy_err STREQUAL "NOTFOUND")
    message(FATAL_ERROR "telemetry metrics still carry a 'histograms' key")
  endif()
else()
  # Pre-3.19 CMake cannot parse JSON; settle for a shape check.
  string(FIND "${out}" "\"metrics\"" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "telemetry output lacks a metrics section")
  endif()
endif()

message(STATUS "telemetry smoke ok (${status})")

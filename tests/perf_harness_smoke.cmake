# Runs perf_harness on its smallest section through the real fork/wait4
# path and checks that it exits 0 and reports the section's exact simulated
# message count. Nothing here reads wall time.
#   cmake -DHARNESS=<perf_harness> -DOUT=<json> -P perf_harness_smoke.cmake
execute_process(COMMAND "${HARNESS}" fig05_stencil_4096 --out "${OUT}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "perf_harness exited with ${rc}")
endif()
file(READ "${OUT}" json)
# 64x64 ranks, 2 iterations: 2 * (4 * 64 * 64 - 4 * 64) halo messages.
if(NOT json MATCHES "\"name\": \"fig05_stencil_4096\", \"sim_msgs\": 32256,")
  message(FATAL_ERROR "unexpected section record in ${OUT}:\n${json}")
endif()

# Runs `msgroof_cli trace` (a traced three-iteration two-sided stencil halo
# exchange) and checks that it exits 0 and reports the exact number of
# message slices it wrote.
#   cmake -DCLI=<msgroof_cli> -DOUT=<json> -P msgroof_cli_trace_smoke.cmake
execute_process(COMMAND "${CLI}" trace perlmutter-cpu 16 "${OUT}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "msgroof_cli trace exited with ${rc}:\n${out}")
endif()
# 4x4 ranks, 3 iterations: 3 * 2 * (2 * 4 * 3) halo messages.
if(NOT out MATCHES "^wrote 144 message slices to ")
  message(FATAL_ERROR "unexpected msgroof_cli trace output:\n${out}")
endif()
if(NOT EXISTS "${OUT}")
  message(FATAL_ERROR "msgroof_cli trace wrote no ${OUT}")
endif()

# Trains on a small ratings file with --trace-out and fails unless the trace
# holds a host span for every set-up and save phase of `alsmf_cli train`.
#
#   cmake -DCLI=<alsmf_cli> -DRATINGS=<ratings.txt> -DOUT=<dir> -P check_train_trace.cmake
execute_process(
  COMMAND ${CLI} train --ratings ${RATINGS} --model ${OUT}/cli_trace_model.bin
          --k 4 --iters 2 --trace-out ${OUT}/cli_trace.json
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "alsmf_cli train exited with ${rc}")
endif()
file(READ ${OUT}/cli_trace.json trace)
foreach(span ingest canonicalize csr_build variant_select solver_init save_model)
  string(REGEX MATCH "\"name\": *\"${span}\"" found "${trace}")
  if(NOT found)
    message(FATAL_ERROR "trace has no '${span}' span")
  endif()
endforeach()

# No vector-ISA kernel backend object may define an externally visible
# hebs::kernels::ref:: symbol (src/kernels/kernels_ref.h): an inline
# reference row emitted out of line there is a weak copy built for the
# wider ISA, and the linker may pick it for the baseline callers too.
#
#   cmake -DNM=<nm> -DOBJECTS=<obj>|<obj>|... -P tests/kernel_ref_symbols.cmake
#
# OBJECTS is the library's object list joined with '|'; the script
# checks the backend_avx2 / backend_sse42 / backend_neon objects in it.
if(NOT NM OR NOT OBJECTS)
  message(FATAL_ERROR "usage: cmake -DNM=<nm> -DOBJECTS=<obj|obj|...> "
                      "-P kernel_ref_symbols.cmake")
endif()
string(REPLACE "|" ";" objects "${OBJECTS}")
set(checked 0)
set(offenders "")
foreach(obj IN LISTS objects)
  if(NOT obj MATCHES "backend_(avx2|sse42|neon)\\.cpp\\.o(bj)?$")
    continue()
  endif()
  math(EXPR checked "${checked} + 1")
  execute_process(COMMAND "${NM}" -C --defined-only --extern-only "${obj}"
                  OUTPUT_VARIABLE syms RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${NM} failed on ${obj}")
  endif()
  string(REGEX MATCHALL "[^\n]*hebs::kernels::ref::[^\n]*" hits "${syms}")
  foreach(hit IN LISTS hits)
    string(APPEND offenders "  ${obj}: ${hit}\n")
  endforeach()
endforeach()
if(checked EQUAL 0)
  message(FATAL_ERROR "no vector-ISA backend object in OBJECTS")
endif()
if(offenders)
  message(FATAL_ERROR "vector-ISA objects define ref:: symbols:\n${offenders}")
endif()
message(STATUS "${checked} vector-ISA backend objects define no ref:: symbol")

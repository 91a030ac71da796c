/* CPU time of the calling thread, in seconds, from
   CLOCK_THREAD_CPUTIME_ID: unlike wall time it leaves out the time the
   thread waits for a CPU, and unlike times(2) it has nanosecond
   resolution. */

#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

double bench_thread_cpu_s(value unit)
{
  struct timespec ts;
  (void)unit;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0.0;
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

value bench_thread_cpu_s_byte(value unit)
{
  return caml_copy_double(bench_thread_cpu_s(unit));
}

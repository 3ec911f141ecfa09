/* CPU affinity: the benchmark runs each workload on one CPU. */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>

/* Pins the calling thread (and what it later forks or spawns) to [cpu];
   false when that CPU is not available to this process. */
value perfbench_pin_cpu(value cpu)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(Int_val(cpu), &set);
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
}

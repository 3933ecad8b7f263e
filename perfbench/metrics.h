// The benchmark's metric catalogue. BENCHMARK.json lists the same names and units; run.py
// refuses a result whose keys differ from it.
//
// Every workload reports every end-to-end metric (an untraced run) or every per-layer metric
// (a traced run). End-to-end metrics have one meaning per workload, given in README.md.
//
// One rule decides what may read 0: an end-to-end metric carries a bound, a share of its
// median across runs, so it must never read 0. A per-layer metric carries no bound, so it
// may: a per-layer metric of a layer the workload does not exercise reads 0, and so does
// failed_fraction on a run where nothing failed. README.md says which workload measures
// which per-layer metric.
#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"ops_per_s", "1/s"},
    {"op_ns_p50", "ns"},
    {"op_ns_p90", "ns"},
    {"miss_ratio", "ratio"},
    {"peak_rss_mb", "MiB"},
};

inline constexpr MetricDef kPerLayer[] = {
    // mach: the kernel's fault path, timed around Kernel::Touch.
    {"mach.touch_hit_ns_p50", "ns"},
    {"mach.fault_clean_ns_p50", "ns"},
    {"mach.fault_dirty_ns_p50", "ns"},
    {"mach.fault_dirty_ns_p99", "ns"},
    {"mach.fault_fill_ns_p50", "ns"},
    {"mach.allocs_per_fault", "count/fault"},
    {"mach.disk_fills_per_fault", "count/fault"},
    {"mach.zero_fills_per_fault", "count/fault"},
    {"mach.pageouts_per_kaccess", "count/kaccess"},
    {"mach.virtual_ms_per_kaccess", "ms"},
    // hipec.engine: registration and the engine's fault hook.
    {"hipec.engine.register_us", "us"},
    {"hipec.engine.dirty_evictions_per_fault", "count/fault"},
    {"hipec.engine.reused_frames_per_fault", "count/fault"},
    // hipec.executor: the policy interpreter/JIT.
    {"hipec.executor.commands_per_fault", "count/fault"},
    {"hipec.executor.events_per_fault", "count/fault"},
    {"hipec.executor.jit_fallbacks", "count"},
    // hipec.frame_manager: the global frame manager.
    {"hipec.frame_manager.flushes_async_per_fault", "count/fault"},
    {"hipec.frame_manager.flushes_sync_per_fault", "count/fault"},
    {"hipec.frame_manager.request_reject_ratio", "ratio"},
    {"hipec.frame_manager.normal_reclaim_frames", "frames"},
    {"hipec.frame_manager.forced_reclaim_frames", "frames"},
    // disk: the disk model.
    {"disk.reads_per_fault", "count/fault"},
    {"disk.writes_queued_per_fault", "count/fault"},
    // server: hipecd's client library, rings and drain loop.
    {"server.submit_ns_p50", "ns"},
    {"server.service_ns_p50", "ns"},
    {"server.service_ns_p99", "ns"},
    {"server.queue_us_p50", "us"},
    {"server.queue_us_p99", "us"},
    {"server.flush_us_p50", "us"},
    {"server.backpressure_stalls", "count"},
    {"server.faulted_fraction", "ratio"},
    // scenario: the M:N tenant scheduler, one population per learned_replay run.
    {"scenario.tenants_per_s", "1/s"},
    {"scenario.slices_per_tenant", "count/tenant"},
    {"scenario.steals", "count"},
    {"scenario.denied", "count"},
    {"scenario.audits_run", "count"},
    // workloads: reference-stream sources.
    {"workloads.next_ns", "ns"},
    {"workloads.trace_load_ms", "ms"},
    // loadgen: the open-loop generator's own lateness (a validity check, not a result).
    {"loadgen.lag_us_p99", "us"},
    // Process start to the end of the first, cold set-up (setup_s is the warm median).
    {"setup.cold_s", "s"},
    // failed ÷ attempted operations (also in the result's "failed" and "attempted").
    {"failed_fraction", "ratio"},
    // The traced half of the run against the untraced half, on op_ns_p50.
    {"tracing.overhead_pct", "%"},
};

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_

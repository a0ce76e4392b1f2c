package main

import "fmt"

// metricDef names one printed metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run. Every workload prints
// every one of them; see README.md for what each means per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"results_per_s", "1/s"},
	{"sim_events_per_s", "1/s"},
	{"job_p50_s", "s"},
	{"job_p90_s", "s"},
}

// perLayer are the metrics of a traced run. A layer a workload does not
// exercise reads 0.
var perLayer = []metricDef{
	// Flat CPU share per package of the traced iterations' profile.
	{"prof.event", "frac"},
	{"prof.sim", "frac"},
	{"prof.cache", "frac"},
	{"prof.core", "frac"},
	{"prof.prefetch", "frac"},
	{"prof.memctrl", "frac"},
	{"prof.dram", "frac"},
	{"prof.noc", "frac"},
	{"prof.workload", "frac"},
	{"prof.snapshot", "frac"},
	{"prof.service", "frac"},
	{"prof.cluster", "frac"},
	{"prof.runtime_map", "frac"},
	{"prof.gc", "frac"},
	// Layer replay: mean time per call of each layer's public functions.
	{"workload.next_ns", "ns"},
	{"cache.l1.lookup_ns", "ns"},
	{"cache.llc.lookup_ns", "ns"},
	{"cache.llc.fill_ns", "ns"},
	{"cache.mshr.op_ns", "ns"},
	{"core.touch_ns", "ns"},
	{"prefetch.sms.access_ns", "ns"},
	{"prefetch.stride.access_ns", "ns"},
	{"sim.profile.access_ns", "ns"},
	{"memctrl.request_ns", "ns"},
	{"event.dispatch_ns", "ns"},
	// Simulator phases (sim.New, then sim.Hooks.Phase), mean per run.
	{"sim.new_s", "s"},
	{"sim.warmup_s", "s"},
	{"sim.measure_s", "s"},
	{"sim.encode_s", "s"},
	// Simulated counts over one iteration's results.
	{"sim.events", "count"},
	{"sim.cycles", "cycles"},
	{"sim.ipc", "instr/cycle"},
	{"cache.llc.miss_ratio", "frac"},
	{"cache.llc.prefetch_used_ratio", "frac"},
	{"sim.mshr_stalls", "count"},
	{"sim.window_stalls", "count"},
	{"dram.row_hit_ratio", "frac"},
	{"dram.activations", "count"},
	{"memctrl.read_queue_delay_cyc", "cycles"},
	{"core.bht_hit_ratio", "frac"},
	{"core.bulk_reads", "count"},
	{"core.bulk_writes", "count"},
	{"noc.msgs", "count"},
	// Checkpointing: System.Snapshot/Restore at the sweep's cut, and the
	// workers' warm stores.
	{"snapshot.encode_s", "s"},
	{"snapshot.restore_s", "s"},
	{"snapshot.bytes", "bytes"},
	{"warm.resolve_s", "s"},
	{"warm.restore_s", "s"},
	{"warm.trunk_extend_s", "s"},
	{"warm.fork_hit_ratio", "frac"},
	{"warm.branch_cycles_share", "frac"},
	// Service path, per job.
	{"client.submit_s", "s"},
	{"client.wait_s", "s"},
	{"client.polls_per_job", "count"},
	{"service.queue_s", "s"},
	{"service.execute_s", "s"},
	{"service.cache_hit_ratio", "frac"},
	{"wire.call_share", "frac"},
	// Cluster path, per sweep point.
	{"cluster.route_s", "s"},
	{"cluster.await_s", "s"},
	{"cluster.await_overshoot_s", "s"},
	{"cluster.max_worker_share", "frac"},
	{"blob.replicated_bytes", "bytes"},
	// Fidelity against the paper's nine headline values.
	{"fidelity.epa_vs_close_pp", "pp"},
	{"fidelity.epa_vs_open_pp", "pp"},
	{"fidelity.bump_speedup_pp", "pp"},
	{"fidelity.open_speedup_pp", "pp"},
	{"fidelity.rowhit_open_pp", "pp"},
	{"fidelity.rowhit_sms_pp", "pp"},
	{"fidelity.rowhit_vwq_pp", "pp"},
	{"fidelity.rowhit_smsvwq_pp", "pp"},
	{"fidelity.rowhit_bump_pp", "pp"},
	{"fidelity_err_pp", "pp"},
	// The traced run itself.
	{"trace.overhead_frac", "frac"},
	{"error_rate", "frac"},
}

// render turns measured values into the printed metrics: every defined
// metric appears (0 when not measured), and a value without a
// definition is an error.
func render(defs []metricDef, vals map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{vals[d.name], d.unit}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %q has no definition", name)
		}
	}
	return out, nil
}

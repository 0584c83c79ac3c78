//! Output checks: properties every simulated job must have, derived
//! from the model's definition and its `GpuConfig`, never from a stored
//! copy of earlier output.

use nuba_core::{GpuSimulator, SimReport};
use nuba_types::{ArchKind, GpuConfig};

/// Memory-op polls per SM per cycle in `GpuSimulator::issue_sms`. Each
/// poll retires at most one memory op; compute blocks retire on top of
/// these, at most one per active warp per cycle (one warp-scan slot
/// each), so the per-SM retire bound is `active warps + MEM_POLLS`.
const MEM_POLLS_PER_CYCLE: u64 = 4;

/// Failed checks, each a one-line description.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn extend(&mut self, failures: Vec<String>) {
        self.failures.extend(failures);
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// Bytes the two crossbars can deliver over `cycles`: every ejection
/// port moves at most `noc_port_bytes_per_cycle` per cycle.
fn crossbar_capacity(cfg: &GpuConfig, cycles: u64) -> f64 {
    let reply_ports = if cfg.arch.is_nuba() {
        cfg.num_llc_slices
    } else {
        cfg.num_sms
    };
    let ports = (cfg.num_llc_slices + reply_ports) as f64;
    ports * cfg.noc_port_bytes_per_cycle() * cycles as f64
}

/// Properties of one finished job, checked against capacities computed
/// from `cfg` alone. Returns one line per violated property.
pub fn report_properties(label: &str, cfg: &GpuConfig, r: &SimReport) -> Vec<String> {
    let mut out = Vec::new();
    let mut expect = |ok: bool, what: String| {
        if !ok {
            out.push(format!("{label}: {what}"));
        }
    };
    let cycles = r.cycles;
    expect(cycles > 0, "no cycles simulated".into());

    // The crossbars' share of `noc_bytes`, recovered from the
    // serialization cycles the report derives from it.
    let xbar_bytes = r.noc_serialization_cycles * cfg.noc_total_bytes_per_cycle;
    let xbar_cap = crossbar_capacity(cfg, cycles);
    expect(
        xbar_bytes <= xbar_cap * (1.0 + 1e-9) && xbar_bytes <= r.noc_bytes as f64 * (1.0 + 1e-9),
        format!(
            "crossbar bytes {xbar_bytes:.0} exceed port capacity {xbar_cap:.0} or NoC bytes {}",
            r.noc_bytes
        ),
    );

    let local_cap = if cfg.arch.is_nuba() {
        2 * cfg.num_sms as u64 * cfg.local_link_bytes_per_cycle * cycles
    } else {
        0
    };
    expect(
        r.local_link_bytes <= local_cap,
        format!(
            "local-link bytes {} exceed capacity {local_cap}",
            r.local_link_bytes
        ),
    );

    // One line per burst per channel on the divided DRAM clock; the +1
    // terms cover a transfer already in flight at either window edge.
    let burst = (128 / cfg.dram_burst_bytes.max(1)).max(1);
    let mem_cycles = cycles / cfg.dram_clock_divider.max(1) + 1;
    let dram_cap = cfg.num_channels as u64 * (mem_cycles / burst + 1);
    expect(
        r.dram_accesses <= dram_cap,
        format!(
            "DRAM line transfers {} exceed capacity {dram_cap}",
            r.dram_accesses
        ),
    );

    let warps = cfg.sim_active_warps.min(cfg.warps_per_sm).max(1) as u64;
    let ops_cap = cfg.num_sms as u64 * (warps + MEM_POLLS_PER_CYCLE) * cycles;
    expect(
        r.warp_ops <= ops_cap,
        format!("warp ops {} exceed issue capacity {ops_cap}", r.warp_ops),
    );

    // Little's law: the time replies spent in flight, summed, cannot
    // exceed the outstanding-request capacity times the window.
    let in_flight = r.avg_read_latency * r.read_replies as f64;
    let cap = (cfg.num_sms * cfg.sm_max_outstanding) as f64 * cycles as f64;
    expect(
        in_flight <= cap * (1.0 + 1e-9),
        format!("latency x replies {in_flight:.0} exceeds outstanding capacity x cycles {cap:.0}"),
    );

    // The shares split the stall pool, so each lies in [0, 1] and they
    // sum to 1.
    let b = r.bottleneck_breakdown();
    let sum = b.sum();
    let outside = b
        .shares()
        .into_iter()
        .find(|(_, v)| !(0.0..=1.0).contains(v));
    expect(
        (sum - 1.0).abs() <= 1e-9 && outside.is_none(),
        format!("bottleneck shares sum to {sum}, share outside [0, 1]: {outside:?}"),
    );
    out
}

/// Request conservation and the named-invariant registry after a
/// job the benchmark drove itself.
pub fn simulator_properties(label: &str, gpu: &GpuSimulator) -> Vec<String> {
    let mut out = balance_violation(label, gpu.request_balance())
        .into_iter()
        .collect::<Vec<_>>();
    gpu.check_conservation();
    let violations = nuba_types::invariant::total_violations();
    if violations != 0 {
        out.push(format!(
            "{label}: {violations} invariant violation(s) recorded"
        ));
    }
    out
}

fn balance_violation(
    label: &str,
    (issued, replied, outstanding): (u64, u64, u64),
) -> Option<String> {
    (issued != replied + outstanding).then(|| {
        format!("{label}: issued {issued} != replied {replied} + outstanding {outstanding}")
    })
}

/// One Fig 10 point: architecture, NoC TB/s and the job's report.
pub struct NocPoint<'a> {
    pub arch: ArchKind,
    pub tbs: f64,
    pub report: &'a SimReport,
}

/// Fig 10 properties for one (architecture, benchmark) series sorted by
/// bandwidth: NoC watts rise strictly with bandwidth, and the widest NoC
/// performs at least as well as the narrowest.
pub fn noc_series_properties(label: &str, series: &[NocPoint]) -> Vec<String> {
    let mut out = Vec::new();
    for w in series.windows(2) {
        if w[1].report.noc_watts <= w[0].report.noc_watts {
            out.push(format!(
                "{label} {:?}: NoC watts {} at {} TB/s not above {} at {} TB/s",
                w[1].arch, w[1].report.noc_watts, w[1].tbs, w[0].report.noc_watts, w[0].tbs
            ));
        }
    }
    if let (Some(lo), Some(hi)) = (series.first(), series.last()) {
        if hi.report.perf() < lo.report.perf() {
            out.push(format!(
                "{label} {:?}: perf {} at {} TB/s below {} at {} TB/s",
                hi.arch,
                hi.report.perf(),
                hi.tbs,
                lo.report.perf(),
                lo.tbs
            ));
        }
    }
    out
}

/// Paper §7.1: without replication, NUBA still beats memory-side UBA on
/// a low-sharing benchmark.
pub fn low_sharing_property(label: &str, no_rep: &SimReport, uba_mem: &SimReport) -> Vec<String> {
    if no_rep.perf() > uba_mem.perf() {
        Vec::new()
    } else {
        vec![format!(
            "{label}: NUBA-No-Rep perf {} does not beat UBA-mem perf {}",
            no_rep.perf(),
            uba_mem.perf()
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> GpuConfig {
        GpuConfig::paper_baseline(ArchKind::Nuba)
    }

    /// A report that satisfies every property on the 64-SM baseline.
    fn sound() -> SimReport {
        let mut r = SimReport::empty();
        r.cycles = 10_000;
        r.warp_ops = 300_000;
        r.read_replies = 50_000;
        r.avg_read_latency = 800.0;
        r.noc_bytes = 2_000_000;
        r.noc_serialization_cycles = 1_500.0;
        r.local_link_bytes = 5_000_000;
        r.dram_accesses = 10_000;
        r.stall_downstream = 1_000;
        r.llc_accesses = 40_000;
        r
    }

    /// The report fails exactly one property, the one named by `what`.
    fn rejects_only(r: &SimReport, cfg: &GpuConfig, what: &str) {
        let failures = report_properties("t", cfg, r);
        assert!(
            failures.len() == 1 && failures[0].contains(what),
            "expected only a {what:?} failure, got {failures:?}"
        );
    }

    #[test]
    fn sound_report_passes() {
        assert_eq!(
            report_properties("t", &cfg(), &sound()),
            Vec::<String>::new()
        );
    }

    #[test]
    fn rejects_noc_bytes_beyond_port_capacity() {
        let mut r = sound();
        r.noc_serialization_cycles = 30_000.0;
        r.noc_bytes = 40_000_000;
        rejects_only(&r, &cfg(), "crossbar bytes");
    }

    #[test]
    fn rejects_local_link_bytes_beyond_capacity_and_on_uba() {
        let mut r = sound();
        r.local_link_bytes = 2 * 64 * 32 * 10_000 + 1;
        rejects_only(&r, &cfg(), "local-link bytes");
        rejects_only(
            &sound(),
            &GpuConfig::paper_baseline(ArchKind::MemSideUba),
            "local-link bytes",
        );
    }

    #[test]
    fn rejects_dram_transfers_beyond_channel_rate() {
        let mut r = sound();
        r.dram_accesses = 32 * 10_000;
        rejects_only(&r, &cfg(), "DRAM line transfers");
    }

    #[test]
    fn rejects_warp_ops_beyond_issue_capacity() {
        let mut r = sound();
        r.warp_ops = 64 * 36 * 10_000 + 1;
        rejects_only(&r, &cfg(), "warp ops");
    }

    #[test]
    fn rejects_latency_beyond_littles_law() {
        let mut r = sound();
        r.avg_read_latency = 64.0 * 192.0 * 10_000.0 / 50_000.0 * 1.01;
        rejects_only(&r, &cfg(), "outstanding capacity");
    }

    /// The shares sum to 1 by construction; negative serialization
    /// cycles pass the crossbar check and give a negative NoC share.
    #[test]
    fn rejects_a_bottleneck_share_outside_zero_to_one() {
        let mut r = sound();
        r.noc_serialization_cycles = -1_500.0;
        rejects_only(&r, &cfg(), "bottleneck shares");
    }

    #[test]
    fn rejects_an_empty_report() {
        rejects_only(&SimReport::empty(), &cfg(), "no cycles simulated");
    }

    #[test]
    fn rejects_unbalanced_requests() {
        assert!(balance_violation("t", (10, 7, 2)).is_some());
        assert!(balance_violation("t", (10, 7, 3)).is_none());
    }

    #[test]
    fn noc_series_rejects_flat_watts_and_falling_perf() {
        let mut a = sound();
        a.noc_watts = 10.0;
        let mut b = sound();
        b.noc_watts = 10.0;
        let pts = |x: &SimReport, y: &SimReport| -> Vec<String> {
            noc_series_properties(
                "t",
                &[
                    NocPoint {
                        arch: ArchKind::Nuba,
                        tbs: 0.7,
                        report: x,
                    },
                    NocPoint {
                        arch: ArchKind::Nuba,
                        tbs: 5.6,
                        report: y,
                    },
                ],
            )
        };
        let only = |failures: Vec<String>, what: &str| {
            assert!(
                failures.len() == 1 && failures[0].contains(what),
                "expected only a {what:?} failure, got {failures:?}"
            );
        };
        only(pts(&a, &b), "NoC watts");
        b.noc_watts = 20.0;
        assert!(pts(&a, &b).is_empty());
        b.warp_ops -= 1;
        only(pts(&a, &b), "perf");
    }

    #[test]
    fn low_sharing_rejects_no_rep_that_does_not_win() {
        let uba = sound();
        let mut nr = sound();
        let failures = low_sharing_property("t", &nr, &uba);
        assert!(failures.len() == 1 && failures[0].contains("does not beat"));
        nr.warp_ops += 1;
        assert!(low_sharing_property("t", &nr, &uba).is_empty());
    }
}

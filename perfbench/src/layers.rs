//! Component replays for the traced run: each workload's own inputs —
//! its warp streams, their line and page streams, and the NoC, DRAM and
//! local-link rates its jobs produced — pushed through each crate's
//! public API and timed per operation. They stand in for per-phase
//! spans inside `GpuSimulator::step`, which has no public boundary
//! between its phases.

use std::hint::black_box;
use std::time::Instant;

use nuba_cache::{CacheGeometry, TagArray};
use nuba_core::SimReport;
use nuba_dram::{DramRequest, HbmTiming, MemoryController};
use nuba_driver::PageTable;
use nuba_engine::BandwidthLink;
use nuba_noc::CrossbarNoc;
use nuba_tlb::{TlbParams, TranslationEngine};
use nuba_types::addr::PageNum;
use nuba_types::{AccessKind, ChannelId, GpuConfig, LineAddr, SmId, WarpId, Wire};
use nuba_workloads::{WarpOp, Workload};

use crate::suite::{prepare, SessionJob};
use crate::trace::Tracer;

/// Stream operations generated per traced run, split over the sources.
const STREAM_OPS: usize = 1 << 17;
/// Crossbar, DRAM-controller and link ticks per traced run.
const XBAR_TICKS: u64 = 20_000;
const MC_TICKS: u64 = 200_000;
const LINK_TICKS: u64 = 400_000;

/// A reply packet: 128 B of data and 8 B of control, the size that
/// dominates NoC and local-link bytes.
#[derive(Clone, Copy)]
struct Pkt;

impl Wire for Pkt {
    fn wire_bytes(&self) -> u64 {
        136
    }
}

/// Nanoseconds per operation for each replayed component.
#[derive(Debug, Default)]
pub struct Replays {
    pub stream_ns_per_op: f64,
    pub l1_probe_ns: f64,
    pub llc_probe_ns: f64,
    pub tlb_lookup_ns: f64,
    pub driver_map_ns: f64,
    pub xbar_tick_ns: f64,
    pub mc_tick_ns: f64,
    pub link_tick_ns: f64,
}

/// Accumulated host time and operation count of one replay.
#[derive(Default)]
struct Acc {
    ns: f64,
    ops: u64,
}

impl Acc {
    fn time(
        &mut self,
        tr: &mut Tracer,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce() -> u64,
    ) {
        let s = tr.begin(name, layer);
        let t = Instant::now();
        self.ops += f();
        self.ns += t.elapsed().as_secs_f64() * 1e9;
        tr.end(s);
    }

    fn per_op(&self) -> f64 {
        self.ns / self.ops.max(1) as f64
    }
}

/// One warp-level memory access of the replayed stream.
#[derive(Clone, Copy)]
struct Touch {
    sm: usize,
    line: LineAddr,
    page: PageNum,
    write: bool,
}

/// Replay every source (a job and the report it produced).
pub fn replay(sources: &[(SessionJob, SimReport)], tr: &mut Tracer) -> Replays {
    let mut acc: [Acc; 8] = Default::default();
    let per_source = STREAM_OPS / sources.len().max(1);
    let n = sources.len().max(1) as u64;
    for (job, report) in sources {
        let cfg = prepare(&job.cfg, job.scale, job.seed);
        let wl = Workload::build(job.bench, job.scale, cfg.num_sms, job.seed);
        let touches = stream(&cfg, &wl, per_source, &mut acc[0], tr);
        let [_, l1, llc, ..] = &mut acc;
        caches(&cfg, &touches, l1, llc, tr);
        tlb(&cfg, &touches, &mut acc[3], tr);
        driver(&cfg, &touches, &mut acc[4], tr);
        let cycles = report.cycles.max(1) as f64;
        // Bytes per cycle on one of the two crossbars.
        let xbar_rate =
            report.noc_serialization_cycles * cfg.noc_total_bytes_per_cycle / cycles / 2.0;
        xbar(&cfg, xbar_rate, XBAR_TICKS / n, &mut acc[5], tr);
        let mem_cycles = cycles / cfg.dram_clock_divider.max(1) as f64;
        let dram_rate = report.dram_accesses as f64 / cfg.num_channels as f64 / mem_cycles.max(1.0);
        dram(&cfg, &touches, dram_rate, MC_TICKS / n, &mut acc[6], tr);
        let link_rate = report.local_link_bytes as f64 / cycles / (2 * cfg.num_sms) as f64;
        link(&cfg, link_rate, LINK_TICKS / n, &mut acc[7], tr);
    }
    Replays {
        stream_ns_per_op: acc[0].per_op(),
        l1_probe_ns: acc[1].per_op(),
        llc_probe_ns: acc[2].per_op(),
        tlb_lookup_ns: acc[3].per_op(),
        driver_map_ns: acc[4].per_op(),
        xbar_tick_ns: acc[5].per_op(),
        mc_tick_ns: acc[6].per_op(),
        link_tick_ns: acc[7].per_op(),
    }
}

/// `Workload::stream(sm, warp).next_op()` round-robin over the
/// workload's SM x warp streams; returns the memory accesses.
fn stream(
    cfg: &GpuConfig,
    wl: &Workload,
    ops: usize,
    acc: &mut Acc,
    tr: &mut Tracer,
) -> Vec<Touch> {
    let warps = cfg.sim_active_warps.min(cfg.warps_per_sm).max(1);
    let mut streams: Vec<(usize, _)> = (0..cfg.num_sms)
        .flat_map(|sm| (0..warps).map(move |w| (sm, w)))
        .map(|(sm, w)| (sm, wl.stream(SmId(sm), WarpId(w))))
        .collect();
    let mut out: Vec<(usize, WarpOp)> = Vec::with_capacity(ops);
    acc.time(tr, "stream_next_op", "workloads", || {
        let k = streams.len();
        for i in 0..ops {
            let (sm, s) = &mut streams[i % k];
            out.push((*sm, s.next_op()));
        }
        ops as u64
    });
    out.into_iter()
        .filter_map(|(sm, op)| match op {
            WarpOp::Mem(a) => Some(Touch {
                sm,
                line: LineAddr::containing(a.vaddr.0),
                page: a.vaddr.page(cfg.page_bytes),
                write: a.kind == AccessKind::Store,
            }),
            WarpOp::Compute(_) => None,
        })
        .collect()
}

fn probe_all(tags: &mut [TagArray], touches: &[Touch], slot: impl Fn(&Touch) -> usize) -> u64 {
    for (t, touch) in touches.iter().enumerate() {
        let tag = &mut tags[slot(touch)];
        if !tag.probe_and_touch(touch.line, t as u64) {
            black_box(tag.insert(touch.line, false, false, t as u64));
        }
    }
    touches.len() as u64
}

/// The line stream through one `TagArray` per SM at L1 geometry and one
/// per LLC slice at slice geometry.
fn caches(cfg: &GpuConfig, touches: &[Touch], l1: &mut Acc, llc: &mut Acc, tr: &mut Tracer) {
    let l1_geo = CacheGeometry::from_capacity(cfg.l1_bytes, cfg.l1_ways);
    let mut tags: Vec<TagArray> = (0..cfg.num_sms).map(|_| TagArray::new(l1_geo)).collect();
    l1.time(tr, "l1_probe", "cache", || {
        probe_all(&mut tags, touches, |t| t.sm)
    });
    let slice_geo = CacheGeometry::new(cfg.llc_slice_sets(), cfg.llc_ways);
    let slices = cfg.num_llc_slices;
    let mut tags: Vec<TagArray> = (0..slices).map(|_| TagArray::new(slice_geo)).collect();
    llc.time(tr, "llc_probe", "cache", || {
        probe_all(&mut tags, touches, |t| {
            (t.line.index() % slices as u64) as usize
        })
    });
}

/// The page stream through a `TranslationEngine` with the machine's TLB
/// parameters, one request and one tick per access, then drained.
fn tlb(cfg: &GpuConfig, touches: &[Touch], acc: &mut Acc, tr: &mut Tracer) {
    let mut engine = TranslationEngine::new(
        TlbParams {
            l1_entries: cfg.l1_tlb_entries,
            l1_ways: 8,
            l2_entries: cfg.l2_tlb_entries,
            l2_ways: cfg.l2_tlb_ways,
            l2_latency: cfg.l2_tlb_latency,
            l2_ports: 2,
            walkers: cfg.page_walkers,
            walk_latency: cfg.walk_latency,
            fault_latency: cfg.page_fault_latency,
        },
        cfg.num_sms,
    );
    let mut seen = std::collections::HashSet::new();
    let mapped: Vec<bool> = touches.iter().map(|t| !seen.insert(t.page)).collect();
    let mut done = Vec::new();
    acc.time(tr, "tlb_lookup", "tlb", || {
        let mut now = 0;
        for (t, &m) in touches.iter().zip(&mapped) {
            black_box(engine.request(SmId(t.sm), t.page, now, m));
            engine.tick(now, &mut done);
            done.clear();
            now += 1;
        }
        let limit = now + 10 * (cfg.page_fault_latency + cfg.walk_latency) * touches.len() as u64;
        while engine.outstanding() > 0 && now < limit {
            engine.tick(now, &mut done);
            done.clear();
            now += 1;
        }
        touches.len() as u64
    });
}

/// First touches through `PageTable`: translate, and map on a miss to
/// the toucher's partition's channel.
fn driver(cfg: &GpuConfig, touches: &[Touch], acc: &mut Acc, tr: &mut Tracer) {
    let mut table = PageTable::new(cfg.num_channels);
    acc.time(tr, "page_map", "driver", || {
        for t in touches {
            let part = cfg.partition_of_sm(SmId(t.sm));
            if table.translate(t.page, part).is_none() {
                black_box(table.map(t.page, ChannelId(part.0 % cfg.num_channels), SmId(t.sm)));
            }
        }
        touches.len() as u64
    });
}

/// `CrossbarNoc::tick` with reply packets injected at `rate` bytes per
/// cycle, spread over the ports.
fn xbar(cfg: &GpuConfig, rate: f64, ticks: u64, acc: &mut Acc, tr: &mut Tracer) {
    let ports = cfg.num_llc_slices;
    let mut noc: CrossbarNoc<Pkt> = CrossbarNoc::new(
        ports,
        ports,
        cfg.noc_port_bytes_per_cycle(),
        cfg.noc_stage_latency,
        8,
    );
    let mut out = Vec::new();
    acc.time(tr, "xbar_tick", "noc", || {
        let mut credit = 0.0;
        let mut next = 0usize;
        for now in 0..ticks {
            credit += rate;
            while credit >= 136.0 {
                let port = next % ports;
                if !noc.can_send(port) {
                    break;
                }
                let _ = noc.try_send(port, (next * 7 + 3) % ports, Pkt, now);
                credit -= 136.0;
                next += 1;
            }
            noc.tick(now);
            for p in 0..ports {
                noc.drain_port(p, &mut out);
            }
            out.clear();
        }
        ticks
    });
}

/// `MemoryController::tick` on one channel fed the line stream at
/// `rate` requests per memory cycle.
fn dram(cfg: &GpuConfig, touches: &[Touch], rate: f64, ticks: u64, acc: &mut Acc, tr: &mut Tracer) {
    let timing = if cfg.dram_refresh {
        HbmTiming::with_refresh()
    } else {
        HbmTiming::paper()
    };
    let burst = (128 / cfg.dram_burst_bytes.max(1)).max(1);
    let mut mc = MemoryController::new(timing, cfg.banks_per_channel, cfg.mc_queue_entries, burst);
    let lines_per_row = (cfg.dram_row_bytes / 128).max(1);
    let banks = cfg.banks_per_channel as u64;
    let mut done = Vec::new();
    acc.time(tr, "mc_tick", "dram", || {
        let mut credit = 0.0;
        let mut id = 0u64;
        for now in 0..ticks {
            credit += rate;
            while credit >= 1.0 && mc.can_accept() && !touches.is_empty() {
                let t = touches[id as usize % touches.len()];
                let row = t.line.index() / lines_per_row;
                let req = DramRequest {
                    id,
                    bank: (row % banks) as usize,
                    row: row / banks,
                    is_write: t.write,
                };
                let _ = mc.try_enqueue(req, now);
                credit -= 1.0;
                id += 1;
            }
            mc.tick(now, &mut done);
            done.clear();
        }
        ticks
    });
}

/// `BandwidthLink::tick` on one local link carrying reply packets at
/// `rate` bytes per cycle.
fn link(cfg: &GpuConfig, rate: f64, ticks: u64, acc: &mut Acc, tr: &mut Tracer) {
    let bw = cfg.local_link_bytes_per_cycle.max(1) as f64;
    let mut l: BandwidthLink<Pkt> = BandwidthLink::new(bw, 2, 8);
    let mut out = Vec::new();
    acc.time(tr, "link_tick", "engine", || {
        let mut credit = 0.0;
        for now in 0..ticks {
            credit += rate;
            while credit >= 136.0 && l.can_send() {
                let _ = l.try_send(Pkt, now);
                credit -= 136.0;
            }
            l.tick(now, &mut out);
            out.clear();
        }
        ticks
    });
}

//! Isolation probes: each layer's public entry points timed on their own,
//! independent of any workload. Every figure is the median of [`REPS`]
//! timed repetitions (small calls are batched inside a repetition).
//!
//! The per-layer shape follows "Fast Collection Operations from Indexed
//! Stream Fusion": each fused chain against the hand loop it should compile
//! to, as ns/element and a ratio.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use triolet::prelude::*;
use triolet::Run;
use triolet_cluster::{Cluster, Comm};
use triolet_domain::SeqPart;
use triolet_iter::{ArrayIdx, IdxFlat, StepFlat};
use triolet_obs::{TraceHandle, Track};
use triolet_pool::{greedy_schedule, parallel_for_part, ThreadPool};
use triolet_serial::{packed, unpack_all, PodView};

use crate::harness::Harness;
use crate::stats::median;
use crate::sys;
use crate::workloads::{paper_cluster, Scale};

/// Timed repetitions behind every probe figure.
pub const REPS: usize = 21;

/// Bytes of the buffer the `serial.*` bandwidth probes move.
pub fn serial_buffer_bytes(scale: Scale) -> usize {
    match scale {
        Scale::Full => 64 << 20,
        Scale::Quick => 1 << 20,
    }
}

/// Median seconds of `REPS` runs of `f`, which times its own interval (so
/// per-repetition preparation stays outside it).
fn med(mut f: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = (0..REPS).map(|_| f()).collect();
    median(&samples)
}

fn secs(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

type Probe = (&'static str, f64);

fn iter_flat(scale: Scale) -> Vec<Probe> {
    let n: usize = if scale == Scale::Full { 1 << 22 } else { 1 << 14 };
    let xs: Arc<Vec<f64>> = Arc::new((0..n).map(|i| (i % 977) as f64 * 0.001).collect());
    let ys: Arc<Vec<f64>> = Arc::new((0..n).map(|i| (i % 613) as f64 * 0.002).collect());
    let fused = med(|| {
        let a = IdxFlat::new(ArrayIdx::from_arc(xs.clone()));
        let b = IdxFlat::new(ArrayIdx::from_arc(ys.clone()));
        secs(|| {
            let s: f64 = zip(black_box(a), b)
                .map(|(x, y): (f64, f64)| x * y)
                .filter(|v: &f64| *v > 0.25)
                .sum_scalar();
            black_box(s);
        })
    });
    let hand = med(|| {
        let (xs, ys) = (black_box(&xs[..]), &ys[..]);
        secs(|| {
            let mut s = 0.0f64;
            for i in 0..xs.len().min(ys.len()) {
                let v = xs[i] * ys[i];
                if v > 0.25 {
                    s += v;
                }
            }
            black_box(s);
        })
    });
    vec![("iter.flat_ns_per_elem", fused * 1e9 / n as f64), ("iter.flat_vs_loop", fused / hand)]
}

fn iter_nest(scale: Scale) -> Vec<Probe> {
    // Integer elements: the hand loop is free to vectorise, so the ratio
    // shows whether the fused nest still can.
    let (outer, inner): (usize, usize) = if scale == Scale::Full { (2048, 1024) } else { (64, 64) };
    let weights: Arc<Vec<u64>> =
        Arc::new((0..inner as u64).map(|j| j * 2654435761 % 1009).collect());
    let fused = med(|| {
        let w = weights.clone();
        secs(|| {
            let s = range(black_box(outer))
                .concat_map(move |i: usize| {
                    let w = w.clone();
                    StepFlat::new((0..i % inner + 1).map(move |j| w[j] * (i as u64 + 1)))
                })
                .filter(|v: &u64| v % 4 != 0)
                .fold_items(0u64, &mut |a, v| a.wrapping_add(v));
            black_box(s);
        })
    });
    let hand = med(|| {
        let w = black_box(&weights[..]);
        secs(|| {
            let mut s = 0u64;
            for i in 0..black_box(outer) {
                for wj in &w[..i % inner + 1] {
                    let v = wj * (i as u64 + 1);
                    if v % 4 != 0 {
                        s = s.wrapping_add(v);
                    }
                }
            }
            black_box(s);
        })
    });
    let elems: usize = (0..outer).map(|i| i % inner + 1).sum();
    vec![("iter.nest_ns_per_elem", fused * 1e9 / elems as f64), ("iter.nest_vs_loop", fused / hand)]
}

fn domain_split() -> Vec<Probe> {
    const BATCH: usize = 64;
    let t = med(|| {
        secs(|| {
            for _ in 0..BATCH {
                black_box(Seq::new(black_box(1 << 20)).split_parts(128));
                black_box(Dim2::new(black_box(4096), 4096).split_parts(128));
                black_box(Dim3::new(black_box(256), 256, 256).split_parts(128));
            }
        })
    });
    vec![("domain.split128_us", t * 1e6 / BATCH as f64)]
}

fn serial(scale: Scale) -> Vec<Probe> {
    let bytes = serial_buffer_bytes(scale);
    let v: Vec<f64> = (0..bytes / 8).map(|i| i as f64).collect();
    let pack = med(|| secs(|| drop(black_box(packed(black_box(&v))))));
    let buf = packed(&v);
    let copy = med(|| {
        let b = buf.clone();
        secs(|| drop(black_box(unpack_all::<Vec<f64>>(b).expect("roundtrip"))))
    });
    let view = med(|| {
        let b = buf.clone();
        secs(|| drop(black_box(unpack_all::<PodView<f64>>(b).expect("roundtrip"))))
    });
    const BATCH: usize = 4096;
    let small = med(|| {
        secs(|| {
            for i in 0..BATCH as u64 {
                let msg = packed(&black_box((i, 0.5f64, 7u32)));
                black_box(unpack_all::<(u64, f64, u32)>(msg).expect("roundtrip"));
            }
        })
    });
    vec![
        ("serial.pack_gbps", bytes as f64 / pack / 1e9),
        ("serial.unpack_copy_gbps", bytes as f64 / copy / 1e9),
        ("serial.unpack_view_ns", view * 1e9),
        ("serial.small_msg_ns", small * 1e9 / BATCH as f64),
    ]
}

fn pool() -> Vec<Probe> {
    // The only probes that start threads, and never more than the host has.
    let pool = ThreadPool::new(sys::nproc());
    const CHUNKS: usize = 1 << 16;
    let chunk = med(|| {
        secs(|| {
            parallel_for_part(&pool, SeqPart::new(0, CHUNKS), 1, &|p: &SeqPart| {
                black_box(p.count());
            })
        })
    });
    drop(pool);
    const TASKS: usize = 4096;
    let durations: Vec<f64> = (0..TASKS).map(|i| 1e-6 * ((i * 37) % 101 + 1) as f64).collect();
    let vtime = med(|| secs(|| drop(black_box(greedy_schedule(black_box(&durations), 16)))));
    vec![
        ("pool.chunk_overhead_ns", chunk * 1e9 / CHUNKS as f64),
        ("pool.vtime_ns_per_task", vtime * 1e9 / TASKS as f64),
    ]
}

fn cluster(scale: Scale) -> Vec<Probe> {
    const BATCH: usize = 32;
    let small = Cluster::new(paper_cluster());
    let dispatch = med(|| {
        secs(|| {
            for _ in 0..BATCH {
                let out = small.run(vec![0u64; 8], |_, x: u64| x);
                black_box(out.results);
            }
        })
    });

    let ranks = if scale == Scale::Full { 1024 } else { 64 };
    let env: Vec<f64> = (0..512).map(|i| i as f64 * 0.5 - 1.0).collect();
    let xs: Vec<f64> = (0..ranks * 16).map(|i| (i % 8191) as f64 * 0.25).collect();
    let wide = Triolet::new(ClusterConfig::virtual_cluster(ranks, 2));
    let mut events = 0u64;
    let big = med(|| {
        let input = from_vec(xs.clone()).par();
        let before = wide.cluster().stats().sim_events();
        let t = secs(|| {
            let run = wide.fold_reduce(
                input,
                &env,
                || 0.0f64,
                |env: &Vec<f64>, acc: f64, x: f64| acc + x * env[(x as usize) % env.len()],
                |a, b| a + b,
            );
            black_box(run.value);
        });
        events = wide.cluster().stats().sim_events() - before;
        t
    });

    const TRIPS: usize = 128;
    let mut ends = Comm::create(2);
    let payload = vec![7u8; 1024];
    let roundtrip = med(|| {
        secs(|| {
            for _ in 0..TRIPS {
                ends[0].send(1, 0, &payload).expect("send");
                let got: Vec<u8> = ends[1].recv(0, 0).expect("recv");
                ends[1].send(0, 1, &got).expect("reply");
                black_box(ends[0].recv::<Vec<u8>>(1, 1).expect("recv reply"));
            }
        })
    });
    vec![
        ("cluster.dispatch_us_per_task", dispatch * 1e6 / (BATCH * 8) as f64),
        ("cluster.dispatch1024_ms", big * 1e3),
        ("cluster.sim_events_per_s", events as f64 / big),
        ("cluster.comm_roundtrip_us", roundtrip * 1e6 / TRIPS as f64),
    ]
}

fn core(scale: Scale) -> Vec<Probe> {
    const BATCH: usize = 32;
    let rt = Triolet::new(paper_cluster());
    let tiny: Vec<f64> = (0..128).map(f64::from).collect();
    let empty = med(|| {
        let inputs: Vec<_> = (0..BATCH).map(|_| from_vec(tiny.clone()).par()).collect();
        secs(|| {
            for input in inputs {
                black_box(rt.sum(input).value);
            }
        })
    });

    let bytes: usize = if scale == Scale::Full { 8 << 20 } else { 1 << 18 };
    let data: Vec<f64> = (0..bytes / 8).map(|i| i as f64).collect();
    let scatter = med(|| {
        let v = data.clone();
        let mut kept = None;
        let t = secs(|| kept = Some(rt.scatter(v)));
        drop(kept);
        t
    });

    const JOBS: usize = 256;
    let step = med(|| {
        let svc = Triolet::new(ClusterConfig::virtual_cluster(8, 2))
            .into_service(ServiceConfig::new(SchedPolicy::Fifo).with_queue_cap(JOBS));
        for _ in 0..JOBS {
            svc.submit(Tenant(0), 1.0, |_: &Triolet| Run::new(0u64, RunStats::local(0.0)))
                .expect("queue holds the batch");
        }
        secs(|| {
            for _ in 0..JOBS {
                black_box(svc.step());
            }
        })
    });
    vec![
        ("core.engine.empty_skeleton_us", empty * 1e6 / BATCH as f64),
        ("core.dist.scatter_gbps", bytes as f64 / scatter / 1e9),
        ("core.service.step_us", step * 1e6 / JOBS as f64),
    ]
}

fn obs() -> Vec<Probe> {
    const SPANS: usize = 1 << 14;
    let record = |h: &TraceHandle| {
        secs(|| {
            for i in 0..SPANS {
                black_box(h).span(
                    "probe",
                    "compute",
                    Track::Root,
                    i as f64,
                    i as f64 + 1.0,
                    vec![],
                );
            }
        })
    };
    let recording = med(|| {
        let h = TraceHandle::recording();
        let t = record(&h);
        drop(h.take());
        t
    });
    let off = TraceHandle::disabled();
    let disabled = med(|| record(&off));
    vec![
        ("obs.span_record_ns", recording * 1e9 / SPANS as f64),
        ("obs.disabled_span_ns", disabled * 1e9 / SPANS as f64),
    ]
}

/// Run every probe, each under its own `bench:layer:<first metric>` span.
pub fn run_all(scale: Scale, harness: &Harness) -> Vec<Probe> {
    let groups: [(&str, &dyn Fn() -> Vec<Probe>); 8] = [
        ("iter.flat_ns_per_elem", &|| iter_flat(scale)),
        ("iter.nest_ns_per_elem", &|| iter_nest(scale)),
        ("domain.split128_us", &domain_split),
        ("serial.pack_gbps", &|| serial(scale)),
        ("pool.chunk_overhead_ns", &pool),
        ("cluster.dispatch_us_per_task", &|| cluster(scale)),
        ("core.engine.empty_skeleton_us", &|| core(scale)),
        ("obs.span_record_ns", &obs),
    ];
    groups
        .iter()
        .flat_map(|(first, probe)| harness.span(&format!("bench:layer:{first}"), vec![], probe))
        .collect()
}

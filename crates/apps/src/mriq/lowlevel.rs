//! C+MPI+OpenMP-style implementation: explicit rank payloads, explicit
//! thread chunking, explicit gather.
//!
//! The paper notes this version "is the most verbose, dedicating more code
//! to partitioning data across MPI ranks than to the actual numerical
//! computation" — visible below: most of `run_lowlevel` is payload
//! construction and reassembly.

use triolet::{NodeCtx, RunStats, SeqPart};
use triolet_baselines::LowLevelRt;
use triolet_domain::{chunk_ranges, Domain, Part, Seq};
use triolet_serial::wire_struct;

use super::{ftcoeff, MriqInput, MriqOutput};

/// One rank's hand-built message: its pixel slice plus a full copy of the
/// sample arrays (the broadcast every rank needs).
#[derive(Clone)]
struct RankPayload {
    x: Vec<f32>,
    y: Vec<f32>,
    z: Vec<f32>,
    samples: super::Samples,
}

wire_struct!(RankPayload { x, y, z, samples });

/// Run mri-q with hand-written partitioning on `rt`.
pub fn run_lowlevel(rt: &LowLevelRt, input: &MriqInput) -> (MriqOutput, RunStats) {
    let samples = input.samples();
    // --- Root: hand-partition pixels across ranks -------------------------
    let n = input.num_pixels();
    let ranges = chunk_ranges(n, rt.nodes());
    let payloads: Vec<RankPayload> = ranges
        .iter()
        .map(|&(s, l)| RankPayload {
            x: input.x[s..s + l].to_vec(),
            y: input.y[s..s + l].to_vec(),
            z: input.z[s..s + l].to_vec(),
            samples: samples.clone(),
        })
        .collect();

    // --- Node kernel: the "OpenMP parallel for" ---------------------------
    let kernel = |ctx: &NodeCtx, p: RankPayload| -> (Vec<f32>, Vec<f32>) {
        let local_n = p.x.len();
        let chunks = Seq::new(local_n).split_parts(ctx.threads() * 4);
        let pieces = ctx.map_chunks(chunks, |c: &SeqPart| {
            let mut qr = Vec::with_capacity(c.count());
            let mut qi = Vec::with_capacity(c.count());
            for i in c.range() {
                let (x, y, z) = (p.x[i], p.y[i], p.z[i]);
                let mut sr = 0.0f32;
                let mut si = 0.0f32;
                for k in 0..p.samples.kx.len() {
                    let (cr, ci) = ftcoeff(&p.samples, k, x, y, z);
                    sr += cr;
                    si += ci;
                }
                qr.push(sr);
                qi.push(si);
            }
            (qr, qi)
        });
        // Pack the rank's contiguous output fragment.
        ctx.sequential(|| {
            let mut qr = Vec::with_capacity(local_n);
            let mut qi = Vec::with_capacity(local_n);
            for (r, i) in pieces {
                qr.extend(r);
                qi.extend(i);
            }
            (qr, qi)
        })
    };

    // --- Root: gather and reassemble --------------------------------------
    let (out, stats) = rt.run(payloads, kernel, |frags| {
        let mut qr = Vec::with_capacity(n);
        let mut qi = Vec::with_capacity(n);
        for (r, i) in frags {
            qr.extend(r);
            qi.extend(i);
        }
        MriqOutput { qr, qi }
    });
    (out, stats)
}
